"""Request parsing/validation and response shaping for ``repro serve``.

Every endpoint's wire contract lives here, away from socket handling
(:mod:`repro.serve.app`) and job execution (:mod:`repro.serve.jobs`):
the HTTP layer decodes bytes, hands dicts to these validators, and
serializes whatever they (or the service) return.  Validation failures
raise :class:`SchemaError`, which the app maps to a 400 response with
the message as the body — clients always learn *which* field was wrong.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.pipeline import PipelineOptions

#: Job lifecycle states (docs/API.md documents the transitions):
#: ``queued`` → ``running`` → ``done`` | ``failed``, or ``queued`` →
#: ``expired`` when a job outlives ``max_queue_age`` before a worker
#: picks it up (load shedding — it never runs).  A submission whose
#: artifact already exists is born ``done`` with ``cached: true``.
JOB_STATES = ("queued", "running", "done", "failed", "expired")

#: PipelineOptions fields a job may not set, with the reason its 400
#: names.  ``hooks`` is not expressible in JSON.  ``checkpoint_dir``
#: would let a client pick where the server writes pickled checkpoints
#: and which files it unpickles on resume.
REJECTED_FIELDS = {
    "hooks": "is process-local",
    "checkpoint_dir": "is a path on the server's filesystem",
}

#: PipelineOptions fields a job may set; everything else round-trips.
OPTION_FIELDS = tuple(sorted(
    f.name for f in dataclasses.fields(PipelineOptions)
    if f.name not in REJECTED_FIELDS
))


class SchemaError(ValueError):
    """A request failed validation; ``str(exc)`` is client-safe."""


def require_dict(payload, what: str) -> dict:
    if not isinstance(payload, dict):
        raise SchemaError(f"{what} must be a JSON object")
    return payload


def parse_options(fields: Optional[dict]) -> PipelineOptions:
    """Validate a job's ``options`` object into :class:`PipelineOptions`.

    Unknown fields and :data:`REJECTED_FIELDS` are rejected by name, and
    :meth:`PipelineOptions.validate` checks every enumerated value, so a
    bad value answers 400 naming the field before the job is journaled.
    """
    if fields is None:
        return PipelineOptions()
    fields = require_dict(fields, "options")
    for name, reason in REJECTED_FIELDS.items():
        if name in fields:
            raise SchemaError(f"options.{name} {reason} and cannot be "
                              "set through the service")
    try:
        return PipelineOptions().with_overrides(**fields).validate()
    except TypeError as exc:
        raise SchemaError(
            f"{exc}; settable fields: {', '.join(OPTION_FIELDS)}"
        ) from None
    except ValueError as exc:
        raise SchemaError(f"options: {exc}") from None


def parse_job_request(payload) -> tuple:
    """``POST /v1/jobs`` body → ``(trace reference, option fields)``."""
    payload = require_dict(payload, "job request")
    trace = payload.get("trace")
    if not isinstance(trace, str) or not trace:
        raise SchemaError('job request needs a non-empty "trace" '
                          '(an upload reference or a registered path)')
    unknown = set(payload) - {"trace", "options"}
    if unknown:
        raise SchemaError(
            f"unknown job request field(s): {', '.join(sorted(unknown))}")
    options = payload.get("options")
    parse_options(options)  # fail fast, before the job is journaled
    return trace, dict(options or {})


def parse_register_request(payload) -> str:
    """``POST /v1/traces/register`` body → the trace path."""
    payload = require_dict(payload, "register request")
    path = payload.get("path")
    if not isinstance(path, str) or not path:
        raise SchemaError('register request needs a non-empty "path"')
    unknown = set(payload) - {"path"}
    if unknown:
        raise SchemaError(
            f"unknown register request field(s): {', '.join(sorted(unknown))}")
    return path
