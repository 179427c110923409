"""Deterministic, seedable fault plans: *what* fails, *where*, *when*.

The robustness guarantees of the service stack — no torn ledger
entries, exactly-once job completion across ``kill -9``, graceful
degradation on a full disk — are only worth what their tests can
prove.  A :class:`FaultPlan` turns "hope the disk fills at the right
instant" into a schedule: each :class:`FaultSpec` names a **site** (a
dotted string like ``"store.fsync"`` that a component consults at its
fault point), a fault **kind**, and a firing rule (explicit call
numbers, a seeded rate, or always).  Components reach fault points
through explicit seams — the ``fs=`` ops object of
:class:`repro.chaos.fs.ChaosFs`, the ``chaos=`` plan of
:class:`repro.serve.jobs.JobService` — and with no plan installed the
seams are pure passthrough.

Fault kinds:

``enospc`` / ``eio``
    Raise ``OSError`` with the matching ``errno`` at the site.
``torn``
    For write sites: write a prefix of the payload, then raise ``EIO``
    (a torn write).  At ``open``/``fsync``/``replace`` sites, which
    write no bytes, it degenerates to ``eio`` — data that was never made
    durable.
``latency``
    Sleep ``delay`` seconds at the site, then continue.
``crash``
    Raise :class:`ChaosCrash` — the serve worker loop treats it as a
    worker-process crash (circuit-breaker food).
``skew``
    Add ``skew`` seconds to the plan's :meth:`FaultPlan.clock` — every
    consumer that takes time from the plan (queue-age expiry, breaker
    cooldowns) sees the jump.

Everything is deterministic given the spec list and ``seed``: explicit
``at=`` schedules do not consult the RNG at all, and rate-based firing
uses one seeded ``random.Random``.  The plan records every fired fault
in :attr:`FaultPlan.events` so tests can assert exactly which faults
actually landed.
"""

from __future__ import annotations

import errno
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

FAULT_KINDS = ("enospc", "eio", "torn", "latency", "crash", "skew")

_ERRNO = {"enospc": errno.ENOSPC, "eio": errno.EIO}


class ChaosCrash(RuntimeError):
    """An injected worker crash (``kind="crash"`` fault)."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: where it strikes, what it does, when it fires.

    ``site`` is matched against the dotted site name consulted at each
    fault point: exact match, a ``"prefix.*"`` wildcard, or ``"*"``
    (every site).  ``at`` lists 1-based call numbers *of that site*
    that fire; with ``at=None``, ``rate`` is the seeded per-call firing
    probability (``rate=1.0`` fires always).  ``times`` caps the total
    firings of this spec (None = unlimited).
    """

    site: str
    kind: str
    at: Optional[Tuple[int, ...]] = None
    rate: float = 1.0
    times: Optional[int] = None
    delay: float = 0.0
    skew: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}")
        if self.at is not None:
            object.__setattr__(self, "at",
                               tuple(sorted(int(n) for n in self.at)))
            if any(n < 1 for n in self.at):
                raise ValueError("at= call numbers are 1-based")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")

    def matches(self, site: str) -> bool:
        if self.site == "*" or self.site == site:
            return True
        if self.site.endswith(".*"):
            return site.startswith(self.site[:-1])
        return False

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the CLI form ``SITE:KIND[:k=v[,k=v...]]``.

        Examples: ``store.fsync:enospc``, ``ledger.write:torn:at=2``,
        ``worker.run:crash:at=1,2``, ``store.*:latency:delay=0.1``,
        ``upload.write:eio:rate=0.5,times=3``.
        """
        parts = text.split(":", 2)
        if len(parts) < 2 or not parts[0] or not parts[1]:
            raise ValueError(
                f"malformed fault spec {text!r}; expected SITE:KIND[:k=v,...]")
        site, kind = parts[0], parts[1]
        fields: Dict[str, object] = {}
        if len(parts) == 3 and parts[2]:
            for item in parts[2].split(","):
                key, _, value = item.partition("=")
                key = key.strip()
                if key == "at":
                    # at= may repeat: at=1,at=2 or at=1 (one call number
                    # per item; commas separate k=v items).
                    existing = fields.get("at") or ()
                    fields["at"] = tuple(existing) + (int(value),)  # type: ignore[arg-type]
                elif key in ("rate", "delay", "skew"):
                    fields[key] = float(value)
                elif key == "times":
                    fields[key] = int(value)
                else:
                    raise ValueError(
                        f"unknown fault spec field {key!r} in {text!r}")
        return cls(site=site, kind=kind, **fields)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired (for test assertions and stats)."""

    site: str
    kind: str
    call: int  #: 1-based call number of the site when it fired


@dataclass
class FaultPlan:
    """A swappable schedule of deterministic fault injections.

    Thread-safe: serve worker threads and the HTTP executor consult one
    shared plan.  ``specs`` may be :class:`FaultSpec` instances or their
    ``SITE:KIND[:k=v,...]`` string form (parsed on construction).
    """

    specs: Sequence[Union[FaultSpec, str]] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        self.specs = tuple(
            FaultSpec.parse(s) if isinstance(s, str) else s
            for s in self.specs)
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()
        self._calls: Dict[str, int] = {}
        self._fired: Dict[int, int] = {}  # spec index -> times fired
        self.events: List[FaultEvent] = []
        self._skew = 0.0

    # ------------------------------------------------------------------
    # Fault points
    # ------------------------------------------------------------------
    def check(self, site: str) -> Optional[FaultSpec]:
        """Count one call of ``site``; return the spec that fires, if any.

        Pure decision — no side effect beyond the counters and the
        event log.  Use :meth:`trip` to also *apply* the fault.
        """
        with self._lock:
            call = self._calls.get(site, 0) + 1
            self._calls[site] = call
            for index, spec in enumerate(self.specs):
                if not spec.matches(site):
                    continue
                fired = self._fired.get(index, 0)
                if spec.times is not None and fired >= spec.times:
                    continue
                if spec.at is not None:
                    if call not in spec.at:
                        continue
                elif spec.rate < 1.0 and self._rng.random() >= spec.rate:
                    continue
                self._fired[index] = fired + 1
                self.events.append(FaultEvent(site, spec.kind, call))
                if spec.kind == "skew":
                    self._skew += spec.skew
                return spec
            return None

    def trip(self, site: str) -> Optional[FaultSpec]:
        """Consult ``site`` and apply its fault, if one fires.

        ``enospc``/``eio`` raise ``OSError``; ``crash`` raises
        :class:`ChaosCrash`; ``latency`` sleeps ``delay`` then returns
        the spec; ``torn`` and ``skew`` return the spec for the caller
        to interpret (partial write; skew already accumulated).
        Returns ``None`` when nothing fired.
        """
        spec = self.check(site)
        if spec is None:
            return None
        if spec.kind in _ERRNO:
            code = _ERRNO[spec.kind]
            raise OSError(code, f"chaos: injected {spec.kind} at {site} "
                                f"(call {self._calls[site]})")
        if spec.kind == "crash":
            raise ChaosCrash(f"chaos: injected crash at {site} "
                             f"(call {self._calls[site]})")
        if spec.kind == "latency" and spec.delay > 0:
            time.sleep(spec.delay)
        return spec

    # ------------------------------------------------------------------
    # Derived seams
    # ------------------------------------------------------------------
    def fs(self, scope: str):
        """A :class:`~repro.chaos.fs.ChaosFs` consulting ``scope.*`` sites."""
        from repro.chaos.fs import ChaosFs

        return ChaosFs(self, scope)

    def clock(self) -> float:
        """Monotonic seconds plus any accumulated ``skew`` faults."""
        with self._lock:
            skew = self._skew
        return time.monotonic() + skew  # repro-lint: disable=DET001 reason=fault-injection clock seam; test scheduling only, never keyed or cached

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def calls(self, site: str) -> int:
        """How many times ``site`` has been consulted."""
        with self._lock:
            return self._calls.get(site, 0)

    def fired(self, site: Optional[str] = None) -> int:
        """Total faults fired (at ``site``, or anywhere)."""
        with self._lock:
            if site is None:
                return len(self.events)
            return sum(1 for e in self.events if e.site == site)

    def summary(self) -> dict:
        """Counters for ``/v1/stats`` and test assertions."""
        with self._lock:
            return {
                "specs": len(self.specs),
                "seed": self.seed,
                "fired": len(self.events),
                "by_site": dict(
                    sorted(
                        {
                            e.site: sum(1 for x in self.events
                                        if x.site == e.site)
                            for e in self.events
                        }.items())),
            }
