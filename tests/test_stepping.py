"""Local step assignment and global phase offsets (Section 3.2)."""

import numpy as np
import pytest

from repro.core.columnar import PhaseOrders, local_steps
from repro.core.reorder import physical_order
from repro.core.stepping import assign_global_offsets, assign_local_steps
from repro.trace.columns import TraceColumns
from tests.helpers import SyntheticTrace

pytestmark = pytest.mark.stepping


def _phase_trace():
    st = SyntheticTrace(num_pes=1)
    a = st.chare("A")
    b = st.chare("B")
    st.block(a, "w", 0, 0.0, 2.0, [("send", "m1", 0.5), ("send", "m2", 1.0)])
    st.block(b, "r", 0, 3.0, 5.0, [("recv", "m1", 3.0), ("recv", "m2", 4.0),
                                   ("send", "m3", 4.5)])
    st.block(a, "r2", 0, 6.0, 7.0, [("recv", "m3", 6.0)])
    return st.build(), a, b


def test_initial_sources_at_step_zero():
    trace, a, b = _phase_trace()
    events = list(range(len(trace.events)))
    orders = {a: [0, 1, 5], b: [2, 3, 4]}
    steps, max_s = assign_local_steps(trace, events, orders)
    assert steps[0] == 0  # first send


def test_receive_at_least_one_after_send():
    trace, a, b = _phase_trace()
    events = list(range(len(trace.events)))
    orders = {a: [0, 1, 5], b: [2, 3, 4]}
    steps, _ = assign_local_steps(trace, events, orders)
    # m1: send ev0 -> recv ev2; m2: ev1 -> ev3; m3: ev4 -> ev5.
    assert steps[2] >= steps[0] + 1
    assert steps[3] >= steps[1] + 1
    assert steps[5] >= steps[4] + 1


def test_per_chare_steps_strictly_increase():
    trace, a, b = _phase_trace()
    events = list(range(len(trace.events)))
    orders = {a: [0, 1, 5], b: [2, 3, 4]}
    steps, _ = assign_local_steps(trace, events, orders)
    for order in orders.values():
        vals = [steps[e] for e in order]
        assert vals == sorted(vals)
        assert len(set(vals)) == len(vals)


def test_partial_phase_ignores_external_messages():
    trace, a, b = _phase_trace()
    # Only B's events in the phase: its receives' sends are external, so
    # the first receive is an initial event at step 0.
    events = [2, 3, 4]
    steps, max_s = assign_local_steps(trace, events, {b: [2, 3, 4]})
    assert steps[2] == 0
    assert max_s == 2


def test_cycle_fallback_assigns_everything():
    """A pathological chare order (receive placed before its send's
    predecessor) must still terminate with all events stepped."""
    trace, a, b = _phase_trace()
    events = list(range(len(trace.events)))
    # Put ev5 (recv of m3) before ev0/ev1 on A: creates a cycle with B.
    orders = {a: [5, 0, 1], b: [2, 3, 4]}
    steps, _ = assign_local_steps(trace, events, orders)
    assert len(steps) == 6


def test_global_offsets_chain():
    offsets = assign_global_offsets(
        [0, 1, 2],
        {0: set(), 1: {0}, 2: {1}},
        {0: 3, 1: 1, 2: 2},
    )
    assert offsets == {0: 0, 1: 4, 2: 6}


def test_global_offsets_max_over_preds():
    offsets = assign_global_offsets(
        [0, 1, 2],
        {0: set(), 1: set(), 2: {0, 1}},
        {0: 5, 1: 1, 2: 0},
    )
    assert offsets[2] == 6  # bound by the longer predecessor


def test_global_offsets_empty_phase_consumes_nothing():
    offsets = assign_global_offsets(
        [0, 1],
        {0: set(), 1: {0}},
        {0: -1, 1: 2},
    )
    assert offsets == {0: 0, 1: 0}


def test_global_offsets_cycle_rejected():
    with pytest.raises(ValueError, match="cycle"):
        assign_global_offsets([0, 1], {0: {1}, 1: {0}}, {0: 0, 1: 0})


# ---------------------------------------------------------------------------
# The one-pass columnar kernel steps every phase in one array; a cyclic
# phase must leave it without its values leaking into a neighbouring order.
# ---------------------------------------------------------------------------
def _cyclic_and_clean_trace(hops=12):
    """The ``_phase_trace`` chares A and B, then a C/D ping-pong of
    ``hops`` messages (a phase whose fixed point needs ~``hops`` rounds)."""
    st = SyntheticTrace(num_pes=1)
    a = st.chare("A")
    b = st.chare("B")
    st.block(a, "w", 0, 0.0, 2.0, [("send", "m1", 0.5), ("send", "m2", 1.0)])
    st.block(b, "r", 0, 3.0, 5.0, [("recv", "m1", 3.0), ("recv", "m2", 4.0),
                                   ("send", "m3", 4.5)])
    st.block(a, "r2", 0, 6.0, 7.0, [("recv", "m3", 6.0)])
    c = st.chare("C")
    d = st.chare("D")
    st.block(c, "start", 0, 10.0, 10.5, [("send", "p0", 10.1)])
    for hop in range(hops):
        t = 11.0 + hop
        events = [("recv", f"p{hop}", t)]
        if hop + 1 < hops:
            events.append(("send", f"p{hop + 1}", t + 0.1))
        st.block((d, c)[hop % 2], "pong", 0, t, t + 0.5, events)
    trace = st.build()
    clean_events = [e.id for e in trace.events if e.chare in (c, d)]
    return trace, {a: [5, 0, 1], b: [2, 3, 4]}, clean_events


@pytest.mark.parametrize("cyclic_first", [True, False])
def test_one_pass_kernel_isolates_a_cyclic_phase(cyclic_first):
    trace, cyclic, clean_events = _cyclic_and_clean_trace()
    clean = physical_order(trace, clean_events)
    phases = [cyclic, clean] if cyclic_first else [clean, cyclic]
    events, starts, owner, chares = [], [0], [], []
    for p, orders in enumerate(phases):
        for chare, order in orders.items():
            events += order
            starts.append(len(events))
            owner.append(p)
            chares.append(chare)
    layout = PhaseOrders(*(np.array(x, np.int64)
                           for x in (events, starts, owner, chares)))
    steps, max_step, unsettled = local_steps(
        TraceColumns.of(trace), layout, len(phases))
    bad = 0 if cyclic_first else 1
    assert unsettled == [bad]
    expected, expected_max = assign_local_steps(trace, clean_events, clean)
    got = dict(zip(events, steps.tolist()))
    assert {ev: got[ev] for ev in clean_events} == expected
    assert max_step[1 - bad] == expected_max > 10
