"""Idealized-replay reordering (Section 3.2.1, Figures 7 and 9)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.apps import lulesh
from repro.core import columnar
from repro.core.initial import build_initial
from repro.core.reorder import (
    MAX_KEY_DEPTH,
    _assign_w,
    physical_order,
    reordered_order_mp,
    reordered_order_task,
)
from repro.core.stepping import assign_local_steps
from repro.trace.columns import TraceColumns
from repro.trace.events import EventKind
from tests.helpers import SyntheticTrace

pytestmark = pytest.mark.stepping


def test_physical_order_sorted_by_time():
    st = SyntheticTrace(num_pes=1)
    a = st.chare("A")
    st.block(a, "w", 0, 0.0, 5.0, [("send", "x", 3.0), ("send", "y", 1.0)])
    trace = st.build()
    orders = physical_order(trace, [0, 1])
    times = [trace.events[e].time for e in orders[a]]
    assert times == sorted(times)


def _w_for(trace, initial):
    events = [e.id for e in trace.events]
    return _assign_w(trace, events, set(events), initial.block_of_event)


def test_w_initial_sends_count_up():
    st = SyntheticTrace(num_pes=1)
    a = st.chare("A")
    st.block(a, "w", 0, 0.0, 3.0,
             [("send", "x", 0.5), ("send", "y", 1.0), ("send", "z", 1.5)])
    trace = st.build()
    initial = build_initial(trace, mode="charm")
    w = _w_for(trace, initial)
    assert [w[e] for e in range(3)] == [0, 1, 2]


def test_w_receive_is_send_plus_one():
    st = SyntheticTrace(num_pes=1)
    a, b = st.chare("A"), st.chare("B")
    st.block(a, "w", 0, 0.0, 2.0, [("send", "x", 0.5), ("send", "y", 1.0)])
    st.block(b, "r", 0, 3.0, 6.0, [("recv", "y", 3.0), ("send", "z", 4.0)])
    trace = st.build()
    initial = build_initial(trace, mode="charm")
    w = _w_for(trace, initial)
    assert w[2] == w[1] + 1  # recv of y
    assert w[3] == w[2] + 1  # send after the receive counts up from it


def test_fig7_tie_break_by_invoking_chare():
    """Figure 7: two blocks on the gray chare arrive with equal w; the one
    invoked by the lower-id chare sorts first."""
    st = SyntheticTrace(num_pes=1)
    blue = st.chare("blue")    # id 0
    white = st.chare("white")  # id 1
    gray = st.chare("gray")    # id 2
    st.block(blue, "s", 0, 0.0, 1.0, [("send", "from_blue", 0.5)])
    st.block(white, "s", 0, 0.0, 1.0, [("send", "from_white", 0.5)])
    # Physically, white's message lands first — reordering must still put
    # blue's block first (tie on w, then invoker chare id).
    st.block(gray, "sink", 0, 2.0, 3.0, [("recv", "from_white", 2.0)])
    st.block(gray, "sink", 0, 4.0, 5.0, [("recv", "from_blue", 4.0)])
    trace = st.build()
    initial = build_initial(trace, mode="charm")
    events = [e.id for e in trace.events]
    orders = reordered_order_task(trace, events, initial.block_of_event)
    gray_order = orders[gray]
    invokers = []
    for ev in gray_order:
        mid = trace.message_by_recv[ev]
        send = trace.messages[mid].send_event
        invokers.append(trace.events[send].chare)
    assert invokers == [blue, white]


def test_task_reorder_keeps_within_block_order():
    st = SyntheticTrace(num_pes=1)
    a = st.chare("A")
    st.block(a, "w", 0, 0.0, 3.0,
             [("send", "x", 0.5), ("send", "y", 1.0), ("send", "z", 1.5)])
    trace = st.build()
    initial = build_initial(trace, mode="charm")
    orders = reordered_order_task(trace, [0, 1, 2], initial.block_of_event)
    assert orders[a] == [0, 1, 2]


def test_fig9_mp_send_pinned_receives_reorder():
    """Figure 9 analogue: receives with w 3,7,1 precede a send (w=8); a
    late receive with w=5 moves before the send; receives sort 1,3,5,7 and
    the send stays last."""
    st = SyntheticTrace(num_pes=2)
    p = st.chare("P", pe=0)

    def chain(label, depth, t0):
        """A dedicated sender chare whose self-chain gives P's receive of
        ``label`` the w value 2*depth - 1."""
        q = st.chare(f"Q_{label}", pe=1)
        prev = None
        t = t0
        for d in range(depth):
            evs = []
            if prev is not None:
                evs.append(("recv", prev, t))
            lbl = f"{label}_{d}" if d < depth - 1 else label
            evs.append(("send", lbl, t + 0.1))
            st.block(q, "hop", 1, t, t + 0.2, evs)
            prev = lbl
            t += 0.3

    chain("w3", 2, 0.0)
    chain("w7", 4, 10.0)
    chain("w1", 1, 20.0)
    chain("w5", 3, 30.0)
    # P: receives in physical order w3, w7, w1, then a send, then w5 late.
    st.block(p, "MPI_Recv", 0, 40.0, 41.0, [("recv", "w3", 40.0)])
    st.block(p, "MPI_Recv", 0, 41.0, 42.0, [("recv", "w7", 41.0)])
    st.block(p, "MPI_Recv", 0, 42.0, 43.0, [("recv", "w1", 42.0)])
    st.block(p, "MPI_Send", 0, 43.0, 44.0, [("send", "out", 43.0)])
    st.block(p, "MPI_Recv", 0, 45.0, 46.0, [("recv", "w5", 45.0)])
    trace = st.build()
    initial = build_initial(trace, mode="mpi")
    events = [e.id for e in trace.events]
    orders = reordered_order_mp(trace, events, initial.block_of_event)
    p_events = orders[p]
    kinds = [trace.events[e].kind for e in p_events]
    # The send stays last: every receive has smaller w than the send.
    assert kinds == [EventKind.RECV] * 4 + [EventKind.SEND]
    # Receives sort by w (1, 3, 5, 7), i.e. physical times 42, 40, 45, 41.
    times = [trace.events[e].time for e in p_events[:4]]
    assert times == [42.0, 40.0, 45.0, 41.0]


def test_mp_send_w_counts_past_preceding_receives():
    st = SyntheticTrace(num_pes=2)
    p = st.chare("P", pe=0)
    q = st.chare("Q", pe=1)
    st.block(q, "MPI_Send", 1, 0.0, 1.0, [("send", "a", 0.0)])
    st.block(p, "MPI_Recv", 0, 2.0, 3.0, [("recv", "a", 2.0)])
    st.block(p, "MPI_Send", 0, 3.0, 4.0, [("send", "b", 3.0)])
    trace = st.build()
    initial = build_initial(trace, mode="mpi")
    events = [e.id for e in trace.events]
    # Verify via ordering: the send stays after the receive.
    orders = reordered_order_mp(trace, events, initial.block_of_event)
    assert [trace.events[e].kind for e in orders[p]] == [EventKind.RECV, EventKind.SEND]


# ---------------------------------------------------------------------------
# The columnar kernels order every phase of a trace in one pass.  Scattering
# a trace's events over phases (blocks split across phases, messages
# crossing them) holds each kernel to its per-phase python reference.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("how", ["physical", "message_passing",
                                 "task-chare_id", "task-index"])
def test_one_pass_orders_match_the_per_phase_reference(how):
    trace = lulesh.run_charm(chares=8, pes=4, iterations=2, seed=3)
    initial = build_initial(trace, mode="charm")
    phases = [[e for e in range(len(trace.events)) if e * 7 % 5 == p]
              for p in range(5)]
    cols = TraceColumns.of(trace)
    if how == "physical":
        orders = columnar.physical_orders(cols, phases)
        expected = [physical_order(trace, evs) for evs in phases]
    elif how == "message_passing":
        orders = columnar.message_passing_orders(cols, phases)
        expected = [reordered_order_mp(trace, evs, initial.block_of_event)
                    for evs in phases]
    else:
        tie_break = how.split("-")[1]
        inv_keys = [tuple(c.index) if tie_break == "index" and c.index
                    else (c.id,) for c in trace.chares]
        orders = columnar.task_orders(
            cols, phases, np.asarray(initial.block_of_event, np.int64),
            inv_keys)
        expected = [reordered_order_task(trace, evs, initial.block_of_event,
                                         tie_break=tie_break)
                    for evs in phases]
    assert list(zip(orders.phase.tolist(), orders.chare.tolist(),
                    orders.lists())) == [
        (p, chare, order) for p, per_chare in enumerate(expected)
        for chare, order in per_chare.items()]

    steps, max_step, unsettled = columnar.local_steps(
        cols, orders, len(phases))
    step_of = dict(zip(orders.events.tolist(), steps.tolist()))
    settled = [p for p in range(len(phases)) if p not in unsettled]
    assert len(settled) >= 3
    for p in settled:
        want, want_max = assign_local_steps(trace, phases[p], expected[p])
        assert {ev: step_of[ev] for ev in phases[p]} == want
        assert max_step[p] == want_max


@settings(max_examples=200, deadline=None)
@given(hst.data())
def test_block_keys_sort_like_python_tuples(data):
    """Padded key rows order groups exactly as the flattened Figure 7 key
    tuples do, prefixes included (index keys differ in length)."""
    inv_keys = data.draw(hst.lists(
        hst.lists(hst.integers(0, 2), min_size=1, max_size=3).map(tuple),
        min_size=1, max_size=4))
    n = data.draw(hst.integers(1, 10))
    w = data.draw(hst.lists(hst.integers(0, 2), min_size=n, max_size=n))
    invoker = data.draw(hst.lists(hst.integers(-1, len(inv_keys) - 1),
                                 min_size=n, max_size=n))
    nxt = [j if j != i else -1 for i, j in enumerate(data.draw(
        hst.lists(hst.integers(-1, n - 1), min_size=n, max_size=n)))]

    def flat_key(g):
        parts, hops = [], 0
        while True:
            parts += [w[g], *(inv_keys[invoker[g]] if invoker[g] >= 0
                              else (-1,))]
            if hops == MAX_KEY_DEPTH or nxt[g] < 0:
                return tuple(parts)
            g, hops = nxt[g], hops + 1

    keys = columnar._block_keys(np.array(w, np.int64),
                                np.array(invoker, np.int64),
                                np.array(nxt, np.int64), inv_keys)
    assert np.lexsort(keys[::-1]).tolist() == sorted(
        range(n), key=lambda g: (flat_key(g), g))
