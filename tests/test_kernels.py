"""Property tests of the scheduling kernels against their oracles: the
water-filling kernel, on contended rests only, against the exact
allocation, earliest-deadline selection (and, with bounds of 0.0, FIFO)
against one global sort, and the deficit round against a plain list
simulation."""

import pytest

from reference import (brute_force_alloc, queue_log, queued_packets,
                       reference_dfpq, reference_edf)
from uplinksim._kernels_py import (SPLITS_PER_WEIGHT_SET, _key_steps, dfpq_take,
                                   edf_take, waterfill)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

WEIGHTS = [0.3, 0.5, 1, 1.5, 2, 3, 3.25, 4, 6, 7, 9, 10, 11]


def unmet_of(deficits):
    return sum(d for d in deficits if d > 0)


@st.composite
def instances(draw):
    """A call in the kernel's domain: 0 < remaining < the sum of the
    positive deficits.  Entry ``j`` brings that sum to at least 2, so such
    a rest exists; the others may be 0 or negative."""
    n = draw(st.integers(1, 8))
    deficits = draw(st.lists(st.integers(-5, 60), min_size=n, max_size=n))
    weights = draw(st.lists(st.sampled_from(WEIGHTS).map(float),
                            min_size=n, max_size=n))
    j = draw(st.integers(0, n - 1))
    others = unmet_of(deficits[:j] + deficits[j + 1:])
    deficits[j] = draw(st.integers(max(1, 2 - others), 60))
    remaining = draw(st.integers(1, unmet_of(deficits) - 1))
    return deficits, weights, remaining


@settings(derandomize=True, max_examples=400, deadline=None)
@given(instances())
@example(([62], [7.0], 61))
@example(([23, 24], [0.3, 1.5], 7))
@example(([0, -3, 5], [1.0, 2.0, 3.0], 4))
@example(([4, 4, 4], [1.0, 1.0, 1.0], 2))
@example(([1, 1], [1.0, 3.0], 1))
def test_waterfill_matches_exact_oracle(instance):
    deficits, weights, remaining = instance
    unmet = [max(d, 0) for d in deficits]
    inc = waterfill(deficits, weights, remaining)
    assert inc == brute_force_alloc(unmet, [0] * len(unmet), weights, remaining)
    assert sum(inc) == remaining
    assert all(0 <= i <= u for i, u in zip(inc, unmet))


def exact_split(deficits, weights, remaining):
    unmet = [max(d, 0) for d in deficits]
    return brute_force_alloc(unmet, [0] * len(unmet), weights, remaining)


@st.composite
def split_sequences(draw):
    """One weight set and a sequence of contended (deficits, remaining)
    calls on one active set: the other entries' deficits are 0 or negative.
    The bytes left often repeat, so stored splits are looked up.  Where the
    active deficits fall short of ``remaining + 1``, the first active entry
    makes up the difference.  A call may be followed by its twin whose
    entry ``j`` is capped one byte below its share, which a split stored by
    the first call no longer fits, when the twin is still contended."""
    n = draw(st.integers(1, 6))
    weights = draw(st.lists(st.sampled_from(WEIGHTS).map(float),
                            min_size=n, max_size=n))
    remaining = draw(st.integers(1, 40))
    active = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    active[draw(st.integers(0, n - 1))] = True
    first = active.index(True)
    calls = []
    for _ in range(draw(st.integers(1, 24))):
        r = remaining + draw(st.sampled_from((0, 1)) | st.integers(0, 30))
        deficits = [draw(st.integers(1, 60) | st.integers(100, 200)) if a
                    else draw(st.integers(-3, 0)) for a in active]
        deficits[first] += max(0, r + 1 - unmet_of(deficits))
        calls.append((deficits, r))
        if draw(st.booleans()):
            j = draw(st.integers(0, n - 1))
            share = exact_split(deficits, weights, r)[j]
            if share >= 2:
                capped = list(deficits)
                capped[j] = share - 1
                if unmet_of(capped) > r:
                    calls.append((capped, r))
    return weights, calls


@settings(derandomize=True, max_examples=200, deadline=None)
@given(split_sequences())
# a split stored, a cap that binds on it, and the stored split again
@example(([1.0, 1.0], [([10, 10], 10), ([3, 10], 10), ([5, 100], 10)]))
# more uncapped splits than the table holds, then the first one again
@example(([1.0, 3.0, 2.0], [([100, -1, 100], r) for r in range(1, 20)]
          + [([100, 0, 100], 1)]))
def test_waterfill_reuses_a_split_only_where_it_fits(instance):
    # every call is exact in either order, from an empty table
    weights, calls = instance
    expected = [exact_split(d, weights, r) for d, r in calls]
    for step in (1, -1):
        _key_steps.cache_clear()
        for (deficits, remaining), exact in zip(calls[::step], expected[::step]):
            inc = waterfill(deficits, weights, remaining)
            assert inc == exact
            assert sum(inc) == remaining
            splits = _key_steps(tuple(weights))[3]
            assert len(splits) <= SPLITS_PER_WEIGHT_SET


# the end of the frame a kernel call sends in
FRAME_END = 40.0


def oracle_leftovers(sent, originals):
    """The packets an oracle's list of queue indices leaves on each queue."""
    heads = [0] * len(originals)
    for q in sent:
        heads[q] += 1
    return [orig[h:] for orig, h in zip(originals, heads)]


def logs_of(sizes, arrivals):
    """One ``queue_log`` per queue; queue ``q`` has ``q`` exited rows ahead
    of it and two still to arrive after it."""
    return [queue_log(s, a, exited=q, pending=2)
            for q, (s, a) in enumerate(zip(sizes, arrivals))]


def oracle_departures(sent, n):
    """Each of ``n`` ``logs_of`` logs' departures once an oracle's list of
    queue indices is sent: its exited rows', then ``FRAME_END`` for each
    packet sent from it."""
    return [[0.0] * q + [FRAME_END] * sent.count(q) for q in range(n)]


@st.composite
def edf_instances(draw):
    nq = draw(st.integers(1, 5))
    # whole-millisecond bounds and arrivals, so equal deadlines and equal
    # arrivals occur, within a queue and across queues
    bounds = draw(st.lists(st.integers(1, 20).map(float), min_size=nq, max_size=nq))
    arrivals, sizes = [], []
    for _ in range(nq):
        n = draw(st.integers(0, 8))
        arrivals.append(sorted(draw(st.lists(st.integers(0, 20).map(float),
                                             min_size=n, max_size=n))))
        sizes.append(draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n)))
    cids = draw(st.lists(st.integers(0, 99), min_size=nq, max_size=nq, unique=True))
    budget = draw(st.integers(0, 5000))
    return bounds, arrivals, sizes, cids, budget


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(edf_instances())
@example(([20.0], [[]], [[]], [7], 100))                        # empty queue
# one queue is drained in order, without the heap: a budget of 0, and one
# that stops mid-queue at a packet although the next one would fit
@example(([20.0], [[0.0, 1.0]], [[10, 20]], [7], 0))            # zero budget
@example(([20.0], [[0.0, 1.0, 1.0, 4.0, 4.0]], [[10, 20, 270, 50, 5]], [7], 305))
@example(([20.0, 5.0], [[0.0], [10.0]], [[300], [200]], [1, 2], 200))  # exact fit
@example(([5.0, 20.0, 1.0], [[3.0, 3.0], [3.0], [3.0]], [[10, 20], [30], [40]],
          [9, 2, 5], 1000))                                     # equal arrivals
@example(([20.0, 1.0], [[0.0], [0.0]], [[1], [1]], [4, 3], 0))  # zero budget
def test_edf_take_matches_sorted_reference(instance):
    # each instance runs twice: under the queues' own bounds, and with
    # bounds of 0.0, where a deadline is the arrival itself (FIFO)
    bounds, arrivals, sizes, cids, budget = instance
    for given in (bounds, [0.0] * len(bounds)):
        logs = logs_of(sizes, arrivals)
        originals = list(map(queued_packets, logs))
        order, used = edf_take(cids, logs, given, budget, FRAME_END)
        deadlines = [[a + bound for a in arr] for arr, bound in zip(arrivals, given)]
        sent, ref_used = reference_edf(deadlines, arrivals, sizes, cids, budget)
        assert order == [cids[q] for q in sent], given
        assert used == ref_used
        assert list(map(queued_packets, logs)) == oracle_leftovers(sent, originals)
        # exactly the rows sent got the frame's end
        assert ([list(log.departure) for log in logs]
                == oracle_departures(sent, len(logs)))


@st.composite
def dfpq_instances(draw):
    nq = draw(st.integers(1, 6))
    queues = draw(st.lists(st.lists(st.integers(1, 1400), max_size=12),
                           min_size=nq, max_size=nq))
    quanta = draw(st.lists(st.integers(1, 1500), min_size=nq, max_size=nq))
    deficits = [draw(st.integers(0, 800)) if q else 0 for q in queues]
    cursor = draw(st.integers(0, nq - 1))
    budget = draw(st.integers(0, 6000))
    return queues, quanta, deficits, cursor, budget


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(dfpq_instances())
@example(([], [], [], 3, 1000))                       # no queues
@example(([[]], [500], [0], 0, 1000))                 # empty queue
@example(([[300, 300]], [500], [0], 0, 0))            # zero budget
@example(([[300, 200], [100]], [500, 50], [0, 0], 0, 500))  # exact fit
# queue 1's visit only credits its quantum, between two visits of queue 0
# that send: the scan deferred past it must still see queue 0's new head
@example(([[100, 100], [400]], [100, 100], [0, 0], 0, 350))
@example(([[100], [200], [300]], [500, 500, 500], [0, 0, 0], 4, 1000))  # cursor n + 1
def test_dfpq_take_matches_reference(instance):
    queues, quanta, deficits, cursor, budget = instance
    nq = len(queues)
    # descending cids: the visit order is the list order, not the cid's
    cids = [nq - q for q in range(nq)]
    logs = logs_of(queues, [[0.0] * len(sizes) for sizes in queues])
    originals = list(map(queued_packets, logs))
    dc = list(deficits)
    order, pos, used = dfpq_take(cids, logs, quanta, dc, cursor, budget, FRAME_END)
    sent, ref_dc, ref_pos, ref_used = reference_dfpq(
        queues, quanta, deficits, cursor, budget)
    assert order == [cids[q] for q in sent]
    # the counters passed in are the ones updated
    assert (dc, pos, used) == (ref_dc, ref_pos, ref_used)
    assert list(map(queued_packets, logs)) == oracle_leftovers(sent, originals)
    # exactly the rows sent got the frame's end
    assert [list(log.departure) for log in logs] == oracle_departures(sent, nq)
