"""Property tests of the excess allocation's weight order and of Jain's
fairness index."""

import pytest

from test_bs_alloc import req
from uplinksim.bs_alloc import AllocationResult, phase2_excess
from uplinksim.metrics import jain_index

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@settings(derandomize=True, max_examples=300, deadline=None)
@given(demand=st.integers(5, 60), w_small=st.integers(1, 4),
       extra=st.integers(1, 6), remaining=st.integers(0, 80))
@example(demand=60, w_small=1, extra=6, remaining=0)
@example(demand=37, w_small=3, extra=0, remaining=80)  # equal weights
def test_weight_monotonicity(demand, w_small, extra, remaining):
    # of two equal requests, the heavier one gets at least the lighter
    # one's share, less the one byte that can fall either way
    requests = [req(1, demand), req(2, demand)]
    start = AllocationResult(allocated={1: 0, 2: 0}, remaining=remaining)
    result = phase2_excess(start, requests, (float(w_small), float(w_small + extra)))
    assert result.allocated[2] >= result.allocated[1] - 1


# the values random.random() * 100 takes: k / 2**53 * 100
RATES = st.integers(0, 2**53 - 1).map(lambda k: k / 2**53 * 100)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(RATES, min_size=1, max_size=8))
@example([42.0] * 8)  # equal rates: the index is 1
@example([0.0, 0.0, 0.0, 17.5])  # one positive rate: the index is 1/n
def test_jain_index_scale_invariance_and_bounds(rates):
    assume(sum(rates) > 0)
    n = len(rates)
    j = jain_index(rates)
    for c in (0.001, 3.0, 1e6):
        assert jain_index([c * r for r in rates]) == pytest.approx(j, abs=1e-12)
    assert 1 / n - 1e-12 <= j <= 1 + 1e-12
