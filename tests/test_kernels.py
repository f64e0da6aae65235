"""Property tests of the water-filling kernel against the exact oracle."""

import pytest

from reference import brute_force_alloc
from uplinksim._kernels_py import waterfill

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

WEIGHTS = [0.3, 0.5, 1, 1.5, 2, 3, 3.25, 4, 6, 7, 9, 10, 11]


@st.composite
def instances(draw):
    n = draw(st.integers(1, 8))
    deficits = draw(st.lists(st.integers(-5, 60), min_size=n, max_size=n))
    weights = draw(st.lists(st.sampled_from(WEIGHTS).map(float),
                            min_size=n, max_size=n))
    # up to well past the total deficit, so the uncontended case is drawn
    remaining = draw(st.integers(-5, 60 * n + 20))
    return deficits, weights, remaining


@settings(derandomize=True, max_examples=400, deadline=None)
@given(instances())
@example(([62], [7.0], 293))
@example(([23, 24], [0.3, 1.5], 7))
@example(([0, -3, 5], [1.0, 2.0, 3.0], 100))
@example(([4, 4, 4], [1.0, 1.0, 1.0], 2))
def test_waterfill_matches_exact_oracle(instance):
    deficits, weights, remaining = instance
    unmet = [max(d, 0) for d in deficits]
    inc = waterfill(deficits, weights, remaining)
    assert inc == brute_force_alloc(unmet, [0] * len(unmet), weights,
                                    max(remaining, 0))
    assert sum(inc) == min(max(remaining, 0), sum(unmet))
    assert all(0 <= i <= u for i, u in zip(inc, unmet))
    if remaining >= sum(unmet):
        assert inc == unmet
