"""Property test of the packet-size draw against the standard library's rule."""

import random
from itertools import islice

import pytest

from reference import reference_draw_size
from uplinksim.traffic import _size_draws

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# 1, and every power of two up to 2**62 with its neighbours
WIDTHS = sorted({2**k + d for k in range(63) for d in (-1, 0, 1)} - {0})


@settings(derandomize=True, max_examples=400, deadline=None)
@given(seed=st.integers(), lo=st.integers(min_value=1),
       width=st.sampled_from(WIDTHS), draws=st.integers(1, 50))
@example(seed=12, lo=64, width=1187, draws=50)
@example(seed=0, lo=1, width=2**62, draws=50)
@example(seed=5, lo=320, width=1, draws=50)  # a fixed size draws nothing
def test_draw_size_matches_randrange(seed, lo, width, draws):
    # _size_draws makes the iterator every onoff and poisson stream takes
    # its sizes from; after ``draws`` sizes the RNG must be where ``draws``
    # reference draws leave it, so the iterator never draws ahead
    hi = lo + width - 1
    rng = random.Random(seed)
    ref = random.Random()
    ref.setstate(rng.getstate())
    sizes = _size_draws(rng.getrandbits, lo, hi)
    assert (list(islice(sizes, draws))
            == [reference_draw_size(ref, lo, hi) for _ in range(draws)])
    assert rng.getstate() == ref.getstate()
