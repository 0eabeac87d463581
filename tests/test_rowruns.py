"""The row-run toolkit against brute force."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from drrkit._rowruns import _overlaps, _runs

# Intervals [first, first + length) in any order, overlapping one another or
# not, some reaching past either end of the runs they are matched against.
_INTERVALS = st.lists(st.tuples(st.integers(-8, 60), st.integers(1, 20)), max_size=30)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_INTERVALS, arrays(np.bool_, st.tuples(st.integers(1, 4), st.integers(1, 12))))
def test_overlaps_matches_double_loop_on_unsorted_intervals(intervals, fg):
    first_a = np.array([f for f, _ in intervals], dtype=np.int64)
    end_a = np.array([f + n for f, n in intervals], dtype=np.int64)
    first_b, end_b = _runs(fg)
    want = [(i, k) for i in range(len(first_a)) for k in range(len(first_b))
            if max(first_a[i], first_b[k]) < min(end_a[i], end_b[k])]
    i, k = _overlaps((first_a, end_a), (first_b, end_b))
    assert list(zip(i.tolist(), k.tolist())) == want
