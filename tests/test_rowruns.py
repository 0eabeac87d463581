"""The row-run toolkit against brute force."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from drrkit._rowruns import _RUN_BLOCK, _overlaps, _runs

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


def test_runs_of_a_mask_past_sixteen_blocks_match_one_pass():
    # Past 16 * _RUN_BLOCK pixels a block is a sixteenth of the mask, here
    # not a whole number of rows; the runs are those of one full-size pass.
    h, w = 1031, 1029
    assert h * w // 16 > _RUN_BLOCK
    fg = np.random.default_rng(3).random((h, w)) < 0.3
    fg[:, -1] = fg[-1] = True
    padded = np.zeros((h, w + 1), dtype=bool)
    padded[:, 1:] = fg
    flat = np.concatenate((padded.ravel(), [False]))
    edges = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    first, end = _runs(fg)
    assert np.array_equal(first, edges[0::2]) and np.array_equal(end, edges[1::2])
