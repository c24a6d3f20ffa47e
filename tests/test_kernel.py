"""Contract of the spill-subset sweep kernel."""

import pytest

from spillkit import kernel
from spillkit.errors import SizeCapError


def test_all_cap_truncates():
    n = 6
    weights = [1] * n
    live = [0]  # no constraint: every subset feasible
    chad = [0]
    masks, truncated = kernel.sweep_all(n, weights, live, chad, 99, False, 1, 3)
    assert truncated and len(masks) == 3


def test_sweep_infeasible():
    # one row with 3 live and a chad on each: holes floor is 3 > 2
    n = 3
    live = [0b111]
    chad = [0b111]
    assert kernel.sweep(n, [1, 1, 1], live, chad, 2, True) == (None, None)
    cost, mask = kernel.sweep(n, [1, 1, 1], live, chad, 2, False)
    assert cost == 1 and mask in (0b001, 0b010, 0b100)


def test_ties_pick_smallest_mask():
    n = 3
    live = [0b111]
    chad = [0b000]
    cost, mask = kernel.sweep(n, [5, 5, 5], live, chad, 2, False)
    assert cost == 5 and mask == 0b001


def test_sweep_all_refuses_past_ceiling():
    n = kernel.MAX_VARS + 1
    with pytest.raises(SizeCapError):
        kernel.sweep_all(n, [1] * n, [0], [0], 0, False, 0, 1)
