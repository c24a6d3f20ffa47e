"""Contract of the spill-subset search kernel, and its parity with the
full 2^n sweep it replaced, which is kept here as the reference."""

from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spillkit import kernel
from spillkit.errors import SizeCapError


def _feasible(mask, live, chad, r, holes, full):
    keep = full & ~mask
    return all((lv & keep).bit_count() + (holes and (ch & mask).bit_count()) <= r
               for lv, ch in zip(live, chad))


def _costs(n, weights):
    costs = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        costs[mask] = costs[mask ^ low] + weights[low.bit_length() - 1]
    return costs


def full_sweep(n, weights, live, chad, r, holes):
    """Reference: test every mask in ascending order; (cost, mask)."""
    costs = _costs(n, weights)
    full = (1 << n) - 1
    best_cost = best_mask = None
    for mask in range(1 << n):
        c = costs[mask]
        if best_cost is not None and c >= best_cost:
            continue
        if _feasible(mask, live, chad, r, holes, full):
            best_cost, best_mask = c, mask
    return best_cost, best_mask


def full_sweep_all(n, weights, live, chad, r, holes, target_cost, cap):
    """Reference: (feasible masks of target_cost ascending, truncated)."""
    costs = _costs(n, weights)
    full = (1 << n) - 1
    out = []
    for mask in range(1 << n):
        if costs[mask] == target_cost and _feasible(mask, live, chad, r, holes,
                                                    full):
            out.append(mask)
            if len(out) >= cap:
                return out, True
    return out, False


def test_all_cap_truncates():
    n = 6
    weights = [1] * n
    live = [0]  # no constraint: every subset feasible
    chad = [0]
    masks, truncated = kernel.sweep_all(n, weights, live, chad, 99, False, 1, 3)
    assert truncated and masks == [0b1, 0b10, 0b100]


def test_sweep_infeasible():
    # one row with 3 live and a chad on each: holes floor is 3 > 2
    n = 3
    live = [0b111]
    chad = [0b111]
    assert kernel.sweep(n, [1, 1, 1], live, chad, 2, True)[:2] == (None, None)
    cost, mask, _ = kernel.sweep(n, [1, 1, 1], live, chad, 2, False)
    assert cost == 1 and mask in (0b001, 0b010, 0b100)


def test_ties_pick_smallest_mask():
    n = 3
    live = [0b111]
    chad = [0b000]
    cost, mask, _ = kernel.sweep(n, [5, 5, 5], live, chad, 2, False)
    assert cost == 5 and mask == 0b001


def test_sweep_all_refuses_past_ceiling():
    n = kernel.MAX_VARS + 1
    with pytest.raises(SizeCapError):
        kernel.sweep_all(n, [1] * n, [0], [0], 0, False, 0, 1)


def test_search_stops_at_the_optimum():
    # twenty unit-weight variables live together at r = 19: the full
    # spill and one singleton are tested, not 2^20 masks (the empty set
    # is below the size floor)
    n = 20
    cost, mask, tested = kernel.sweep(n, [1] * n, [(1 << n) - 1], [0], n - 1,
                                      False)
    assert (cost, mask, tested) == (1, 1, 2)


@pytest.mark.parametrize("holes", [True, False])
def test_infeasible_at_the_ceiling_returns_at_once(holes):
    # chad rows inside their live rows: the full spill decides
    n = kernel.MAX_VARS
    full = (1 << n) - 1
    live = [full, full >> 1]
    chad = [0b111, 0b11] if holes else [0, 0]
    r = 2 if holes else -1
    t0 = perf_counter()
    got = kernel.sweep(n, list(range(1, n + 1)), live, chad, r, holes)
    assert got == (None, None, 1)
    assert kernel.sweep_all(n, [1] * n, live, chad, r, holes, 3, 10) == ([],
                                                                       False)
    assert perf_counter() - t0 < 1.0


@st.composite
def _rows(draw):
    n = draw(st.integers(0, 7), label="n")
    weights = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n),
                   label="weights")
    masks = st.integers(0, (1 << n) - 1)
    live = draw(st.lists(masks, min_size=1, max_size=5), label="live")
    chad = draw(st.lists(masks, min_size=len(live), max_size=len(live)),
                label="chad")
    if draw(st.booleans(), label="chad inside live"):
        chad = [ch & lv for lv, ch in zip(live, chad)]
    holes = draw(st.booleans(), label="holes")
    r = draw(st.integers(-1, n), label="r")
    return n, weights, live, chad, r, holes


@settings(max_examples=600, deadline=None)
@given(_rows(), st.integers(-3, 12), st.integers(1, 4))
def test_search_matches_full_sweep(rows, other_cost, cap):
    """Same optimum and tie, same optimal sets and truncation as the full
    sweep: both modes, tied and zero weights, infeasible rows, and
    chad rows outside their live rows."""
    want = full_sweep(*rows)
    cost, mask, tested = kernel.sweep(*rows)
    assert (cost, mask) == want
    assert tested <= 1 << rows[0]  # each mask at most once
    for target in {other_cost, want[0]} - {None}:
        got = kernel.sweep_all(*rows, target, cap)
        assert got == full_sweep_all(*rows, target, cap)
