"""The spill-subset sweep behind the exhaustive oracle.

Masks are ints over the variable order chosen by the caller, weights are
pre-scaled nonnegative ints. `live` / `chad` are per-constraint-row
bitmasks (callers deduplicate identical rows). A subset S is feasible at
target r when, for every row,

    popcount(live & ~S) [+ popcount(chad & S) with holes]  <=  r.
"""

from .errors import SizeCapError

IMPLEMENTATION = "pure"
# The cost table holds 2^n Python ints (about 0.6 GB at n = 24), so larger
# sweeps are refused before it is built.
MAX_VARS = 24


def _costs(n, weights):
    if n > MAX_VARS:
        raise SizeCapError(n, MAX_VARS)
    costs = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        costs[mask] = costs[mask ^ low] + weights[low.bit_length() - 1]
    return costs


def _feasible(mask, live, chad, r, holes, full):
    keep = full & ~mask
    if holes:
        for lv, ch in zip(live, chad):
            if (lv & keep).bit_count() + (ch & mask).bit_count() > r:
                return False
    else:
        for lv in live:
            if (lv & keep).bit_count() > r:
                return False
    return True


def sweep(n, weights, live, chad, r, holes):
    """Minimum-cost feasible subset: (cost, mask), or (None, None).

    Ties go to the smallest mask. Raises SizeCapError when n > MAX_VARS.
    """
    costs = _costs(n, weights)
    full = (1 << n) - 1
    best_cost = None
    best_mask = None
    for mask in range(1 << n):
        c = costs[mask]
        if best_cost is not None and c >= best_cost:
            continue
        if _feasible(mask, live, chad, r, holes, full):
            best_cost = c
            best_mask = mask
    return best_cost, best_mask


def sweep_all(n, weights, live, chad, r, holes, target_cost, cap):
    """All feasible subsets of exactly target_cost, ascending, capped.

    Returns (masks, truncated). Raises SizeCapError when n > MAX_VARS.
    """
    costs = _costs(n, weights)
    full = (1 << n) - 1
    out = []
    for mask in range(1 << n):
        if costs[mask] != target_cost:
            continue
        if _feasible(mask, live, chad, r, holes, full):
            out.append(mask)
            if len(out) >= cap:
                return out, True
    return out, False
