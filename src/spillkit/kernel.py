"""The spill-subset search behind the exhaustive oracle.

Masks are ints over the variable order chosen by the caller, weights are
pre-scaled ints >= 0. `live` / `chad` are per-constraint-row bitmasks
(callers deduplicate identical rows). A subset S is feasible at target r
when, for every row,

    popcount(live & ~S) [+ popcount(chad & S) with holes]  <=  r.

Subsets are taken from a heap in nondecreasing cost, and a search stops
at the first cost above its answer, so the subsets that cost more are
never visited. Two facts skip most of the tests that remain:

- every row needs |S| >= popcount(live) - r, so smaller masks are not
  tested;
- when every chad row lies inside its live row, a row's pressure is at
  least popcount(chad), which the full spill reaches, so testing the full
  spill first decides feasibility.
"""

from heapq import heappop, heappush, heapreplace

from .errors import SizeCapError

IMPLEMENTATION = "pure"
# A search that finds nothing feasible visits all 2^n subsets and holds
# many of them in its heap at once, so larger searches are refused up front.
MAX_VARS = 20


def _by_cost(n, weights):
    """Every subset once, in nondecreasing cost, as packed ints

        cost << (n + 5) | mask << 5 | tail

    Equal costs need not come in mask order. The indices are taken in
    order of weight, and tail is one past the place, in that order, of
    the last one chosen (0 when none is). Each subset comes from its
    parent by choosing the next index after its last chosen one, or by
    moving that last choice one place on; neither lowers the cost.
    """
    order = sorted(range(n), key=weights.__getitem__)
    sh = n + 5
    ws = [weights[i] for i in order]
    bit = [1 << i for i in order]
    add = [(ws[t] << sh) + (bit[t] << 5) + 1 for t in range(n)]
    move = [0] + [((ws[t] - ws[t - 1]) << sh) + ((bit[t] - bit[t - 1]) << 5)
                  + 1 for t in range(1, n)]
    heap = [0]
    while heap:
        e = heap[0]
        yield e
        t = e & 31
        if t < n:
            heapreplace(heap, e + add[t])
            if t:
                heappush(heap, e + move[t])
        else:
            heappop(heap)


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


def _prepare(n, live, chad, r, holes):
    """(full mask, least feasible size, full spill decides feasibility).

    Raises SizeCapError when n > MAX_VARS."""
    if n > MAX_VARS:
        raise SizeCapError(n, MAX_VARS)
    least = max(map(int.bit_count, live), default=0) - r
    decides = not holes or not any(ch & ~lv for lv, ch in zip(live, chad))
    return (1 << n) - 1, least, decides


def sweep(n, weights, live, chad, r, holes):
    """Minimum-cost feasible subset: (cost, mask, masks tested), or
    (None, None, masks tested) when no subset is feasible.

    Ties go to the smallest mask. Raises SizeCapError when n > MAX_VARS.
    """
    full, least, decides = _prepare(n, live, chad, r, holes)
    sh = n + 5
    top = sum(weights)  # no subset costs more
    best = (top + 1) << n  # cost << n | mask of the best subset so far
    tested = 0
    if decides:
        tested = 1
        if not _feasible(full, live, chad, r, holes, full):
            return None, None, tested
        best = top << n | full
    stop = ((best >> n) + 1) << sh
    for e in _by_cost(n, weights):
        if e >= stop:
            break
        key = e >> 5
        if key >= best:
            continue
        mask = key & full
        if mask.bit_count() < least:
            continue
        tested += 1
        if _feasible(mask, live, chad, r, holes, full):
            best = key
            stop = ((key >> n) + 1) << sh
    if best >> n > top:
        return None, None, tested
    return best >> n, best & full, tested


def sweep_all(n, weights, live, chad, r, holes, target_cost, cap):
    """All feasible subsets of exactly target_cost, ascending, capped.

    Returns (masks, truncated); truncated when at least `cap` subsets
    qualify. Raises SizeCapError when n > MAX_VARS.
    """
    full, least, decides = _prepare(n, live, chad, r, holes)
    if decides and not _feasible(full, live, chad, r, holes, full):
        return [], False
    sh = n + 5
    start, stop = target_cost << sh, (target_cost + 1) << sh
    out = []
    for e in _by_cost(n, weights):
        if e >= stop:
            break
        if e < start:
            continue
        mask = (e >> 5) & full
        if (mask.bit_count() >= least
                and _feasible(mask, live, chad, r, holes, full)):
            out.append(mask)
    out.sort()
    return out[:cap], len(out) >= cap
