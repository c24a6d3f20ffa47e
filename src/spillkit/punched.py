"""Left-to-right DP on spilled variables: holes, target Maxlive - k.

State at a sample: the set of spilled variables live there (an extra
set). In any optimal solution that set never exceeds 2(h+k) variables:
inside a maximal stretch where more than h+k spilled variables are live,
a wholly-contained spilled variable could be unspilled and still fit,
contradicting optimality (its weight is > 0), so every spilled variable
crosses one of the two boundaries and each side contributes at most h+k.
The cardinality cap therefore preserves exactness while keeping the
state family polynomial for fixed h and k.

The DP runs as a cost-ordered (Dijkstra) search over its layered state
graph. A node is (column, extra set). Expanding a state extends its key,
the part of it still live in the next column, by each subset of that
column's newly live variables the cap and the target allow, and adds the
weights of the subset. States of a column with the same key have the
same extensions, so each column keeps only the cheapest state pushed per
key. Weights are > 0, so no extension lowers a cost: states pop in
nondecreasing cost, and the first state popped in the last column is an
optimum. States that cost more than it are never expanded. The extension
that spills nothing new keeps the cost and lies one column deeper, so it
is the next pop and skips the heap.
"""

from __future__ import annotations

from heapq import heappop, heappush, heappushpop
from itertools import combinations
from math import comb

from .errors import BudgetExceededError, InfeasibleError, WrongShapeError
from .model import HOLES, LINEAR, bits, pressure, run_starts, spill_solution

DEFAULT_STATE_BUDGET = 10_000_000


def extra_set_dp(instance, k, state_budget=DEFAULT_STATE_BUDGET):
    """Minimum-weight spill set with l'(p) <= Maxlive - k under holes.

    Searches (column, extra set) states in nondecreasing cost and stops at
    the first state popped in the last column; the module docstring says
    why that is exact. Runs of equal columns count as one column.

    `state_budget` caps work: each expansion charges the number of
    candidate extensions it will test before it enumerates them, and
    BudgetExceededError is raised once the charges pass the budget.
    The solution's `steps` counts the states popped plus the candidate
    extensions tested.

    Raises MalformedCodeError on an unsound instance (Instance.problem),
    UnsupportedModeError on a range instance (Instance.chads), and
    InfeasibleError when no extra set within the cap reaches the target,
    with the first sample no state reaches as its witness.
    """
    instance.require_sound("extra_set_dp")
    if instance.shape != LINEAR:
        raise WrongShapeError("extra_set_dp handles linear codes only")
    if k < 1:
        raise ValueError("decrement k must be >= 1")
    live, chad = instance.live_masks, instance.chads(HOLES)

    omega = instance.omega
    r = omega - k
    cap = 2 * (instance.h + k)
    starts = run_starts(list(zip(live, chad)))  # a sound instance has points
    last = len(starts) - 1

    # per column: live, chads, the part still live in the next column (a
    # state's key there), the newly live variables, the relief needed
    lms = [live[i] for i in starts]
    columns = [(lm, chad[i], out, lm & ~before, lm.bit_count() - r)
               for i, lm, out, before in zip(starts, lms, lms[1:] + [0],
                                             [0] + lms)]
    steps = 0
    work = 0  # candidate extensions charged against state_budget
    best = [{} for _ in starts]  # per column: key -> cheapest cost pushed
    extensions = {}  # (column, size) -> [(subset of new, weight, non-chads)]
    # entries (cost, -column, state, parent entry): at equal cost the
    # deeper column pops first; a root before column 0 holds the empty set
    heap = [(0, 1, 0, None)]
    carry = None  # the extension that spills nothing new, if it was kept
    while heap or carry:
        # the carried entry costs no more and lies deeper than every queued
        # one, so it comes next without a trip through the heap
        entry = heappushpop(heap, carry) if carry else heappop(heap)
        carry = None
        cost, neg, state, _ = entry
        col = -neg
        steps += 1
        if col >= 0 and best[col][state & columns[col][2]] < cost:
            continue  # a cheaper state with this key came first
        if col == last:
            break
        nxt = col + 1
        lm, cm, out, new, need = columns[nxt]
        key = state & lm
        held = key.bit_count()
        n_new = new.bit_count()
        sizes = range(max(0, need - held), min(cap - held, n_new) + 1)
        work += sum(comb(n_new, size) for size in sizes)
        if work > state_budget:
            raise BudgetExceededError(
                f"extra-set DP exceeded its budget of {state_budget} "
                f"candidate sets (cap {cap} over {instance.n_vars} variables); "
                "use the exact oracle")
        relief = (key & ~cm).bit_count()
        layer = best[nxt]
        for size in sizes:
            ext = extensions.get((nxt, size))
            if ext is None:
                ext = extensions[(nxt, size)] = [
                    (t, instance.int_weight(t), (t & ~cm).bit_count())
                    for t in map(sum, combinations(
                        [1 << b for b in bits(new)], size))]
            steps += len(ext)
            for t, w, free in ext:
                if relief + free < need:
                    continue
                e, c = key | t, cost + w
                old = layer.get(e & out)
                if old is None or c < old:
                    layer[e & out] = c
                    if t:
                        heappush(heap, (c, -nxt, e, entry))
                    else:
                        carry = (c, -nxt, e, entry)
    else:
        # columns are reached in order: the first one without a state
        pt, mom = instance.samples[starts[next(
            j for j, layer in enumerate(best) if not layer)]]
        raise InfeasibleError(
            f"no extra set of size <= {cap} reaches pressure {r} "
            f"at point {pt} ({mom} moment)", witness=(pt, mom))

    spilled_mask = 0
    while entry is not None:
        spilled_mask |= entry[2]
        entry = entry[3]
    spilled = instance.decode(spilled_mask)
    return spill_solution(instance, spilled, pressure(instance, spilled, HOLES),
                          "dp-extra", steps)
