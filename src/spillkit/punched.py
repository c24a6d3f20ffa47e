"""Left-to-right DP on spilled variables: holes, target Maxlive - k.

State at a sample: the set of spilled variables live there (an extra
set). In any optimal solution that set never exceeds 2(h+k) variables:
inside a maximal stretch where more than h+k spilled variables are live,
a wholly-contained spilled variable could be unspilled and still fit,
contradicting optimality (its weight is > 0), so every spilled variable
crosses one of the two boundaries and each side contributes at most h+k.
The cardinality cap therefore preserves exactness while keeping the
state family polynomial for fixed h and k.

The DP runs as a best-first (A*) search over its layered state graph. A
node is (column, extra set). Expanding a state extends its key, the part
of it still live in the next column, by each subset of that column's
newly live variables the cap and the target allow, and adds the weights
of the subset. States of a column with the same key have the same
extensions, so each column keeps only the cheapest state pushed per key.

A column where no variable is born has one extension, the empty one, so
the search does not stop there: a popped state walks each run of such
columns inline, narrowing its key and checking the relief at each, and
pushes and dedupes only at columns where a variable is born.

States pop in order of cost plus a lower bound on the cost still to pay,
at equal values the deeper column first. The bound looks ahead at the
checkpoints, the columns whose need (live count minus target) is a local
maximum, and gives each a window of columns, in order: a window runs
from the end of the last window that charged something (at first, the
state's column) to its checkpoint. The checkpoint's relief can come for
free only from the spilled key and from variables born after the state
but before the window; the rest, its deficit, must be paid by spilling
that many variables born inside the window, live and not a chad at the
checkpoint, so the window charges its `deficit` cheapest such weights,
or infinity when there are too few. Windows hold disjoint births, so the
charges add up to no more than any completion pays, and the bound is
admissible: the first state that walks past the last column is an
optimum. A state is bounded when it is first popped; until then it
carries its parent's value, which is also a lower bound. What the
windows from a checkpoint on charge depends only on the window start and
on which older variables live there stay unspilled, so it is memoized on
those, and built by a loop, not by recursion. States whose bound is
infinite reach no completion; they pop only once every finite state has
failed, and are then searched as plain reachability, so that the
infeasibility witness is the first column no state reaches.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappop, heappush, heappushpop
from itertools import combinations
from math import comb, inf

from .errors import BudgetExceededError, InfeasibleError, WrongShapeError
from .model import HOLES, LINEAR, bits, pressure, run_starts, spill_solution

DEFAULT_STATE_BUDGET = 10_000_000


def extra_set_dp(instance, k, state_budget=DEFAULT_STATE_BUDGET):
    """Minimum-weight spill set with l'(p) <= Maxlive - k under holes.

    Searches (column, extra set) states in order of cost plus an
    admissible bound and stops at the first state that walks past the
    last column; the module docstring says why that is exact. Runs of
    equal columns count as one column.

    `state_budget` caps work: each expansion charges the number of
    candidate extensions it will test before it enumerates them, each
    walked column charges one, and each checkpoint the bound visits
    charges one; BudgetExceededError is raised once the charges pass the
    budget. The solution's `steps` counts the states popped, the columns
    walked and the candidate extensions tested.

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
    ws = instance.int_weights

    r = instance.omega - k
    cap = 2 * (instance.h + k)
    starts = run_starts(list(zip(live, chad)))  # a sound instance has points
    last = len(starts)

    # per column, where column 0 is the root before the first sample and
    # column j the run at starts[j - 1]: live, chads, the part still live
    # in the next column (a state's key there), the newly live variables
    # and the relief needed; live ranges are intervals of columns
    lms = [0] + [live[i] for i in starts]
    cms = [0] + [chad[i] for i in starts]
    outs = lms[1:] + [0]
    news = [0] + [lm & ~before for lm, before in zip(lms[1:], lms)]
    needs = [0] + [lm.bit_count() - r for lm in lms[1:]]

    # the bound's checkpoints: column, live, relieving (live, not a chad)
    # and need of each
    cps = [j for j in range(1, last + 1)
           if needs[j] > 0 and needs[j] >= needs[j - 1]
           and (j == last or needs[j] >= needs[j + 1])]
    cp_lms = [lms[j] for j in cps]
    cp_rels = [lms[j] & ~cms[j] for j in cps]
    cp_needs = [needs[j] for j in cps]
    n_cps = len(cps)

    steps = 0
    work = 0  # candidates, walked columns and checkpoint visits

    def charge(n):
        nonlocal work
        work += n
        if work > state_budget:
            raise BudgetExceededError(
                f"extra-set DP exceeded its budget of {state_budget} "
                f"candidate sets (cap {cap} over {instance.n_vars} variables); "
                "use the exact oracle")

    tails = {}  # (checkpoint, window start, unspilled live there) -> bound

    def bound(col, e):
        # a window from s scans the checkpoints until one has a deficit;
        # `older` relieves for free: the spilled key and what is born
        # after col up to s. The charges from the window's first
        # checkpoint i onward depend only on s and on which variables
        # live at both col and cps[i] stay unspilled.
        unspilled = lms[col] & ~e
        i = start = bisect_right(cps, col)
        s, older = col, e
        path = []
        tail = 0
        while i < n_cps:
            memo = (i, s, unspilled & cp_lms[i])
            if memo in tails:
                tail = tails[memo]
                break
            while i < n_cps:
                deficit = cp_needs[i] - (cp_rels[i] & older).bit_count()
                if deficit > 0:
                    break
                i += 1
            else:
                path.append((memo, 0))
                break
            window = cp_rels[i] & ~lms[s]  # relieving, born after s
            add = (sum(sorted(ws[b] for b in bits(window))[:deficit])
                   if window.bit_count() >= deficit else inf)
            path.append((memo, add))
            if add == inf:
                break
            s = cps[i]
            older = lms[s] & ~unspilled
            i += 1
        charge(min(i + 1, n_cps) - start)
        for memo, add in reversed(path):
            tail += add
            tails[memo] = tail
        return tail

    plans = {}  # (column, keys held) -> (extension sizes, candidates)
    extensions = {}  # (column, size) -> [(subset of new, weight, non-chads)]
    best = [{} for _ in range(last + 1)]  # per column: key -> cheapest cost
    far = 0  # the deepest column a state reaches
    # entries (cost + bound, -column, extra set, cost, bounded, parent)
    heap = [(0, 0, 0, 0, False, None)]
    carry = None  # the extension that spills nothing new, if it was kept
    while heap or carry:
        # the carried entry is worth what its parent was and lies deeper,
        # so it comes next, and heappushpop returns it without a trip
        # through the heap, unless a sibling ties it
        entry = heappushpop(heap, carry) if carry else heappop(heap)
        carry = None
        f, neg, e, cost, bounded, parent = entry
        col = -neg
        steps += 1
        if col and best[col][e & outs[col]] < cost:
            continue  # a cheaper state with this key came first
        if not bounded and f < inf:
            g = cost + bound(col, e)
            if g > f:
                heappush(heap, (g, neg, e, cost, True, parent))
                continue
        nxt = col + 1
        while nxt <= last and not news[nxt]:
            e &= lms[nxt]
            if (e & ~cms[nxt]).bit_count() < needs[nxt]:
                break
            nxt += 1
        dead = nxt <= last and not news[nxt]  # the relief failed at nxt
        steps += nxt - col - 1 + dead
        charge(nxt - col - 1 + dead)
        if nxt > last:
            break
        far = max(far, nxt - 1)
        if dead:
            continue
        lm, cm, new, need = lms[nxt], cms[nxt], news[nxt], needs[nxt]
        key = e & lm
        held = key.bit_count()
        plan = plans.get((nxt, held))
        if plan is None:
            n_new = new.bit_count()
            sizes = range(max(0, need - held), min(cap - held, n_new) + 1)
            plan = plans[(nxt, held)] = (
                sizes, sum(comb(n_new, size) for size in sizes))
        sizes, n_cands = plan
        charge(n_cands)
        relief = (key & ~cm).bit_count()
        out, layer = outs[nxt], best[nxt]
        for size in sizes:
            ext = extensions.get((nxt, size))
            if ext is None:
                ext = extensions[(nxt, size)] = _subsets(
                    [(1 << b, ws[b]) for b in bits(new)], size, cm)
            steps += len(ext)
            for t, w, free in ext:
                if relief + free < need:
                    continue
                if far < nxt:
                    far = nxt
                x, c = key | t, cost + w
                old = layer.get(x & out)
                # past the finite states, only reachability is left to find
                if old is None or c < old and f < inf:
                    layer[x & out] = c
                    child = (max(f, c), -nxt, x, c, False, entry)
                    if t:
                        heappush(heap, child)
                    else:
                        carry = child
    else:
        # a state reaches every column up to far: the next is the witness
        pt, mom = instance.samples[starts[far]]
        raise InfeasibleError(
            f"no extra set of size <= {cap} reaches pressure {r} "
            f"at point {pt} ({mom} moment)", witness=(pt, mom))

    spilled_mask = 0
    while entry is not None:
        spilled_mask |= entry[2]
        entry = entry[5]
    spilled = instance.decode(spilled_mask)
    return spill_solution(instance, spilled, pressure(instance, spilled, HOLES),
                          "dp-extra", steps)


def _subsets(pairs, size, cm):
    """(mask, weight, non-chads) of each `size`-subset of (bit, weight)
    pairs, where `cm` holds the column's chads."""
    out = []
    for combo in combinations(pairs, size):
        t = w = 0
        for b, x in combo:
            t |= b
            w += x
        out.append((t, w, (t & ~cm).bit_count()))
    return out
