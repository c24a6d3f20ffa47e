"""Ground-truth solvers: exhaustive search and pruned branch-and-bound.

Both accept every instance shape and both pressure modes; they are the
reference the polynomial solvers are tested against. Like every solver,
they refuse an instance that breaks a rule of strict SSA code
(Instance.problem), a negative register count, and hole semantics on a
range instance (Instance.chads), all before they search. Infeasibility (a
with-holes instance whose chad floor exceeds the target somewhere) is a
first-class result, not an error.

Branch-and-bound first drops dominated variables, deciding them as kept.
Row j is over when its pressure before any spill exceeds r, by over(j).
On a sound instance a chad lies where its variable is live, so a spill
lowers a row's pressure by one where the variable relieves it (live, not
a chad) and leaves it alone elsewhere. R(i) is the set of over rows that
variable i relieves and need(i) the largest over(j) in R(i), 0 when R(i)
is empty. Variables are totally ordered lighter first, then larger R,
then by the branching order. Variable a dominates i when R(a) contains
R(i) and a precedes i, and i is dropped when it has at least need(i)
dominators. This is exact. Take the feasible spill set S of least cost
and, among those, of least summed order positions, and suppose it spills
a dropped i. If a dominator a of i is kept, S - i + a raises no over
row's pressure (R(i) lies within R(a)) and lifts no other row above r,
costs no more and sits earlier in the order. Otherwise at least need(i) dominators are spilled with i, and each
relieves every row of R(i), so S - i still relieves each of those rows
enough and costs less, as weights are > 0. Either way S was not least, so
some least feasible set spills no dropped variable, and when no feasible
set exists, dropping changes nothing.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from math import lcm
from operator import itemgetter

from . import kernel
from .model import HOLES, bits, empty_solution, pressure, spill_solution

DEFAULT_ALL_CAP = 100_000
DEFAULT_NODE_BUDGET = 1_000_000


def encode(instance, mode):
    """The instance's kernel rows: (live masks, chad masks), bit i
    standing for the i-th sorted id.

    Rows are the sorted, deduplicated (live mask, chad mask) pairs of the
    samples, chad masks as Instance.chads(mode) gives them; identical
    pressure constraints contribute nothing new to feasibility.
    """
    rows = sorted(set(zip(instance.live_masks, instance.chads(mode))))
    return [lm for lm, _ in rows], [cm for _, cm in rows]


def brute_force(instance, r, mode):
    """Exhaustive minimum via the kernel's cost-ordered subset search;
    `steps` counts the spill subsets it tested. Raises MalformedCodeError
    on an instance that is not sound (Instance.problem), and SizeCapError
    past kernel.MAX_VARS variables."""
    instance.require_sound("brute_force")
    if r < 0:
        raise ValueError("register count r must be >= 0")
    n = instance.n_vars
    live, chad = encode(instance, mode)
    cost, mask, steps = kernel.sweep(n, instance.int_weights, live, chad, r,
                                     mode == HOLES)
    if cost is None:
        return empty_solution(instance, mode, "brute", steps, feasible=False)
    return spill_solution(instance, mask, pressure(instance, mask, mode),
                          "brute", steps)


def brute_force_all(instance, r, mode, all_cap=DEFAULT_ALL_CAP):
    """(optimal solution, every optimal spill set up to `all_cap` of them,
    truncated flag); ValueError on a cap below 1, before any search."""
    instance.require_sound("brute_force_all")
    if all_cap < 1:
        raise ValueError("all_cap must be >= 1")
    best = brute_force(instance, r, mode)
    if not best.feasible:
        return best, [], False
    live, chad = encode(instance, mode)
    masks, truncated = kernel.sweep_all(
        instance.n_vars, instance.int_weights, live, chad, r, mode == HOLES,
        int(best.cost * instance.scale), all_cap)
    return best, list(map(instance.decode, masks)), truncated


def verify(instance, spilled, r, mode):
    """Sample points where pressure still exceeds r; empty iff valid."""
    prof = pressure(instance, spilled, mode)
    return [(p, m, val) for (p, m), val in zip(prof.samples, prof.values) if val > r]


def _dominated(rows_of, need, row_vars, weights, rank):
    """Per variable, whether the search may decide it as kept before it
    branches (the module docstring states the rule and why it is exact).

    rows_of[i] is R(i), need[i] the most any row of R(i) is over r,
    row_vars[j] the variables relieving row j and rank[i] variable i's
    place in the branching order. Variables with the same R are taken
    together, and their outside dominators are those relieving all of
    R's rows: O(sum of |R(i)| * omega) in all.
    """
    def prec(i):
        return (weights[i], -len(rows_of[i]), rank[i])

    groups = {}
    for i, rs in enumerate(rows_of):
        groups.setdefault(tuple(rs), []).append(i)
    dropped = [False] * len(rows_of)
    for rs, members in groups.items():
        outside = set(row_vars[rs[0]]).intersection(
            *map(row_vars.__getitem__, rs[1:])) if rs else set()
        if len(outside) == 1:
            continue  # a lone variable that nothing else dominates
        outside.difference_update(members)
        members.sort(key=prec)
        before = sorted(map(prec, outside))
        # the k-th member is dominated by the k before it and by the
        # outside dominators that precede it
        needed = need[members[0]]
        for k, i in enumerate(members):
            if k + bisect_left(before, prec(i)) >= needed:
                dropped[i] = True
    return dropped


def branch_and_bound(instance, r, mode, node_budget=DEFAULT_NODE_BUDGET):
    """Exact search with an admissible disjoint-rows lower bound.

    Before it branches, the search decides as kept every variable with at
    least need(i) dominators: variables no heavier that relieve every over
    row it relieves (see the module docstring for the rule and why it
    keeps an optimum). It branches over the rest only, and `steps` counts
    its nodes.

    Matches brute_force wherever both run. On node-budget exhaustion the
    best incumbent is returned with proven_optimal=False instead of an
    error (an incumbent may simply not exist yet: feasible=False then).
    Raises MalformedCodeError on an instance that is not sound and
    ValueError on r < 0.
    """
    instance.require_sound("branch_and_bound")
    if r < 0:
        raise ValueError("register count r must be >= 0")
    n = instance.n_vars

    # Only the over rows (pressure above r before any spill) can fail, as
    # a spill never raises a row's pressure. rows_of[i] is R(i), the over
    # rows that variable i relieves (live there, not a chad); need[i] the
    # most any of them is over; row_vars[j] the variables relieving over
    # row j.
    int_weights = instance.int_weights
    rows_of = [[] for _ in range(n)]
    need = [0] * n
    row_vars = []
    row_chads = []
    for lm, cm in zip(*encode(instance, mode)):
        o = lm.bit_count() - r
        if o > 0:
            vs = list(bits(lm & ~cm))
            for b in vs:
                rows_of[b].append(len(row_vars))
                if o > need[b]:
                    need[b] = o
            row_vars.append(vs)
            row_chads.append(cm)

    # Cheap, high-relief variables first, by weight / |R| as the exact
    # integer weight * (lcm / |R|); the stable sort keeps ties in id order.
    scale = lcm(*filter(None, map(len, rows_of)))

    def sort_key(i):
        if not rows_of[i]:
            return (1, 0)
        return (0, int_weights[i] * (scale // len(rows_of[i])))

    # Bit i of the search stands for instance bit perm[i]: the nb branching
    # variables in branching order, then those decided as kept up front.
    # Renumbered rows stay distinct and are sorted again, as encode sorts
    # them, by the key live << n | chad.
    first = sorted(range(n), key=sort_key)
    rank = [0] * n
    for pos, i in enumerate(first):
        rank[i] = pos
    dropped = _dominated(rows_of, need, row_vars, int_weights, rank)
    perm = ([i for i in first if not dropped[i]]
            + [i for i in first if dropped[i]])
    nb = n - sum(dropped)
    branch = (1 << nb) - 1
    weights = [int_weights[i] for i in perm]
    to_new = [0] * n
    for new, old in enumerate(perm):
        to_new[old] = new
    new_bit = [1 << i for i in to_new]
    table = []
    for vs, cm in zip(row_vars, row_chads):
        u = sum(map(new_bit.__getitem__, vs))
        c = sum(map(new_bit.__getitem__, bits(cm)))
        table.append(((u | c) << n | c, u, c, vs))
    table.sort(key=itemgetter(0))
    keys = [key for key, _, _, _ in table]

    # Per over row j, kept up to date along the search path: over[j] is
    # its pressure less r given the spills decided so far, floor[j] its
    # least reachable pressure given the keeps (chads counted: a chad
    # adds 1 whether or not its variable is spilled), and free[j] how
    # many undecided variables can still relieve it. A row over r is dead
    # when floor > r or free < over; n_over and n_dead count the rows
    # over r and the dead ones. relieves[i]: the rows branching
    # variable i relieves; cheapest[j]: row j's relieving branching
    # variables, lightest first.
    relief = []
    over = []
    floor = []
    free = []
    relieves = [[] for _ in range(nb)]
    cheapest = []
    lighter = [w * n + i for i, w in enumerate(weights)]  # ties by index
    for j, (_, u, c, vs) in enumerate(table):
        relief.append(u)
        over.append(u.bit_count() + c.bit_count() - r)
        floor.append(c.bit_count() + (u >> nb).bit_count())
        light = [i for i in map(to_new.__getitem__, vs) if i < nb]
        free.append(len(light))
        for i in light:
            relieves[i].append(j)
        light.sort(key=lighter.__getitem__)
        cheapest.append(light)
    n_over = len(over)
    n_dead = sum(f > r or u < o for o, f, u in zip(over, floor, free))

    def move(rows, dover, dfloor, dfree):
        nonlocal n_over, n_dead
        for j in rows:
            o, f, u = over[j], floor[j], free[j]
            if o > 0:
                n_over -= 1
                n_dead -= f > r or u < o
            o += dover
            f += dfloor
            u += dfree
            over[j], floor[j], free[j] = o, f, u
            if o > 0:
                n_over += 1
                n_dead += f > r or u < o

    def lower_bound(idx):
        """Sum over pairwise-disjoint over rows (taken greedily in row
        order) of the cheapest undecided relief each still needs. Rows
        with every variable decided sort first and hold no relief."""
        undec = branch >> idx << idx
        lb = 0
        used = 0
        for o, u, light in islice(zip(over, relief, cheapest),
                                  bisect_left(keys, 1 << (idx + n)), None):
            if o <= 0:
                continue
            u &= undec
            if u & used:
                continue
            used |= u
            for b in light:
                if b >= idx:
                    lb += weights[b]
                    o -= 1
                    if not o:
                        break
        return lb

    best_cost = None
    best_mask = 0
    steps = 0
    budget_hit = False
    depth = 0  # variables decided in the per-row state

    # Depth-first over (next variable, spilled mask, cost); the keep child
    # is pushed first so the spill child is searched first. An explicit
    # stack keeps the depth (one level per variable) off the call stack.
    # A spill child is popped right after its parent. A keep child comes
    # after its spill sibling's subtree, whose last node decided every
    # variable below the sibling as a keep: undo those, then switch.
    stack = [(0, 0, 0)]
    while stack:
        idx, spilled, cost = stack.pop()
        steps += 1
        if steps > node_budget:
            budget_hit = True
            break
        if idx:
            while depth > idx:  # take back a keep
                depth -= 1
                move(relieves[depth], 0, -1, 1)
            i = idx - 1
            if depth == idx:  # switch a spill to a keep
                move(relieves[i], 1, 1, 0)
            else:  # spill
                move(relieves[i], -1, 0, -1)
                depth = idx
        if n_dead:
            continue
        if (best_cost is not None
                and cost + (n_over and lower_bound(idx)) >= best_cost):
            continue
        if not n_over:
            # keeping every undecided variable completes this node optimally
            best_cost = cost
            best_mask = spilled
            continue
        if idx == nb:
            continue
        stack.append((idx + 1, spilled, cost))
        stack.append((idx + 1, spilled | 1 << idx, cost + weights[idx]))

    if best_cost is None:
        return empty_solution(instance, mode, "bnb", steps, feasible=False,
                              proven=not budget_hit)
    spilled = sum(1 << perm[b] for b in bits(best_mask))
    return spill_solution(instance, spilled, pressure(instance, spilled, mode),
                          "bnb", steps, proven=not budget_hit)
