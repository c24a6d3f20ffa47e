"""Ground-truth solvers: exhaustive search and pruned branch-and-bound.

Both accept every instance shape and both pressure modes; they are the
reference the polynomial solvers are tested against. Like every solver,
they refuse an instance that construction records as unsound
(Instance.problem). Infeasibility (a with-holes instance whose chad
floor exceeds the target somewhere) is a first-class result, not an
error.
"""

from __future__ import annotations

from itertools import repeat
from math import lcm

from . import kernel
from .errors import SizeCapError
from .model import (HOLES, bits, check_mode, empty_solution, pressure,
                    spill_solution)

DEFAULT_CAP = 20
DEFAULT_ALL_CAP = 100_000
DEFAULT_NODE_BUDGET = 1_000_000


def encode(instance, mode):
    """The instance's kernel rows: (live masks, chad masks), bit i
    standing for the i-th sorted id.

    Rows are the sorted, deduplicated (live mask, chad mask) pairs of the
    samples, chad masks 0 without holes; identical pressure constraints
    contribute nothing new to feasibility.
    """
    check_mode(mode)
    chad = instance.chad_masks if mode == HOLES else repeat(0)
    rows = sorted(set(zip(instance.live_masks, chad)))
    return [lm for lm, _ in rows], [cm for _, cm in rows]


def brute_force(instance, r, mode, cap=DEFAULT_CAP):
    """Exhaustive minimum via the kernel's cost-ordered subset search;
    `steps` counts the spill subsets it tested. Raises MalformedCodeError
    on an instance that is not sound (Instance.problem)."""
    instance.require_sound("brute_force")
    n = instance.n_vars
    if n > cap:
        raise SizeCapError(n, cap)
    live, chad = encode(instance, mode)
    cost, mask, steps = kernel.sweep(n, instance.int_weights, live, chad, r,
                                     mode == HOLES)
    if cost is None:
        return empty_solution(instance, mode, "brute", steps, feasible=False)
    spilled = instance.decode(mask)
    return spill_solution(instance, spilled, pressure(instance, spilled, mode),
                          "brute", steps)


def brute_force_all(instance, r, mode, cap=DEFAULT_CAP, all_cap=DEFAULT_ALL_CAP):
    """(optimal solution, every optimal spill set, truncated flag)."""
    instance.require_sound("brute_force_all")
    best = brute_force(instance, r, mode, cap)
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


def branch_and_bound(instance, r, mode, node_budget=DEFAULT_NODE_BUDGET):
    """Exact search with an admissible disjoint-rows lower bound.

    Matches brute_force wherever both run. On node-budget exhaustion the
    best incumbent is returned with proven_optimal=False instead of an
    error (an incumbent may simply not exist yet: feasible=False then).
    Raises MalformedCodeError on an instance that is not sound.
    """
    instance.require_sound("branch_and_bound")
    check_mode(mode)
    n = instance.n_vars

    # Cheap, high-relief variables first (relief = live and chad-free rows
    # that are over-pressured before any spilling), by weight / relief as
    # the exact integer weight * (lcm / relief).
    live, chad = encode(instance, mode)
    ids, int_weights = instance.var_ids, instance.int_weights
    cover = [0] * n
    for lm, cm in zip(live, chad):
        if lm.bit_count() > r:
            for b in bits(lm & ~cm):
                cover[b] += 1
    scale = lcm(*filter(None, cover))

    def sort_key(i):
        if cover[i] == 0:
            return (1, 0, ids[i])
        return (0, int_weights[i] * (scale // cover[i]), ids[i])

    # bit i of the search stands for variable order[i]; renumbered rows
    # stay distinct and are sorted again, as encode sorts them, by the
    # key live << n | chad
    perm = sorted(range(n), key=sort_key)
    order = [ids[i] for i in perm]
    weights = [int_weights[i] for i in perm]
    to_new = [0] * n
    for new, old in enumerate(perm):
        to_new[old] = new
    keys = []
    cols = []  # per row, the new indices of its live or chad bits
    for lm, cm in zip(live, chad):
        key = 0
        col = []
        for b in bits(lm | cm):
            i = to_new[b]
            key |= (lm >> b & 1) << (i + n) | (cm >> b & 1) << i
            col.append(i)
        keys.append(key)
        cols.append(col)
    by_key = sorted(range(len(keys)), key=keys.__getitem__)
    full = (1 << n) - 1
    live = [keys[k] >> n for k in by_key]
    chad = [keys[k] & full for k in by_key]

    # Per row j, kept up to date along the search path: over[j] is its
    # pressure less r given the spills decided so far, floor[j] its least
    # reachable pressure given the keeps (undecided chads counted), and
    # free[j] how many undecided variables can still relieve it (live,
    # chad-free). An over row is dead when floor > r or free < over;
    # n_over and n_dead count them.
    relief = [lm & ~cm for lm, cm in zip(live, chad)]
    over = [lm.bit_count() - r for lm in live]
    floor = [cm.bit_count() for cm in chad]
    free = [u.bit_count() for u in relief]
    n_over = sum(o > 0 for o in over)
    n_dead = sum(o > 0 and (f > r or u < o)
                 for o, f, u in zip(over, floor, free))
    # Per variable, the rows where it relieves (live, no chad) and where
    # it only adds a chad; a live chad changes neither pressure nor floor.
    # cheapest[j]: row j's relieving variables, lightest first.
    relieves = [[] for _ in range(n)]
    burdens = [[] for _ in range(n)]
    cheapest = []
    for j, k in enumerate(by_key):
        for i in cols[k]:
            if relief[j] >> i & 1:
                relieves[i].append(j)
            elif not live[j] >> i & 1:
                burdens[i].append(j)
        cheapest.append(sorted(bits(relief[j]), key=weights.__getitem__))

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
        order) of the cheapest undecided relief each still needs."""
        undec = full >> idx << idx
        lb = 0
        used = 0
        for o, u, light in zip(over, relief, cheapest):
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
                if burdens[depth]:
                    move(burdens[depth], 0, 1, 0)
            i = idx - 1
            if depth == idx:  # switch a spill to a keep
                move(relieves[i], 1, 1, 0)
                if burdens[i]:
                    move(burdens[i], -1, -1, 0)
            else:  # spill
                move(relieves[i], -1, 0, -1)
                if burdens[i]:
                    move(burdens[i], 1, 0, 0)
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
        if idx == n:
            continue
        stack.append((idx + 1, spilled, cost))
        stack.append((idx + 1, spilled | 1 << idx, cost + weights[idx]))

    if best_cost is None:
        return empty_solution(instance, mode, "bnb", steps, feasible=False,
                              proven=not budget_hit)
    spilled = frozenset(map(order.__getitem__, bits(best_mask)))
    return spill_solution(instance, spilled, pressure(instance, spilled, mode),
                          "bnb", steps, proven=not budget_hit)
