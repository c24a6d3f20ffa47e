"""Fixed-register dynamic programs over the dominance tree.

State at a sample point: the *kept* subset of its live set (a fitting
set). Bottom-up, each parent state combines, per child, the best child
state that agrees with it on the variables they share; live ranges are
connected subtrees, so children's private variables never interact.
With holes the fitting predicate additionally counts the chads of
everything spilled, which only shrinks the state families.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .errors import BudgetExceededError, InfeasibleError, UnsupportedModeError
from .model import (HOLES, NOHOLES, bits, empty_solution, pressure,
                    spill_solution)

DEFAULT_STATE_BUDGET = 10_000_000


def _sample_children(instance):
    """Child lists over sample indices: (p,use)->(p,def)->(c,use)...;
    (p, USE) is sample 2 * point_pos[p] and (p, DEF) the one after it."""
    pos = instance.point_pos
    children = [[] for _ in instance.samples]
    for p in instance.point_order:
        u = 2 * pos[p]
        children[u].append(u + 1)
        for c in instance.children.get(p, ()):
            children[u + 1].append(2 * pos[c])
    return children


def _solve_fitting(instance, k, holes, state_budget):
    what = "fitting_set_dp_holes" if holes else "fitting_set_dp"
    instance.require_sound(what)
    if k < 0:
        raise ValueError("register count k must be >= 0")
    if holes and not instance.code_backed:
        raise UnsupportedModeError(f"{what} needs a code-backed instance (chads)")
    mode = HOLES if holes else NOHOLES
    algo = "dp-fit-holes" if holes else "dp-fit"

    if instance.omega <= k:
        return empty_solution(instance, mode, algo)

    if holes:
        for (pt, mom), chads in zip(instance.samples, instance.chad_masks):
            if chads.bit_count() > k:
                raise InfeasibleError(
                    f"even the full spill leaves pressure {chads.bit_count()} > {k} "
                    f"at point {pt} ({mom} moment)", witness=(pt, mom))

    w = instance.int_weights
    children = _sample_children(instance)
    live = instance.live_masks
    chad = instance.chad_masks
    steps = 0
    work = 0  # candidate fitting sets charged against state_budget

    # tables[i]: {kept mask -> (kept weight, backptrs)}; backptrs pair
    # child sample index with the chosen child state.
    tables = [None] * len(instance.samples)
    for i in reversed(range(len(instance.samples))):
        # per child: shared kept mask -> (best child state, its kept
        # weight less the shared part, which the parent state counts)
        groups = []
        for c in children[i]:
            g = {}
            for fc, (cost_c, _) in tables[c].items():
                key = fc & live[i]
                extra = cost_c - instance.int_weight(key)
                cur = g.get(key)
                if cur is None or extra > cur[1]:
                    g[key] = (fc, extra)
            groups.append((c, g))

        table = {}
        universe = [(1 << b, w[b]) for b in bits(live[i])]
        sizes = range(min(k, len(universe)) + 1)
        work += sum(comb(len(universe), size) for size in sizes)
        if work > state_budget:
            raise BudgetExceededError(
                f"fitting-set DP exceeded its budget of {state_budget} "
                "candidate sets; use weighted_optimal for linear instances "
                "or the exact oracle")
        for size in sizes:
            for combo in combinations(universe, size):
                steps += 1
                f = cost = 0
                for b, wb in combo:
                    f |= b
                    cost += wb
                if holes and size + (chad[i] & ~f).bit_count() > k:
                    continue
                back = []
                dead = False
                for c, g in groups:
                    steps += 1
                    hit = g.get(f & live[c])
                    if hit is None:
                        dead = True
                        break
                    fc, extra = hit
                    cost += extra
                    back.append((c, fc))
                if dead:
                    continue
                table[f] = (cost, tuple(back))
        if not table:
            pt, mom = instance.samples[i]
            raise InfeasibleError(
                f"no fitting set admits a consistent completion at point {pt} "
                f"({mom} moment)", witness=(pt, mom))
        tables[i] = table

    root = tables[0]
    kept = 0
    stack = [(0, max(root, key=lambda f: root[f][0]))]  # first heaviest
    while stack:
        i, f = stack.pop()
        kept |= f
        for c, fc in tables[i][f][1]:
            stack.append((c, fc))
    spilled = instance.decode((1 << instance.n_vars) - 1 & ~kept)
    return spill_solution(instance, spilled, pressure(instance, spilled, mode),
                          algo, steps)


def fitting_set_dp(instance, k, state_budget=DEFAULT_STATE_BUDGET):
    """Minimum-weight spill set with Maxlive <= k, without holes.

    Works on trees and linear codes alike (a chain is a tree); exact for
    any chordal instance of this toolkit. `state_budget` caps work: the
    candidate fitting sets of every sample are charged against it before
    they are enumerated, and BudgetExceededError is raised past it.
    Raises MalformedCodeError on an instance that is not sound
    (Instance.problem): weights not > 0, points that are not one tree, a
    range that is not connected, or a chad where its variable is not live.
    """
    return _solve_fitting(instance, k, holes=False, state_budget=state_budget)


def fitting_set_dp_holes(instance, k, state_budget=DEFAULT_STATE_BUDGET):
    """As fitting_set_dp, under hole semantics (spilled uses/defs still
    occupy a register at their instruction); `state_budget` caps work
    and unsound instances are refused the same way."""
    return _solve_fitting(instance, k, holes=True, state_budget=state_budget)
