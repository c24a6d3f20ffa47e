"""Fixed-register dynamic programs over the dominance tree.

The DPs run on the tree of samples that Instance.up gives (a block's
samples form a chain). State at a sample: the *kept* subset of its live
set (a fitting set), an integer mask in a table of kept mask -> kept
weight at and below the sample. Bottom-up, a sample's states extend its
first child's best state per shared mask with the variables live at the
sample and not at that child, and keep those that every further child's
best state agrees with; live ranges are connected subtrees, so
children's private variables never interact. A child whose live
variables are all live at its parent passes its own table up. Equal
weights go to fewer variables, then to the state holding the lowest
variable they differ in. With holes the fitting predicate also counts
the chads of everything spilled, which only shrinks the state families.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb

from .errors import BudgetExceededError, InfeasibleError
from .model import (HOLES, NOHOLES, bits, empty_solution, pressure,
                    spill_solution)

DEFAULT_STATE_BUDGET = 10_000_000


def _first(a, b):
    """Whether kept mask a precedes b among equal costs: fewer variables,
    then the one holding the lowest variable they differ in."""
    na, nb = a.bit_count(), b.bit_count()
    d = a ^ b
    return na < nb if na != nb else bool(d & -d & a)


def _best(table, mask):
    """Per shared mask (kept mask & `mask`), the heaviest kept mask of
    `table`, ties to the _first one, and its cost."""
    best, top = {}, {}
    for f, cost in table.items():
        key = f & mask
        cur = top.get(key)
        if cur is None or cost > cur or cost == cur and _first(f, best[key]):
            best[key], top[key] = f, cost
    return best, top


def _solve_fitting(instance, k, holes, state_budget):
    what = "fitting_set_dp_holes" if holes else "fitting_set_dp"
    instance.require_sound(what)
    if k < 0:
        raise ValueError("register count k must be >= 0")
    mode = HOLES if holes else NOHOLES
    chad = instance.chads(mode)
    algo = "dp-fit-holes" if holes else "dp-fit"

    if instance.omega <= k:
        return empty_solution(instance, mode, algo)

    if holes:  # the chad floor
        for (pt, mom), ch in zip(instance.samples, chad):
            if ch.bit_count() > k:
                raise InfeasibleError(
                    f"even the full spill leaves pressure {ch.bit_count()} > {k} "
                    f"at point {pt} ({mom} moment)", witness=(pt, mom))

    live = instance.live_masks
    below = [[] for _ in live]  # per sample, the samples just below it
    for i, u in enumerate(instance.up[1:], 1):  # sample 0 is the root
        below[u].append(i)
    weight = cache(instance.int_weight)  # kept mask -> scaled weight
    charge = [sum(comb(n, size) for size in range(min(k, n) + 1))
              for n in range(instance.omega + 1)]  # per live-set size
    steps = work = 0  # work: candidate fitting sets charged to state_budget

    # tables[i]: {kept mask -> kept weight}; down[i]: per child c, None if c
    # keeps f & live[c] of i's kept f, else {f & live[c] -> c's kept mask}
    tables = [None] * len(instance.samples)
    down = [None] * len(instance.samples)
    for i in reversed(range(len(instance.samples))):
        work += charge[live[i].bit_count()]
        if work > state_budget:
            raise BudgetExceededError(
                f"fitting-set DP exceeded its budget of {state_budget} "
                "candidate sets; use weighted_optimal for linear instances "
                "or the exact oracle")
        kids = below[i]
        if kids:
            # the first child's best state per shared mask (f & live[i]),
            # or its own table if all its live variables are live at i
            c = kids[0]
            best, table = ((None, tables[c]) if not live[c] & ~live[i]
                           else _best(tables[c], live[i]))
            new = live[i] & ~live[c]
            down[i] = [(c, best)]
        else:
            table, new, down[i] = {0: 0}, live[i], []
        if new:  # extend by each set of variables new at i that fits
            ones = [1 << b for b in bits(new)]
            wts = [instance.int_weights[m.bit_length() - 1] for m in ones]
            by_size = [list(zip(map(sum, combinations(ones, s)),
                                map(sum, combinations(wts, s))))
                       for s in range(min(k, len(ones)) + 1)]
            table = {key | g: cost + wg for key, cost in table.items()
                     for part in by_size[:k + 1 - key.bit_count()]
                     for g, wg in part}
        if ch := chad[i]:
            table = {f: cost for f, cost in table.items()
                     if f.bit_count() + (ch & ~f).bit_count() <= k}
        steps += len(table)
        for c in kids[1:]:
            best, top = ((None, tables[c]) if not live[c] & ~live[i]
                         else _best(tables[c], live[i]))
            down[i].append((c, best))
            # add c's kept weight less the shared part, counted already
            extra = {key: cost - weight(key) for key, cost in top.items()}
            lc = live[c]
            steps += len(table)
            table = {f: cost + e for f, cost in table.items()
                     if (e := extra.get(f & lc)) is not None}
        # never empty: past the chad floor, kept mask 0 fits every sample
        # and is in every child's table, so it survives each step
        tables[i] = table

    kept = 0
    stack = [(0, _best(tables[0], 0)[0][0])]  # the best state at the root
    while stack:
        i, f = stack.pop()
        kept |= f
        stack.extend((c, f & live[c] if best is None else best[f & live[c]])
                     for c, best in down[i])
    spilled = instance.decode((1 << instance.n_vars) - 1 & ~kept)
    return spill_solution(instance, spilled, pressure(instance, spilled, mode),
                          algo, steps)


def fitting_set_dp(instance, k, state_budget=DEFAULT_STATE_BUDGET):
    """Minimum-weight spill set with Maxlive <= k, without holes.

    Works on trees and linear codes alike (a chain is a tree); exact for
    any chordal instance of this toolkit. Among optima of equal weight,
    each sample top-down keeps the state with fewer variables, then the
    one holding the lowest variable they differ in. `state_budget` caps
    work: the candidate fitting sets of every sample are charged against
    it before its states are built, and BudgetExceededError is raised past
    it. `steps` counts the states built and the child states looked up.
    Raises MalformedCodeError on an instance that is not sound
    (Instance.problem, the first rule of strict SSA code it breaks).
    """
    return _solve_fitting(instance, k, holes=False, state_budget=state_budget)


def fitting_set_dp_holes(instance, k, state_budget=DEFAULT_STATE_BUDGET):
    """As fitting_set_dp, under hole semantics (spilled uses/defs still
    occupy a register at their instruction); `state_budget` caps work
    and unsound instances are refused the same way."""
    return _solve_fitting(instance, k, holes=True, state_budget=state_budget)
