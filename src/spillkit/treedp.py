"""Fixed-register dynamic programs over the dominance tree.

The DPs run on the tree of samples that Instance.up gives (a block's
samples form a chain). State at a sample: the *kept* subset of its live
set (a fitting set), an integer mask in a table of kept mask -> kept
weight at and below the sample. The state budget is charged for all
samples before one pass, from the last sample to the first, builds the
tables. In preorder, i's first child is i + 1 exactly when up[i + 1] is
i: i extends that child's best state per shared mask with the variables
new at i, and keeps those that every later child's best state agrees
with (live ranges are connected subtrees, so children's private
variables never interact). A child whose live variables are all live at
i passes its table up. A child's table is dropped once i has used it,
so only later children waiting for their parent hold one. The answer is
read back top-down in preorder through one projection per child. Equal
weights go to fewer variables, then to the state holding the lowest
variable they differ in. With holes the fitting predicate also counts
the chads of everything spilled, which only shrinks the state families.
"""

from __future__ import annotations

from functools import cache
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

    if holes and max(map(int.bit_count, chad)) > k:  # the chad floor
        i = next(i for i, ch in enumerate(chad) if ch.bit_count() > k)
        pt, mom = instance.samples[i]
        raise InfeasibleError(
            f"even the full spill leaves pressure {chad[i].bit_count()} > {k} "
            f"at point {pt} ({mom} moment)", witness=(pt, mom))

    up, live, n = instance.up, instance.live_masks, len(instance.samples)
    charge = [sum(comb(m, size) for size in range(min(k, m) + 1))
              for m in range(instance.omega + 1)]  # per live-set size
    if sum(map(charge.__getitem__, map(int.bit_count, live))) > state_budget:
        raise BudgetExceededError(
            f"fitting-set DP exceeded its budget of {state_budget} "
            "candidate sets; use weighted_optimal for linear instances "
            "or the exact oracle")
    weight = cache(instance.int_weight)  # kept mask -> scaled weight

    # table: {kept mask -> kept weight} of the sample just built; proj[c]:
    # None if c passes its table up, else {shared mask -> c's kept mask};
    # waiting: parent -> [(c, c's table)] of its later children, last first
    proj, waiting, table, steps = [None] * n, {}, None, 0
    for i in reversed(range(n)):
        li = live[i]
        if i + 1 < n and up[i + 1] == i:  # i + 1 is i's first child
            lc = live[i + 1]
            if lc & ~li:
                proj[i + 1], table = _best(table, li)
            new = li & ~lc
        else:
            table, new = {0: 0}, li
        if new & new - 1:  # extend by each set of new variables that fits
            grow = [(f, cost) for f, cost in table.items() if f.bit_count() < k]
            for b in bits(new):  # each pass makes only states not yet made
                one, w = 1 << b, instance.int_weights[b]
                more = [(f | one, cost + w) for f, cost in grow]
                table.update(more)
                grow += [fc for fc in more if fc[0].bit_count() < k]
        elif new:  # one new variable: one dict merge
            w = instance.int_weights[new.bit_length() - 1]
            table.update({f | new: cost + w for f, cost in table.items()
                          if f.bit_count() < k})
        if ch := chad[i]:
            table = {f: cost for f, cost in table.items()
                     if (f | ch).bit_count() <= k}
        steps += len(table)
        for c, top in reversed(waiting.pop(i, ())):
            if (lc := live[c]) & ~li:
                proj[c], top = _best(top, li)
            # add c's kept weight less the shared part, counted already
            extra = {key: cost - weight(key) for key, cost in top.items()}
            steps += len(table)
            table = {f: cost + e for f, cost in table.items()
                     if (e := extra.get(f & lc)) is not None}
        # never empty: past the chad floor, kept mask 0 fits every sample
        # and is in every child's table, so it survives each step
        if i and up[i] != i - 1:
            waiting.setdefault(up[i], []).append((i, table))

    # top-down in preorder; a child that passed its table up keeps its
    # parent's f, whose bits not live at the child are live nowhere below
    f = [_best(table, 0)[0][0]] * n  # the best state at the root
    kept = f[0]
    for c in range(1, n):
        p = proj[c]
        f[c] = fc = f[up[c]] if p is None else p[f[up[c]] & live[c]]
        kept |= fc
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
