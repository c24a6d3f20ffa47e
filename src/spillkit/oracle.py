"""Ground-truth solvers: exhaustive sweep and pruned branch-and-bound.

Both accept every instance shape and both pressure modes; they are the
reference the polynomial solvers are tested against. Infeasibility (a
with-holes instance whose chad floor exceeds the target somewhere) is a
first-class result, not an error.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat

from . import kernel
from .errors import SizeCapError
from .model import HOLES, MaskView, SpillSolution, bits, check_mode, pressure

DEFAULT_CAP = 20
DEFAULT_ALL_CAP = 100_000
DEFAULT_NODE_BUDGET = 1_000_000


def encode(instance, mode, order=None):
    """The instance's mask view and its kernel rows: (view, live masks,
    chad masks), bits in `order` (default: sorted ids).

    Rows are the sorted, deduplicated (live mask, chad mask) pairs of the
    samples, chad masks 0 without holes; identical pressure constraints
    contribute nothing new to feasibility.
    """
    check_mode(mode)
    view = MaskView(instance, order)
    chad = view.chad() if mode == HOLES else repeat(0)
    rows = sorted(set(zip(view.live(), chad)))
    return view, [lm for lm, _ in rows], [cm for _, cm in rows]


def _solution(instance, spilled, mode, algorithm, steps, proven=True):
    return SpillSolution(
        spilled=spilled,
        cost=instance.cost_of(spilled),
        achieved_omega=pressure(instance, spilled, mode).max_pressure,
        algorithm=algorithm,
        steps=steps,
        mode=mode,
        feasible=True,
        proven_optimal=proven,
    )


def _infeasible(instance, mode, algorithm, steps, proven=True):
    return SpillSolution(
        spilled=frozenset(), cost=None, achieved_omega=None,
        algorithm=algorithm, steps=steps, mode=mode,
        feasible=False, proven_optimal=proven,
    )


def brute_force(instance, r, mode, cap=DEFAULT_CAP):
    """Exhaustive minimum: scans all 2^n spill subsets via the kernel."""
    n = instance.n_vars
    if n > cap:
        raise SizeCapError(n, cap)
    view, live, chad = encode(instance, mode)
    holes = mode == HOLES
    cost, mask = kernel.sweep(n, view.weights, live, chad, r, holes)
    steps = 1 << n
    if cost is None:
        return _infeasible(instance, mode, "brute", steps)
    return _solution(instance, view.decode(mask), mode, "brute", steps)


def brute_force_all(instance, r, mode, cap=DEFAULT_CAP, all_cap=DEFAULT_ALL_CAP):
    """(optimal solution, every optimal spill set, truncated flag)."""
    n = instance.n_vars
    if n > cap:
        raise SizeCapError(n, cap)
    view, live, chad = encode(instance, mode)
    holes = mode == HOLES
    cost, mask = kernel.sweep(n, view.weights, live, chad, r, holes)
    if cost is None:
        return _infeasible(instance, mode, "brute", 1 << n), [], False
    masks, truncated = kernel.sweep_all(n, view.weights, live, chad, r, holes,
                                        cost, all_cap)
    best = _solution(instance, view.decode(mask), mode, "brute", 1 << n)
    return best, [view.decode(m) for m in masks], truncated


def verify(instance, spilled, r, mode):
    """Sample points where pressure still exceeds r; empty iff valid."""
    prof = pressure(instance, spilled, mode)
    return [(p, m, val) for (p, m), val in zip(prof.samples, prof.values) if val > r]


def branch_and_bound(instance, r, mode, node_budget=DEFAULT_NODE_BUDGET):
    """Exact search with an admissible disjoint-rows lower bound.

    Matches brute_force wherever both run. On node-budget exhaustion the
    best incumbent is returned with proven_optimal=False instead of an
    error (an incumbent may simply not exist yet: feasible=False then).
    """
    check_mode(mode)
    holes = mode == HOLES
    n = instance.n_vars

    # Cheap, high-relief variables first (relief = live and chad-free rows
    # that are over-pressured before any spilling).
    view0, live0, chad0 = encode(instance, mode)
    base_order = view0.order
    over0 = [j for j, lm in enumerate(live0) if lm.bit_count() > r]

    def sort_key(i):
        b = 1 << i
        cov = sum(1 for j in over0 if live0[j] & b and not chad0[j] & b)
        if cov == 0:
            return (1, Fraction(0), base_order[i])
        return (0, Fraction(view0.weights[i], cov), base_order[i])

    order = [base_order[i] for i in sorted(range(n), key=sort_key)]
    view, live, chad = encode(instance, mode, order)
    weights = view.weights
    rows = list(range(len(live)))
    full = (1 << n) - 1

    best_cost = None
    best_mask = 0
    steps = 0
    budget_hit = False

    def bound_and_over(spilled, kept):
        """(infeasible, lower bound, any over row) for the current node."""
        undec = full & ~spilled & ~kept
        lb = 0
        used = 0
        any_over = False
        for j in rows:
            lm = live[j]
            cur = (lm & ~spilled).bit_count()
            if holes:
                cur += (chad[j] & spilled).bit_count()
            over = cur - r
            if over <= 0:
                continue
            any_over = True
            floor = (lm & kept).bit_count()
            if holes:
                floor += (chad[j] & ~kept).bit_count()
            if floor > r:
                return True, 0, True
            u = undec & lm
            if holes:
                u &= ~chad[j]
            if u.bit_count() < over:
                return True, 0, True
            if u & used == 0:
                ws = sorted(weights[b] for b in bits(u))
                lb += sum(ws[:over])
                used |= u
        return False, lb, any_over

    # Depth-first over (next variable, spilled mask, cost); the keep child
    # is pushed first so the spill child is searched first. An explicit
    # stack keeps the depth (one level per variable) off the call stack.
    stack = [(0, 0, 0)]
    while stack:
        idx, spilled, cost = stack.pop()
        steps += 1
        if steps > node_budget:
            budget_hit = True
            break
        kept = ~spilled & ((1 << idx) - 1)
        dead, lb, any_over = bound_and_over(spilled, kept)
        if dead:
            continue
        if best_cost is not None and cost + lb >= best_cost:
            continue
        if not any_over:
            # keeping every undecided variable completes this node optimally
            best_cost = cost
            best_mask = spilled
            continue
        if idx == n:
            continue
        stack.append((idx + 1, spilled, cost))
        stack.append((idx + 1, spilled | 1 << idx, cost + weights[idx]))

    if best_cost is None:
        return _infeasible(instance, mode, "bnb", steps, proven=not budget_hit)
    spilled = view.decode(best_mask)
    return _solution(instance, spilled, mode, "bnb", steps, proven=not budget_hit)
