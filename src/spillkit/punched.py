"""Left-to-right DP on spilled variables: holes, target Maxlive - k.

State at a sample: the set of spilled variables live there (an extra
set). In any optimal solution that set never exceeds 2(h+k) variables:
inside a maximal stretch where more than h+k spilled variables are live,
a wholly-contained spilled variable could be unspilled and still fit,
contradicting optimality, so every spilled variable crosses one of the
two boundaries and each side contributes at most h+k. The cardinality
cap therefore preserves exactness while keeping the state family
polynomial for fixed h and k.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .errors import BudgetExceededError, InfeasibleError, WrongShapeError
from .model import (HOLES, LINEAR, MaskView, SpillSolution, bits, pressure,
                    run_starts)

DEFAULT_STATE_BUDGET = 10_000_000


def extra_set_dp(instance, k, state_budget=DEFAULT_STATE_BUDGET):
    """Minimum-weight spill set with l'(p) <= Maxlive - k under holes.

    `state_budget` caps work: the candidate extra sets of every column
    are charged against it before they are enumerated, and
    BudgetExceededError is raised past it.
    """
    if instance.shape != LINEAR:
        raise WrongShapeError("extra_set_dp handles linear codes only")
    if not instance.code_backed:
        raise WrongShapeError("extra_set_dp needs a code-backed instance")
    if k < 1:
        raise ValueError("decrement k must be >= 1")

    omega = instance.omega
    r = omega - k
    cap = 2 * (instance.h + k)
    view = MaskView(instance)
    live, chad = view.live(), view.chad()

    steps = 0
    work = 0  # candidate extra sets charged against state_budget
    layers = []  # per column: {state mask -> (cost, prev state mask)}
    prev_live = 0
    prev_layer = {}
    first = True
    # Runs of identical (live, chad) columns are visited once; the
    # matching constraint between equal columns is the identity.
    for i in run_starts(list(zip(live, chad))):
        lm, cm = live[i], chad[i]
        need = lm.bit_count() - r  # minimum relief this column requires
        groups = {}
        if not first:
            for state, (cost, _) in prev_layer.items():
                steps += 1
                key = state & lm
                cur = groups.get(key)
                if cur is None or cost < cur[0]:
                    groups[key] = (cost, state)
        universe = [1 << b for b in bits(lm)]
        sizes = range(max(0, need), min(cap, len(universe)) + 1)
        work += sum(comb(len(universe), size) for size in sizes)
        if work > state_budget:
            raise BudgetExceededError(
                f"extra-set DP exceeded its budget of {state_budget} "
                f"candidate sets (cap {cap} over {len(view.order)} variables); "
                "use the exact oracle")
        layer = {}
        for size in sizes:
            for combo in combinations(universe, size):
                steps += 1
                e = sum(combo)
                if (e & ~cm).bit_count() < need:
                    continue
                if first:
                    layer[e] = (view.weight(e), None)
                else:
                    hit = groups.get(e & prev_live)
                    if hit is None:
                        continue
                    cost0, pstate = hit
                    layer[e] = (cost0 + view.weight(e & ~prev_live), pstate)
        if not layer:
            pt, mom = instance.samples[i]
            raise InfeasibleError(
                f"no extra set of size <= {cap} reaches pressure {r} "
                f"at point {pt} ({mom} moment)", witness=(pt, mom))
        layers.append(layer)
        prev_layer = layer
        prev_live = lm
        first = False

    spilled_mask = 0
    state = min(prev_layer, key=lambda e: prev_layer[e][0])  # first cheapest
    for layer in reversed(layers):
        spilled_mask |= state
        state = layer[state][1]
    spilled = view.decode(spilled_mask)
    return SpillSolution(
        spilled=spilled,
        cost=instance.cost_of(spilled),
        achieved_omega=pressure(instance, spilled, HOLES).max_pressure,
        algorithm="dp-extra",
        steps=steps,
        mode=HOLES,
    )
