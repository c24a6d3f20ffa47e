import hashlib
from itertools import combinations
from math import comb

import pytest

from spillkit.errors import (
    BudgetExceededError,
    InfeasibleError,
    MalformedCodeError,
    SpillkitError,
    UnsupportedModeError,
)
from spillkit.intervals import weighted_optimal
from spillkit.model import (
    HOLES,
    LINEAR,
    NOHOLES,
    TREE,
    Instance,
    Instruction,
    Point,
    pressure,
)
from spillkit import treedp
from spillkit.oracle import brute_force, verify
from spillkit.treedp import fitting_set_dp, fitting_set_dp_holes

from builders import (
    chain_tree_code,
    random_linear_block,
    random_linear_code,
    random_linear_ranges,
    random_tree_code,
    random_tree_ranges,
    seeded,
    within,
)


def _wide_column():
    ranges = {f"v{i}": [1, 2] for i in range(40)}
    return Instance.from_ranges(LINEAR, [Point(1), Point(2)], ranges,
                                {v: 1 for v in ranges})


class TestFittingSetDp:
    def test_two_spanning_variables(self):
        pts = [Point(1), Point(2, 1), Point(3, 1)]
        inst = Instance.from_ranges(TREE, pts,
                                    {"x": [1, 2, 3], "y": [1, 2, 3]},
                                    {"x": 3, "y": 5})
        sol = fitting_set_dp(inst, 1)
        assert sol.spilled == {"x"} and sol.cost == 3

    def test_trivial_when_omega_fits(self):
        pts = [Point(1), Point(2, 1)]
        inst = Instance.from_ranges(TREE, pts, {"x": [1, 2]}, {"x": 2})
        assert fitting_set_dp(inst, 1).spilled == frozenset()

    def test_star_tree_prefers_cheap_leaves(self):
        pts = [Point(1)] + [Point(i, 1) for i in (2, 3, 4)]
        ranges = {"g": [1, 2, 3, 4], "l2": [2], "l3": [3], "l4": [4]}
        weights = {"g": 10, "l2": 1, "l3": 1, "l4": 1}
        inst = Instance.from_ranges(TREE, pts, ranges, weights)
        sol = fitting_set_dp(inst, 1)
        assert sol.spilled == {"l2", "l3", "l4"} and sol.cost == 3

    def test_matches_brute_on_trees(self):
        rng = seeded(21)
        for _ in range(60):
            inst = random_tree_ranges(rng, n_max=9, p_max=9)
            for k in (1, 2, 3):
                sol = fitting_set_dp(inst, k)
                assert sol.cost == brute_force(inst, k, NOHOLES).cost
                assert verify(inst, sol.spilled, k, NOHOLES) == []

    def test_matches_flow_on_linear(self):
        rng = seeded(22)
        for _ in range(40):
            inst = random_linear_ranges(rng, n_max=9, m_max=12, w_max=20)
            for k in (1, 2, 3):
                assert fitting_set_dp(inst, k).cost == \
                    weighted_optimal(inst, k).cost

    def test_deterministic(self):
        rng = seeded(23)
        inst = random_tree_ranges(rng, n_max=9, p_max=9)
        assert fitting_set_dp(inst, 2).spilled == fitting_set_dp(inst, 2).spilled

    def test_state_budget(self):
        ranges = {f"v{i}": [1] for i in range(18)}
        inst = Instance.from_ranges(LINEAR, [Point(1)], ranges,
                                    {v: 1 for v in ranges})
        with pytest.raises(BudgetExceededError):
            fitting_set_dp(inst, 9, state_budget=50)

    def test_state_budget_caps_work_in_a_wide_column(self):
        # 40 variables live over two points: a column has about 6e11
        # candidate fitting sets of size <= 20, and only few fit a budget
        with within(1.0), pytest.raises(BudgetExceededError):
            fitting_set_dp(_wide_column(), 20, state_budget=1000)

    def test_state_budget_is_the_exact_charge(self):
        # at k = 2 each of the 4 samples charges 1 + 40 + 780 candidate
        # sets, 3,284 in all; a walk over every submask of the column
        # (2^40 of them) would not end in time
        inst = _wide_column()
        with within(1.0):
            sol = fitting_set_dp(inst, 2)
        assert sol.proven_optimal and sol.cost == 38
        assert fitting_set_dp(inst, 2, state_budget=3284) == sol
        with pytest.raises(BudgetExceededError):
            fitting_set_dp(inst, 2, state_budget=3283)

    @pytest.mark.parametrize("solve", [fitting_set_dp, fitting_set_dp_holes])
    def test_budget_stops_the_dp_before_any_state(self, solve, monkeypatch):
        # the charge of every sample is summed before the first table is
        # built, so a budget one short of it raises before any child's
        # best states are taken, even those of the deepest samples
        inst = chain_tree_code(seeded(29), 40)
        k = 2
        total = sum(comb(len(live), s) for live in inst.live_at
                    for s in range(min(k, len(live)) + 1))
        assert solve(inst, k, state_budget=total).proven_optimal

        def fail(table, mask):
            raise AssertionError("a state was built past the budget")

        monkeypatch.setattr(treedp, "_best", fail)
        with pytest.raises(BudgetExceededError):
            solve(inst, k, state_budget=total - 1)

    def test_negative_k_rejected(self):
        inst = Instance.from_ranges(LINEAR, [Point(1)], {"a": [1]}, {"a": 1})
        with pytest.raises(ValueError):
            fitting_set_dp(inst, -1)


class TestFittingSetDpHoles:
    def test_zero_cost_when_keepable(self):
        # def at p1, use at p2: keeping it costs nothing at k=1
        inst = Instance.from_code(
            LINEAR, [Point(1), Point(2)],
            [Instruction(1, frozenset(), frozenset({"a"})),
             Instruction(2, frozenset({"a"}), frozenset())],
            {"a": 1})
        sol = fitting_set_dp_holes(inst, 1)
        assert sol.spilled == frozenset() and sol.cost == 0
        # spilling it would also fit: chad pressure is 1 <= 1
        assert pressure(inst, {"a"}, HOLES).max_pressure == 1

    def test_infeasible_two_chads(self):
        inst = Instance.from_code(
            LINEAR, [Point(1)],
            [Instruction(1, frozenset({"x", "y"}), frozenset())],
            {"x": 1, "y": 1}, livein={"x", "y"})
        with pytest.raises(InfeasibleError) as exc:
            fitting_set_dp_holes(inst, 1)
        assert exc.value.witness == (1, "use")

    def test_rejects_range_instances(self):
        inst = Instance.from_ranges(LINEAR, [Point(1)], {"a": [1]}, {"a": 1})
        with pytest.raises(UnsupportedModeError):
            fitting_set_dp_holes(inst, 1)

    def test_matches_brute_including_infeasibility(self):
        rng = seeded(24)
        agree_feasible = 0
        for _ in range(80):
            inst = random_tree_code(rng, n_max=8, p_max=8)
            for k in (1, 2):
                want = brute_force(inst, k, HOLES)
                try:
                    got = fitting_set_dp_holes(inst, k)
                except InfeasibleError:
                    got = None
                if got is None:
                    assert not want.feasible
                else:
                    agree_feasible += 1
                    assert want.feasible and got.cost == want.cost
        assert agree_feasible > 20  # the sweep exercises both outcomes

    def test_holes_family_within_noholes_family(self):
        # the with-holes fitting predicate only shrinks state families
        rng = seeded(25)
        k = 2
        for _ in range(25):
            inst = random_tree_code(rng, n_max=7, p_max=7)
            for live, chads in zip(inst.live_at, inst.chads_at):
                universe = sorted(live)
                noholes = set()
                holes = set()
                for size in range(min(k, len(universe)) + 1):
                    for combo in combinations(universe, size):
                        f = frozenset(combo)
                        noholes.add(f)
                        if size + len(chads - f) <= k:
                            holes.add(f)
                assert holes <= noholes


def test_steps_respect_omega_k_bound():
    rng = seeded(26)
    c = 8
    for _ in range(40):
        inst = random_tree_ranges(rng, n_max=10, p_max=10)
        for k in (1, 2, 3):
            sol = fitting_set_dp(inst, k)
            if inst.omega <= k:
                continue
            bound = c * (2 * inst.n_points) * (inst.omega + 1) ** k
            assert sol.steps <= bound


def _cyclic_tree(parents):
    pts = [Point(p, q) for p, q in enumerate(parents, start=1)]
    instrs = [Instruction(1, frozenset(), frozenset("a")),
              Instruction(2, frozenset("a"), frozenset())]
    return Instance.from_code(TREE, pts, instrs, {"a": 1})


# points whose samples do not come in tree order: construction tolerates
# them (validate() reports them), the DP refuses them
_NOT_TREES = {
    "self-parent": (lambda: _cyclic_tree([None, 2]), (0,)),
    "two-cycle": (lambda: _cyclic_tree([None, 3, 2]), (0,)),
    "duplicate point id": (
        lambda: Instance.from_ranges(LINEAR, [Point(1), Point(1), Point(2)],
                                     {"a": [1, 2], "b": [1]},
                                     {"a": 1, "b": 1}),
        (0, 1)),
}


@pytest.mark.parametrize("form", sorted(_NOT_TREES))
def test_points_out_of_tree_order_are_malformed(form):
    build, ks = _NOT_TREES[form]
    inst = build()
    for k in ks:
        with pytest.raises(MalformedCodeError):
            fitting_set_dp(inst, k)


@pytest.mark.parametrize("solve", [fitting_set_dp, fitting_set_dp_holes])
def test_gapped_tree_range_is_refused(solve):
    # the chain 1 <- 2 <- 3 with v0 live at 1 and 3 but not 2: solved as
    # if v0 were connected, the DP spills nothing and reports pressure 2
    # at k = 1 as feasible and proven
    inst = Instance.from_ranges(TREE, [Point(1), Point(2, 1), Point(3, 2)],
                                {"v0": [1, 3], "v1": [3]}, {"v0": 1, "v1": 3})
    with pytest.raises(MalformedCodeError, match=(
            r"needs a valid instance; \[range\] v0: subtree range is not "
            "connected")):
        solve(inst, 1)


def _outcome(solve, inst, k):
    try:
        sol = solve(inst, k)
    except SpillkitError as exc:
        return (type(exc).__name__, getattr(exc, "witness", None))
    return (str(sol.cost), sorted(sol.spilled), sol.achieved_omega,
            sol.feasible, sol.proven_optimal)


def test_answers_are_pinned():
    # the optimum each DP picks among ties, and its infeasibility
    # witnesses, at every k from 0 to omega, as the DP that tried kept
    # sets in (size, lexicographic) order and kept the first heaviest
    # found them
    rng = seeded(27)
    insts = ([random_tree_code(rng) for _ in range(150)]
             + [random_tree_ranges(rng) for _ in range(100)]
             + [random_linear_code(rng, h) for h in (1, 2) for _ in range(30)]
             + [random_linear_block(rng, 16, mean_len=5) for _ in range(20)]
             + [chain_tree_code(rng, 100, wide=j % 2 == 0) for j in range(6)])
    out = []
    for inst in insts:
        solves = ((fitting_set_dp, fitting_set_dp_holes) if inst.code_backed
                  else (fitting_set_dp,))
        for solve in solves:
            for k in range(inst.omega + 1):
                out.append(_outcome(solve, inst, k))
    assert len(out) == 2273
    assert sum(o[0] == "InfeasibleError" for o in out) == 414
    assert (hashlib.sha256(repr(out).encode()).hexdigest()[:16]
            == "c2bbe367bc6d9aa6")


def test_steps_are_pinned():
    # steps depend on which child a sample's states are built from, so
    # this pins the child order: ascending samples, children by point id
    rng = seeded(28)
    insts = ([random_tree_code(rng) for _ in range(60)]
             + [chain_tree_code(rng, 80, wide=j % 2 == 0) for j in range(4)])
    out = []
    for inst in insts:
        for solve in (fitting_set_dp, fitting_set_dp_holes):
            for k in range(inst.omega + 1):
                try:
                    out.append(solve(inst, k).steps)
                except InfeasibleError:
                    pass
    assert len(out) == 314
    assert (hashlib.sha256(repr(out).encode()).hexdigest()[:16]
            == "19662f8bc418f592")
