from itertools import combinations

import pytest

from spillkit.errors import BudgetExceededError, InfeasibleError, UnsupportedModeError
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
from spillkit.oracle import brute_force, verify
from spillkit.treedp import fitting_set_dp, fitting_set_dp_holes

from builders import (
    random_linear_ranges,
    random_tree_code,
    random_tree_ranges,
    seeded,
    within,
)


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
        ranges = {f"v{i}": [1, 2] for i in range(40)}
        inst = Instance.from_ranges(LINEAR, [Point(1), Point(2)], ranges,
                                    {v: 1 for v in ranges})
        with within(1.0), pytest.raises(BudgetExceededError):
            fitting_set_dp(inst, 20, state_budget=1000)

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
