import pytest

from spillkit.errors import BudgetExceededError, InfeasibleError, WrongShapeError
from spillkit.model import (
    HOLES,
    LINEAR,
    TREE,
    Instance,
    Instruction,
    Point,
    pressure,
)
from spillkit.oracle import brute_force, brute_force_all, verify
from spillkit.punched import extra_set_dp

from builders import random_linear_code, seeded, within


def spanning_code():
    # a, b, c span the block; one interior instruction uses a
    return Instance.from_code(
        LINEAR, [Point(1), Point(2), Point(3)],
        [Instruction(2, frozenset({"a"}), frozenset())],
        {"a": 1, "b": 1, "c": 5},
        livein={"a", "b", "c"}, liveout={"a", "b", "c"})


class TestExtraSetDp:
    def test_spanning_example(self):
        inst = spanning_code()
        assert inst.omega == 3 and inst.h == 1
        sol = extra_set_dp(inst, 1)
        assert sol.cost <= 2 and sol.achieved_omega <= 2
        assert sol.cost == brute_force(inst, 2, HOLES).cost
        # per-point spilled sets stay within 2(h+k) = 4
        for live in inst.live_at:
            assert len(live & sol.spilled) <= 4

    def test_target_zero_infeasible_with_instructions(self):
        inst = Instance.from_code(
            LINEAR, [Point(1), Point(2)],
            [Instruction(1, frozenset(), frozenset({"a"})),
             Instruction(2, frozenset({"a"}), frozenset())],
            {"a": 1})
        with pytest.raises(InfeasibleError):
            extra_set_dp(inst, inst.omega)  # r = 0, chads force pressure 1

    def test_state_budget_caps_work_in_a_wide_column(self):
        # 40 variables span a code-backed block: lowering omega by 18
        # takes an extra set of 18 or more variables out of 40
        vs = [f"v{i}" for i in range(40)]
        inst = Instance.from_code(
            LINEAR, [Point(1), Point(2)],
            [Instruction(1, frozenset({"v0"}), frozenset())],
            {v: 1 for v in vs}, livein=vs, liveout=vs)
        with within(1.0), pytest.raises(BudgetExceededError):
            extra_set_dp(inst, 18, state_budget=1000)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            extra_set_dp(spanning_code(), 0)

    def test_rejects_trees_and_ranges(self):
        tree = Instance.from_ranges(TREE, [Point(1), Point(2, 1)],
                                    {"a": [1, 2]}, {"a": 1})
        with pytest.raises(WrongShapeError):
            extra_set_dp(tree, 1)
        rngs = Instance.from_ranges(LINEAR, [Point(1)], {"a": [1]}, {"a": 1})
        with pytest.raises(WrongShapeError):
            extra_set_dp(rngs, 1)

    def test_matches_brute_all_regimes(self):
        rng = seeded(31)
        feasible = 0
        for _ in range(60):
            h = rng.choice((1, 2))
            inst = random_linear_code(rng, h, n_max=9, m_max=12)
            for k in (1, 2):
                want = brute_force(inst, inst.omega - k, HOLES)
                try:
                    got = extra_set_dp(inst, k)
                except InfeasibleError:
                    got = None
                if got is None:
                    assert not want.feasible
                else:
                    feasible += 1
                    assert want.feasible and got.cost == want.cost
                    assert verify(inst, got.spilled, inst.omega - k, HOLES) == []
        assert feasible > 20

    def test_optimal_solutions_respect_cardinality_bound(self):
        # every brute-force optimum has <= 2(h+k) spilled live at each sample
        rng = seeded(32)
        for _ in range(40):
            h = rng.choice((1, 2))
            inst = random_linear_code(rng, h, n_max=9, m_max=10)
            for k in (1, 2):
                best, optima, truncated = brute_force_all(
                    inst, inst.omega - k, HOLES)
                assert not truncated
                if not best.feasible:
                    continue
                cap = 2 * (h + k)
                for spilled in optima:
                    for live in inst.live_at:
                        assert len(live & spilled) <= cap

    def test_steps_respect_bound(self):
        rng = seeded(33)
        c = 8
        for _ in range(30):
            h = rng.choice((1, 2))
            inst = random_linear_code(rng, h, n_max=8, m_max=10)
            for k in (1, 2):
                try:
                    sol = extra_set_dp(inst, k)
                except InfeasibleError:
                    continue
                bound = c * inst.n_points * (inst.omega + 1) ** (2 * (h + k))
                assert sol.steps <= bound

    def test_solution_verifies_via_pressure(self):
        inst = spanning_code()
        sol = extra_set_dp(inst, 1)
        assert pressure(inst, sol.spilled, HOLES).max_pressure == \
            sol.achieved_omega
