import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spillkit import kernel
from spillkit.errors import InfeasibleError, SizeCapError
from spillkit.intervals import (
    greedy_furthest,
    incremental_cover_dp,
    weighted_optimal,
)
from spillkit.model import (
    HOLES,
    LINEAR,
    NOHOLES,
    Instance,
    Instruction,
    Point,
)
from spillkit.oracle import (
    branch_and_bound,
    brute_force,
    brute_force_all,
    verify,
)
from spillkit.punched import extra_set_dp
from spillkit.treedp import fitting_set_dp, fitting_set_dp_holes

from builders import (
    random_linear_code,
    random_linear_ranges,
    random_tree_code,
    random_tree_ranges,
    seeded,
)


def ranges_inst(ranges, weights):
    pts = sorted({p for r in ranges.values() for p in r})
    return Instance.from_ranges(LINEAR, [Point(p) for p in pts], ranges, weights)


BELADY_W = ranges_inst({"a": range(1, 11), "b": range(1, 6), "c": range(6, 11)},
                       {"a": 10, "b": 1, "c": 1})


class TestBruteForce:
    def test_trivial_when_under_pressure(self):
        sol = brute_force(BELADY_W, 5, NOHOLES)
        assert sol.spilled == frozenset() and sol.cost == 0

    def test_weighted_fixture(self):
        sol = brute_force(BELADY_W, 1, NOHOLES)
        assert sol.spilled == {"b", "c"} and sol.cost == 2

    def test_infeasible_with_holes(self):
        # an instruction using two variables floors with-holes pressure at 2
        inst = Instance.from_code(
            LINEAR, [Point(1)],
            [Instruction(1, frozenset({"x", "y"}), frozenset())],
            {"x": 1, "y": 1}, livein={"x", "y"})
        sol = brute_force(inst, 1, HOLES)
        assert not sol.feasible and sol.cost is None

    def test_cap_refused(self):
        rng = seeded(1)
        inst = random_linear_ranges(rng, n_max=12, m_max=12)
        with pytest.raises(SizeCapError):
            brute_force(inst, 1, NOHOLES, cap=inst.n_vars - 1)

    def test_kernel_ceiling_refuses_before_sweeping(self):
        # a caller's cap cannot lift the kernel past its own ceiling
        inst = ranges_inst({f"v{i}": range(1, 3) for i in range(64)},
                           {f"v{i}": 1 for i in range(64)})
        with pytest.raises(SizeCapError) as exc:
            brute_force(inst, 1, NOHOLES, cap=64)
        assert exc.value.cap == kernel.MAX_VARS

    def test_first_feasible_in_weight_order_is_optimal(self):
        rng = seeded(2)
        for _ in range(40):
            inst = random_linear_ranges(rng, n_max=8, m_max=10, w_max=9)
            r = rng.randint(0, max(0, inst.omega - 1))
            sol = brute_force(inst, r, NOHOLES)
            order = inst.var_order()

            def cost(mask):
                return sum(inst.variables[order[i]].weight
                           for i in range(inst.n_vars) if mask >> i & 1)

            for _, mask in sorted((cost(m), m) for m in range(1 << inst.n_vars)):
                spilled = {order[i] for i in range(inst.n_vars) if mask >> i & 1}
                if not verify(inst, spilled, r, NOHOLES):
                    assert sol.feasible and cost(mask) == sol.cost
                    break
            else:
                assert not sol.feasible


class TestAllOptima:
    def test_collects_every_optimum(self):
        inst = ranges_inst({"a": range(1, 4), "b": range(1, 4), "c": range(1, 4)},
                           {"a": 1, "b": 1, "c": 1})
        best, optima, truncated = brute_force_all(inst, 2, NOHOLES)
        assert best.cost == 1 and not truncated
        assert sorted(map(sorted, optima)) == [["a"], ["b"], ["c"]]


class TestVerify:
    def test_solver_output_verifies(self):
        sol = brute_force(BELADY_W, 1, NOHOLES)
        assert verify(BELADY_W, sol.spilled, 1, NOHOLES) == []

    def test_empty_spill_on_overpressured(self):
        bad = verify(BELADY_W, set(), 1, NOHOLES)
        assert bad and all(v > 1 for _, _, v in bad)

    def test_full_spill_r0_noholes(self):
        assert verify(BELADY_W, set(BELADY_W.variables), 0, NOHOLES) == []


class TestBranchAndBound:
    def test_matches_brute_everywhere(self):
        rng = seeded(3)
        for _ in range(120):
            if rng.random() < 0.5:
                inst = random_linear_ranges(rng, n_max=9, m_max=12, w_max=9)
                mode = NOHOLES
            else:
                inst = random_linear_code(rng, h=rng.choice((1, 2)),
                                          n_max=8, m_max=10)
                mode = HOLES
            r = rng.randint(0, inst.omega + 1)
            bt = brute_force(inst, r, mode)
            bb = branch_and_bound(inst, r, mode)
            assert bb.proven_optimal
            assert bb.feasible == bt.feasible
            if bt.feasible:
                assert bb.cost == bt.cost

    def test_feasible_instance_returns_empty(self):
        sol = branch_and_bound(BELADY_W, 2, NOHOLES)
        assert sol.spilled == frozenset()

    def test_budget_flag(self):
        rng = seeded(4)
        inst = random_linear_ranges(rng, n_max=12, m_max=16, w_max=9)
        sol = branch_and_bound(inst, 1, NOHOLES, node_budget=1)
        assert not sol.proven_optimal

    @pytest.mark.parametrize("shape", ["wide", "chain"])
    def test_deep_search_ends_in_a_solution(self, shape):
        # the search goes one level deeper per variable: 1,500 variables
        # reach far past the interpreter's recursion limit
        rng = seeded(6)
        n = 1500
        weights = {f"v{i}": rng.randint(1, 9) for i in range(n)}
        if shape == "wide":
            # all live together: spilling the n - r cheapest is optimal,
            # and the bound prunes each keep child at once
            inst = ranges_inst({v: range(1, 3) for v in weights}, weights)
            sol = branch_and_bound(inst, 10, NOHOLES)
            assert sol.proven_optimal
            assert sol.cost == weighted_optimal(inst, 10).cost
        else:
            inst = ranges_inst({f"v{i}": range(i + 1, i + 3)
                                for i in range(n)}, weights)
            sol = branch_and_bound(inst, 1, NOHOLES, node_budget=1600)
            assert not sol.proven_optimal
            assert not sol.feasible or not verify(inst, sol.spilled, 1, NOHOLES)

    def test_tree_shape(self):
        rng = seeded(5)
        for _ in range(40):
            inst = random_tree_ranges(rng, n_max=9, p_max=10)
            r = rng.randint(0, inst.omega)
            assert branch_and_bound(inst, r, NOHOLES).cost == \
                brute_force(inst, r, NOHOLES).cost


_CODES = {
    "linear ranges, unit": lambda rng: random_linear_ranges(
        rng, n_max=9, m_max=12),
    "linear ranges, weighted": lambda rng: random_linear_ranges(
        rng, n_max=9, m_max=12, w_max=9),
    "tree ranges": lambda rng: random_tree_ranges(rng, n_max=9, p_max=10),
    "linear code": lambda rng: random_linear_code(
        rng, h=rng.choice((1, 2, 3)), n_max=9),
    "tree code": lambda rng: random_tree_code(rng, n_max=9, p_max=10),
}


def _polynomial_solvers(inst, r, mode):
    """(name, call) for every polynomial solver defined on inst at r."""
    if mode == NOHOLES:
        yield "dp-fit", lambda: fitting_set_dp(inst, r)
        if inst.shape == LINEAR:
            yield "flow", lambda: weighted_optimal(inst, r)
            if inst.unweighted():
                yield "greedy", lambda: greedy_furthest(inst, r)
            if r == inst.omega - 1:
                yield "dp-cover", lambda: incremental_cover_dp(inst)
    else:
        yield "dp-fit-holes", lambda: fitting_set_dp_holes(inst, r)
        if inst.shape == LINEAR and r < inst.omega:
            yield "dp-extra", lambda: extra_set_dp(inst, inst.omega - r)
    yield "bnb", lambda: branch_and_bound(inst, r, mode)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_CODES)), st.integers(0, 2**32), st.data())
def test_polynomial_solvers_match_brute_force(family, seed, data):
    """Every solver the regime admits agrees with the exhaustive oracle on
    feasibility and cost, at every target from 0 (infeasible under holes
    wherever a chad lies) to omega."""
    inst = _CODES[family](seeded(seed))
    modes = [NOHOLES, HOLES] if inst.code_backed else [NOHOLES]
    mode = data.draw(st.sampled_from(modes), label="mode")
    r = data.draw(st.integers(0, inst.omega), label="r")
    ref = brute_force(inst, r, mode)
    for name, solve in _polynomial_solvers(inst, r, mode):
        try:
            sol = solve()
        except InfeasibleError:
            assert not ref.feasible, name
            continue
        assert sol.feasible == ref.feasible, name
        if ref.feasible:
            assert sol.cost == ref.cost, name
            assert verify(inst, sol.spilled, r, mode) == [], name
