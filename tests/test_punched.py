import hashlib

import pytest

from spillkit.errors import (
    BudgetExceededError,
    InfeasibleError,
    MalformedCodeError,
    UnsupportedModeError,
    WrongShapeError,
)
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
from spillkit.reductions import gen_indepset_h1
from spillkit.sweeps import graph_instance, graphs_upto

from builders import random_linear_code, seeded, within


def spanning_code(a=1):
    # a, b, c span the block; one interior instruction uses a
    return Instance.from_code(
        LINEAR, [Point(1), Point(2), Point(3)],
        [Instruction(2, frozenset({"a"}), frozenset())],
        {"a": a, "b": 1, "c": 5},
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

    def test_state_budget_caps_a_later_expansion(self):
        # the first column is cheap; the overflow comes where v0..v39 are
        # defined, and must be charged before any candidate is built
        vs = [f"v{i}" for i in range(40)]
        inst = Instance.from_code(
            LINEAR, [Point(p) for p in range(1, 6)],
            [Instruction(1, frozenset({"a"}), frozenset()),
             Instruction(3, frozenset(), frozenset(vs)),
             Instruction(5, frozenset(vs), frozenset())],
            {"a": 1, **{v: 1 for v in vs}}, livein={"a"})
        with within(1.0), pytest.raises(BudgetExceededError):
            extra_set_dp(inst, 18, state_budget=1000)

    def test_search_stops_at_the_optimum(self):
        # the h = 1 gadget of the 6-cycle with bound 3: enumerating every
        # extra set of every column takes 32,751 steps, a cost-ordered
        # search that stops at every column 4,887
        g = graph_instance(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)), 3)
        cert = gen_indepset_h1(g)
        sol = extra_set_dp(cert.instance, cert.instance.omega - cert.r)
        assert sol.cost == 45
        assert sol.steps < 1_000
        assert verify(cert.instance, sol.spilled, cert.r, HOLES) == []

    def test_infeasible_inside_a_walked_run(self):
        # e is born at (1, def); no variable is born at (2, use) or at
        # (3, use), where a and b are chads and only c, d and e relieve:
        # a state walks (2, use) and fails at (3, use), the witness
        fs = frozenset
        inst = Instance.from_code(
            LINEAR, [Point(p) for p in range(1, 6)],
            [Instruction(1, fs(), fs({"e"})),
             Instruction(3, fs({"a", "b"}), fs()),
             Instruction(5, fs({"e"}), fs())],
            dict.fromkeys("abcde", 1),
            livein={"a", "b", "c", "d"}, liveout={"c", "d"})
        assert inst.omega == 5
        with pytest.raises(InfeasibleError) as exc:
            extra_set_dp(inst, 4)
        assert exc.value.witness == (3, "use")
        assert extra_set_dp(inst, 3).cost == 4  # a, c, d and e

    def test_long_block(self):
        # 10,000 points, each defining one variable that the point two
        # further on uses: the search and the bound run without recursion,
        # and the budget still caps their work
        m = 10_000
        inst = Instance.from_code(
            LINEAR, [Point(p) for p in range(1, m + 1)],
            [Instruction(p, frozenset({f"v{p - 2}"} if p > 2 else ()),
                         frozenset({f"v{p}"})) for p in range(1, m + 1)],
            {f"v{p}": p % 7 + 1 for p in range(1, m + 1)},
            liveout={f"v{m - 1}", f"v{m}"})
        assert (inst.h, inst.omega) == (1, 2)
        sol = extra_set_dp(inst, 1)
        assert sol.cost == 39_993 and sol.achieved_omega == 1
        with within(1.0), pytest.raises(BudgetExceededError):
            extra_set_dp(inst, 1, state_budget=50)

    def test_steps_stay_low_on_indepset_gadgets(self):
        # a work gate that does not depend on timing: on a seeded,
        # size-spread sample of the h = 1 gadgets of graphs_upto(6) this
        # search takes 22,869 steps, a cost-ordered search that stops at
        # every column 195,236; the gate is about 1.5 times the former
        graphs = sorted(
            (graph_instance(n, edges, bound) for n, edges in graphs_upto(6)
             for bound in range(1, n + 1)),
            key=lambda g: (len(g.vertices), len(g.edges), g.bound))
        rng = seeded(61)
        stride = len(graphs) / 60
        total = 0
        for i in range(60):
            cert = gen_indepset_h1(graphs[int(i * stride + rng.random() * stride)])
            inst = cert.instance
            try:
                total += extra_set_dp(inst, inst.omega - cert.r).steps
            except InfeasibleError:
                pass
        assert total < 34_000

    @pytest.mark.parametrize("a", [-3, 0])
    def test_refuses_weights_not_positive(self, a):
        with pytest.raises(MalformedCodeError):
            extra_set_dp(spanning_code(a), 1)

    def test_no_points_is_refused(self):
        inst = Instance.from_code(LINEAR, [], [], {})
        with pytest.raises(MalformedCodeError, match=(
                r"^extra_set_dp needs a valid instance; \[points\] "
                "<instance>: instance has no points$")):
            extra_set_dp(inst, 1)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            extra_set_dp(spanning_code(), 0)

    def test_rejects_trees_and_ranges(self):
        tree = Instance.from_ranges(TREE, [Point(1), Point(2, 1)],
                                    {"a": [1, 2]}, {"a": 1})
        with pytest.raises(WrongShapeError):
            extra_set_dp(tree, 1)
        # a range instance has no chads to count
        rngs = Instance.from_ranges(LINEAR, [Point(1)], {"a": [1]}, {"a": 1})
        with pytest.raises(UnsupportedModeError, match=(
                "^hole semantics need a code-backed instance$")):
            extra_set_dp(rngs, 1)

    def test_matches_brute_all_regimes(self):
        rng = seeded(31)
        feasible = 0
        for _ in range(60):
            h = rng.choice((1, 2))
            inst = random_linear_code(rng, h, n_max=9, m_max=12)
            for k in (1, 2):
                # where omega < k no spill set reaches the target, and the
                # oracle refuses the negative register count
                want = (brute_force(inst, inst.omega - k, HOLES)
                        if inst.omega >= k else None)
                try:
                    got = extra_set_dp(inst, k)
                except InfeasibleError:
                    got = None
                if got is None:
                    assert want is None or not want.feasible
                else:
                    assert want is not None
                    feasible += 1
                    assert want.feasible and got.cost == want.cost
                    assert verify(inst, got.spilled, inst.omega - k, HOLES) == []
        assert feasible > 20

    def test_optima_and_witnesses_pinned(self):
        # costs and infeasibility witnesses of 1,800 seeded runs, 514 of
        # them infeasible, as the DP that enumerates every extra set of
        # every column finds them
        out = []
        for h in (1, 2):
            rng = seeded(200 + h)
            for _ in range(300):
                inst = random_linear_code(rng, h, n_max=14, m_max=20)
                for k in (1, 2, 3):
                    try:
                        sol = extra_set_dp(inst, k)
                    except InfeasibleError as exc:
                        out.append(("infeasible", exc.witness))
                        continue
                    assert verify(inst, sol.spilled, inst.omega - k, HOLES) == []
                    out.append(str(sol.cost))
        assert sum(isinstance(o, tuple) for o in out) == 514
        assert (hashlib.sha256(repr(out).encode()).hexdigest()[:16]
                == "45b854a0aaab2a70")

    def test_optimal_solutions_respect_cardinality_bound(self):
        # every brute-force optimum has <= 2(h+k) spilled live at each sample
        rng = seeded(32)
        for _ in range(40):
            h = rng.choice((1, 2))
            inst = random_linear_code(rng, h, n_max=9, m_max=10)
            for k in (1, 2):
                if inst.omega < k:
                    continue  # no spill set reaches a negative target
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
