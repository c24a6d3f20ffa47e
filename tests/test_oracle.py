import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spillkit import kernel
from spillkit.errors import InfeasibleError, MalformedCodeError, SizeCapError
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
from spillkit.reductions import (
    GraphInstance,
    X3CInstance,
    gen_indepset_h1,
    gen_indepset_h2,
    gen_x3c,
)
from spillkit.sweeps import x3c_sources
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
        # one variable past the kernel's ceiling
        n = kernel.MAX_VARS + 1
        inst = ranges_inst({f"v{i:02d}": range(1, 3) for i in range(n)},
                           {f"v{i:02d}": 1 for i in range(n)})
        for solve in (brute_force, brute_force_all):
            with pytest.raises(SizeCapError) as exc:
                solve(inst, 1, NOHOLES)
            assert (exc.value.n, exc.value.cap) == (21, 20)

    def test_kernel_ceiling_refuses_before_sweeping(self, monkeypatch):
        def enumerated(*args):
            raise AssertionError("enumerated the subsets of 64 variables")

        monkeypatch.setattr(kernel, "_by_cost", enumerated)
        inst = ranges_inst({f"v{i}": range(1, 3) for i in range(64)},
                           {f"v{i}": 1 for i in range(64)})
        with pytest.raises(SizeCapError) as exc:
            brute_force(inst, 1, NOHOLES)
        assert exc.value.cap == kernel.MAX_VARS

    def test_first_feasible_in_weight_order_is_optimal(self):
        rng = seeded(2)
        for _ in range(40):
            inst = random_linear_ranges(rng, n_max=8, m_max=10, w_max=9)
            r = rng.randint(0, max(0, inst.omega - 1))
            sol = brute_force(inst, r, NOHOLES)
            order = list(inst.var_ids)

            def cost(mask):
                return sum(inst.weight(order[i])
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
        assert verify(BELADY_W, set(BELADY_W.var_ids), 0, NOHOLES) == []


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
            # the r heaviest are dominated and kept before the search, and
            # each keep child dies at once for want of relief
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

    def test_matches_brute_on_cloned_variables(self):
        # clones relieve exactly where their original does, so most of
        # them are dominated and decided as kept before the search
        rng = seeded(7)
        seen = set()
        for k in range(150):
            if k % 2:
                base = random_linear_code(rng, h=rng.choice((1, 2)), n_max=5,
                                          m_max=8)
            else:
                base = random_tree_code(rng, n_max=5, p_max=8)
            inst = _cloned(rng, base)
            mode = rng.choice((NOHOLES, HOLES))
            r = rng.randint(0, inst.omega)
            bt = brute_force(inst, r, mode)
            bb = branch_and_bound(inst, r, mode)
            assert bb.proven_optimal
            assert bb.feasible == bt.feasible
            if bt.feasible:
                assert bb.cost == bt.cost
                assert verify(inst, bb.spilled, r, mode) == []
            seen.add((mode, bt.feasible))
        assert seen == {(NOHOLES, True), (HOLES, True), (HOLES, False)}

    def test_x3c_checks_in_few_nodes(self):
        # the fillers of a covered element are dominated by its triples,
        # so the search branches over the triples alone; the optima are
        # pinned as the search without dominance found them
        nodes = []
        costs = []
        for x in x3c_sources(9, 5):
            cert = gen_x3c(x)
            sol = branch_and_bound(cert.instance, cert.r, cert.mode)
            assert sol.proven_optimal
            nodes.append(sol.steps)
            costs.append(str(sol.cost))
        assert len(nodes) == 500
        assert max(nodes) <= 100 and sum(nodes) <= 20_000
        assert (hashlib.sha256(repr(costs).encode()).hexdigest()[:16]
                == "ee862be7f025e329")


def _cloned(rng, inst, w_max=9):
    """inst's code with each variable cloned 1-3 times: the clones are
    defined, used, live-in and live-out wherever their original is, and
    every copy gets a random weight."""
    copies = {v: [v] + [f"{v}c{k}" for k in range(rng.randint(1, 3))]
              for v in inst.var_ids}

    def grow(vs):
        return frozenset(c for v in vs for c in copies[v])

    return Instance.from_code(
        inst.shape, inst.points,
        [Instruction(i.at, grow(i.uses), grow(i.defs))
         for i in inst.instructions],
        {c: rng.randint(1, w_max) for cs in copies.values() for c in cs},
        livein=grow(inst.livein), liveout=grow(inst.liveout))


def _pinned_cases():
    """Seeded (instance, r, mode, node budget) for the pinned search."""
    rng = seeded(60)
    for k in range(40):
        if k % 4 == 0:
            inst = random_linear_ranges(rng, n_max=16, m_max=16, w_max=9)
        elif k % 4 == 1:
            inst = random_tree_ranges(rng, n_max=16, p_max=12)
        elif k % 4 == 2:
            inst = random_linear_code(rng, h=rng.choice((1, 2, 3)), n_max=14,
                                      m_max=12)
        else:
            inst = random_tree_code(rng, n_max=14, p_max=12)
        mode = HOLES if k % 4 >= 2 else NOHOLES
        least = max(m.bit_count() for m in inst.chad_masks) if mode == HOLES else 0
        r = rng.randint(min(least, inst.omega), max(least, inst.omega - 1))
        yield inst, r, mode, rng.choice((9, 60, 10**6))
    rng = seeded(61)
    elems = tuple(range(1, 10))
    for _ in range(6):
        triples = tuple(frozenset(rng.sample(elems, 3))
                        for _ in range(rng.randint(3, 6)))
        cert = gen_x3c(X3CInstance(elems, triples))
        yield cert.instance, cert.r, cert.mode, 3000
    for k in range(6):
        n = rng.randint(3, 6)
        vs = tuple(f"x{i}" for i in range(n))
        edges = tuple(sorted({tuple(sorted(rng.sample(vs, 2)))
                              for _ in range(rng.randint(1, 2 * n))}))
        gen = gen_indepset_h1 if k % 2 else gen_indepset_h2
        cert = gen(GraphInstance(vs, edges, rng.randint(1, n)))
        yield cert.instance, cert.r, cert.mode, 3000


# (spilled ids joined, cost, nodes, proven) per case, as a search that
# rescans every row at every node returns them: keeping the row state
# incrementally must not change a node, a prune or the answer
_PINNED = [
    ('v2,v8,v9', '5', 10, False),
    ('v0,v1,v2,v3,v4', '55', 11, True),
    ('', '0', 1, True),
    ('', '0', 1, True),
    ('v0,v1,v2', '14', 7, True),
    ('v0', '11', 3, True),
    ('v3,v4,v5', '23', 13, True),
    ('', '0', 1, True),
    ('v0,v1,v2', '13', 7, True),
    ('v3', '1', 3, True),
    ('v4', '4', 3, True),
    ('', '0', 1, True),
    ('v0', '5', 3, True),
    ('v13,v2,v9', '11', 39, True),
    ('v5', '4', 3, True),
    ('v1', '2', 3, True),
    ('v0,v1', '11', 5, True),
    ('v2,v5,v7', '15', 15, True),
    ('v0', '8', 7, True),
    ('', '0', 1, True),
    ('v1,v2,v3,v4', '11', 49, True),
    ('v4', '2', 3, True),
    ('v5', '13', 3, True),
    ('v0,v3,v5', '11', 10, False),
    ('v7', '1', 3, True),
    ('v0,v1,v5', '23', 15, True),
    ('v5', '5', 3, True),
    ('v2', '20', 3, True),
    ('v0,v11,v3', '10', 23, True),
    ('v0,v1,v10,v11,v12,v13,v14,v2,v3,v4,v5,v6,v7,v8,v9', '177', 31, True),
    ('v9', '3', 3, True),
    ('', '0', 1, True),
    ('v0,v1,v2,v3,v4,v5', '37', 10, False),
    ('v3,v4', '5', 5, True),
    ('v2', '1', 3, True),
    ('v6', '6', 3, True),
    ('v0,v1,v2,v3', '19', 9, True),
    ('', 'None', 10, False),
    ('v3,v6,v8', '21', 10, False),
    ('', '0', 1, True),
    ('fill_9_0,t0,t4,t5', '4', 31, True),
    ('fill_4_0,fill_8_0,fill_9_0,t0,t1,t2', '6', 13, True),
    ('fill_9_0,t0,t1,t3,t4', '5', 19, True),
    ('fill_6_0,fill_8_0,t0,t1,t2', '5', 11, True),
    ('fill_3_0,t0,t2,t3', '4', 23, True),
    ('fill_2_0,fill_3_0,fill_4_0,t1,t2', '5', 23, True),
    ('x2,x4', '2', 7, True),
    ('da0,da1,da2,db0,x0,x1', '18', 385, True),
    ('x2', '1', 3, True),
    ('da0,da1,x0', '7', 45, True),
    ('', 'None', 1, True),
    ('da0,da1,da2,da3,da4,da5,da6,da7,da8,x0,x1,x2', '66', 117, True),
]


def test_search_is_pinned():
    """Same nodes in the same order: same solution, cost, node count and
    proof flag as pinned, under full and exhausted node budgets."""
    got = []
    for inst, r, mode, budget in _pinned_cases():
        sol = branch_and_bound(inst, r, mode, node_budget=budget)
        got.append((",".join(sorted(sol.spilled)), str(sol.cost), sol.steps,
                    sol.proven_optimal))
    assert got == _PINNED


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


_WEIGHTED_SOLVERS = {
    "brute": lambda inst, r: brute_force(inst, r, NOHOLES),
    "greedy": lambda inst, r: greedy_furthest(inst, r),
    "flow": lambda inst, r: weighted_optimal(inst, r),
    "dp-cover": lambda inst, r: incremental_cover_dp(inst),
    "dp-fit": lambda inst, r: fitting_set_dp(inst, r),
    "dp-fit-holes": lambda inst, r: fitting_set_dp_holes(inst, r),
    "dp-extra": lambda inst, r: extra_set_dp(inst, inst.omega - r),
    "bnb": lambda inst, r: branch_and_bound(inst, r, NOHOLES),
    "bnb-holes": lambda inst, r: branch_and_bound(inst, r, HOLES),
}


@pytest.mark.parametrize(
    "name", sorted(_WEIGHTED_SOLVERS.keys() - {"dp-cover", "dp-extra"}))
def test_negative_r_is_refused(name):
    """Every solver that takes a register count refuses r < 0; dp-cover
    takes none and dp-extra a decrement."""
    with pytest.raises(ValueError, match="must be >= 0"):
        _WEIGHTED_SOLVERS[name](BELADY_W, -1)


@pytest.mark.parametrize("weight", [0, -1])
@pytest.mark.parametrize("name", sorted(_WEIGHTED_SOLVERS))
def test_weights_not_positive_are_refused(name, weight):
    """Construction accepts any weight, but every solver refuses an
    instance with a weight not > 0."""
    inst = Instance.from_code(
        LINEAR, [Point(1), Point(2), Point(3)],
        [Instruction(1, frozenset(), frozenset({"a", "b", "c"})),
         Instruction(2, frozenset({"a", "b"}), frozenset()),
         Instruction(3, frozenset({"c"}), frozenset())],
        {"a": 2, "b": weight, "c": 1})
    r = inst.omega - 1
    with pytest.raises(MalformedCodeError,
                       match=fr"\[weight\] b: weight {weight} is not > 0"):
        _WEIGHTED_SOLVERS[name](inst, r)
