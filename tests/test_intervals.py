from fractions import Fraction

import networkx as nx
import pytest

from spillkit.errors import (MalformedCodeError, UnsupportedModeError,
                             WrongShapeError)
from spillkit.intervals import (
    _flow_solve,
    greedy_furthest,
    incremental_cover_dp,
    weighted_optimal,
)
from spillkit.model import (
    HOLES,
    LINEAR,
    NOHOLES,
    TREE,
    Instance,
    Instruction,
    Point,
    pressure,
    validate,
)
from spillkit.oracle import brute_force

from builders import random_linear_block, random_linear_ranges, seeded


def ranges_inst(ranges, weights=None):
    weights = weights or {v: 1 for v in ranges}
    pts = sorted({p for r in ranges.values() for p in r})
    return Instance.from_ranges(LINEAR, [Point(p) for p in pts], ranges, weights)


BELADY = ranges_inst({"a": range(1, 11), "b": range(1, 4), "c": range(2, 7)})
BELADY_W = ranges_inst({"a": range(1, 11), "b": range(1, 6), "c": range(6, 11)},
                       {"a": 10, "b": 1, "c": 1})


class TestGreedy:
    def test_evicts_furthest(self):
        sol = greedy_furthest(BELADY, 2)
        assert sol.spilled == {"a"} and sol.cost == 1

    def test_nothing_when_fits(self):
        assert greedy_furthest(BELADY, 3).spilled == frozenset()

    def test_tie_break_is_lexicographic(self):
        inst = ranges_inst({"a": range(1, 5), "b": range(1, 5), "c": range(1, 5)})
        sol = greedy_furthest(inst, 1)
        assert sol.spilled == {"a", "b"}

    def test_weighted_fixture_cost_is_weight_sum(self):
        sol = greedy_furthest(BELADY_W, 1)
        assert sol.spilled == {"a"} and sol.cost == 10

    def test_liveout_preferred_at_equal_ends(self):
        # x and y both end at the last point, but y is live-out
        inst = Instance.from_code(
            LINEAR, [Point(1), Point(2)],
            [Instruction(1, frozenset(), frozenset({"x", "y"})),
             Instruction(2, frozenset({"x", "y"}), frozenset())],
            {"x": 1, "y": 1}, liveout={"y"})
        sol = greedy_furthest(inst, 1)
        assert sol.spilled == {"y"}

    def test_rejects_tree(self):
        inst = Instance.from_ranges(TREE, [Point(1), Point(2, 1)],
                                    {"a": [1, 2]}, {"a": 1})
        with pytest.raises(WrongShapeError):
            greedy_furthest(inst, 1)

    def test_rejects_holes(self):
        with pytest.raises(UnsupportedModeError):
            greedy_furthest(BELADY, 1, mode=HOLES)

    def test_cardinality_optimal_vs_brute(self):
        rng = seeded(11)
        for _ in range(80):
            inst = random_linear_ranges(rng, n_max=10, m_max=14)
            for r in range(1, inst.omega + 1):
                got = len(greedy_furthest(inst, r).spilled)
                want = len(brute_force(inst, r, NOHOLES).spilled)
                assert got == want


class TestWeightedOptimal:
    def test_weighted_fixture(self):
        sol = weighted_optimal(BELADY_W, 1)
        assert sol.spilled == {"b", "c"} and sol.cost == 2

    def test_trivial_r(self):
        sol = weighted_optimal(BELADY_W, 2)
        assert sol.spilled == frozenset() and sol.cost == 0

    def test_matches_brute(self):
        rng = seeded(12)
        for _ in range(80):
            inst = random_linear_ranges(rng, n_max=10, m_max=14, w_max=20)
            for r in range(0, inst.omega + 1):
                assert weighted_optimal(inst, r).cost == \
                    brute_force(inst, r, NOHOLES).cost

    def test_flow_is_integral(self):
        rng = seeded(13)
        for _ in range(40):
            inst = random_linear_ranges(rng, n_max=10, m_max=14, w_max=20)
            r = rng.randint(0, inst.omega)
            _, flows, _ = _flow_solve(inst, r)
            assert all(f in (0, 1) for f in flows.values())

    def test_never_live_variable_is_refused(self):
        # c has an empty range, which no strict SSA variable has
        inst = Instance.from_ranges(LINEAR, [Point(1), Point(2)],
                                    {"a": [1, 2], "b": [1, 2], "c": []},
                                    {"a": 1, "b": 2, "c": 3})
        for solve in (weighted_optimal, lambda inst, r: brute_force(
                inst, r, NOHOLES)):
            with pytest.raises(MalformedCodeError, match=(
                    r"needs a valid instance; \[range\] c: empty live "
                    "range$")):
                solve(inst, 1)

    def test_matches_network_simplex_at_scale(self):
        # networkx's network simplex on the same r-unit flow, at sizes
        # brute force cannot reach; the targets take both starts (the
        # empty flow for r <= omega - r, the all-kept flow above) and
        # their tie at even omega
        for seed in range(6):
            rng = seeded(40 + seed)
            inst = random_linear_block(rng, rng.randint(100, 400),
                                       mean_len=rng.choice((4, 8, 16)))
            om = inst.omega
            for r in sorted({1, 2, om // 2, (om + 1) // 2, om - 2, om - 1}):
                assert weighted_optimal(inst, r).cost == _simplex_cost(inst, r)
                _, flows, _ = _flow_solve(inst, r)
                assert set(flows.values()) <= {0, 1}
            assert weighted_optimal(inst, om - 1).cost == \
                incremental_cover_dp(inst).cost

    def test_one_search_at_omega_minus_one(self):
        # from the all-kept flow, r = omega - 1 is one shortest-path
        # search; r searches from the empty flow took 18,017 pops on this
        # block (27,267 on perfbench's 1,000-point weighted block)
        inst = random_linear_block(seeded(1), 1000)
        sol = weighted_optimal(inst, inst.omega - 1)
        assert sol.cost == incremental_cover_dp(inst).cost
        assert sol.steps < 18_017 // 10

    def test_monotone_in_r(self):
        rng = seeded(14)
        for _ in range(30):
            inst = random_linear_ranges(rng, n_max=10, m_max=14, w_max=20)
            costs = [weighted_optimal(inst, r).cost
                     for r in range(inst.omega + 1)]
            assert all(a >= b for a, b in zip(costs, costs[1:]))

    def test_unit_weights_match_greedy_cardinality(self):
        rng = seeded(15)
        for _ in range(40):
            inst = random_linear_ranges(rng, n_max=10, m_max=14)
            for r in range(1, inst.omega + 1):
                assert len(weighted_optimal(inst, r).spilled) == \
                    len(greedy_furthest(inst, r).spilled)


def _simplex_cost(inst, r):
    """The least spill cost at r by network simplex: r units along the
    sample chain, each live variable a unit bypass paying minus its
    weight."""
    g = nx.MultiDiGraph()
    bounds = sorted({0, len(inst.samples)}.union(
        *((s, e + 1) for s, e in inst.spans.values())))
    for a, b in zip(bounds, bounds[1:]):
        g.add_edge(a, b, capacity=r, weight=0)
    for v, (s, e) in inst.spans.items():
        g.add_edge(s, e + 1, capacity=1, weight=-int(inst.weight(v)))
    g.nodes[0]["demand"] = -r
    g.nodes[len(inst.samples)]["demand"] = r
    kept, _ = nx.network_simplex(g)
    return sum(map(inst.weight, inst.var_ids)) + Fraction(kept)


class TestIncrementalCover:
    def test_spec_fixture(self):
        inst = ranges_inst({"a": range(1, 5), "b": range(1, 3), "c": range(3, 5)},
                           {"a": 5, "b": 1, "c": 1})
        sol = incremental_cover_dp(inst)
        assert sol.spilled == {"b", "c"} and sol.cost == 2
        assert sol.achieved_omega <= inst.omega - 1

    def test_single_spanning_variable(self):
        inst = ranges_inst({"a": range(1, 6)})
        sol = incremental_cover_dp(inst)
        assert sol.spilled == {"a"}

    def test_single_peak_cheapest(self):
        inst = ranges_inst({"u": range(1, 3), "v": range(2, 4)},
                           {"u": 3, "v": 2})
        sol = incremental_cover_dp(inst)
        assert sol.spilled == {"v"} and sol.cost == 2

    def test_empty_instance_noop(self):
        inst = Instance.from_ranges(LINEAR, [Point(1)], {}, {})
        sol = incremental_cover_dp(inst)
        assert sol.spilled == frozenset() and sol.steps == 0

    def test_matches_brute_and_respects_steps(self):
        rng = seeded(16)
        for _ in range(80):
            inst = random_linear_ranges(rng, n_max=10, m_max=14, w_max=20)
            if inst.omega == 0:
                continue
            sol = incremental_cover_dp(inst)
            want = brute_force(inst, inst.omega - 1, NOHOLES)
            assert sol.cost == want.cost
            assert sol.steps <= 4 * inst.omega * inst.n_points


@pytest.mark.parametrize("others", [{"b": 5, "c": 5}, {"b": 5}],
                         ids=["b-c", "b"])
def test_gapped_range_is_refused(others):
    # a is live at points 1 and 3 but not 2. Solving a's hull spills
    # {a, c} at cost 6 where brute force finds 5, and without c the cover
    # DP reports pressure 1 for the target omega - 1 = 0.
    inst = Instance.from_ranges(LINEAR, [Point(1), Point(2), Point(3)],
                                {"a": [1, 3], **{v: [2] for v in others}},
                                {"a": 1, **others})
    assert [v.detail for v in validate(inst)] == [
        "interval range is not contiguous"]
    for what, solve in [("pressure", lambda: pressure(inst, (), NOHOLES)),
                        ("weighted_optimal", lambda: weighted_optimal(inst, 1)),
                        ("incremental_cover_dp",
                         lambda: incremental_cover_dp(inst)),
                        ("greedy_furthest", lambda: greedy_furthest(inst, 1))]:
        with pytest.raises(MalformedCodeError, match=(
                f"^{what} needs a valid instance; \\[range\\] a: interval "
                "range is not contiguous$")):
            solve()
