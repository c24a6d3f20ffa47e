"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The sweeps in criteria
8-9 quantify over all isomorphism classes of the small source families;
criterion 11 replays branch-and-bound against every brute-forceable case
the earlier criteria touched (deduplicated by instance identity). Each
criterion's brute-force answers come from an `lru_cache`d builder, so
criterion 11 sees the same cases whichever tests ran before it.
"""

import sys
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

from spillkit.errors import InfeasibleError
from spillkit.fileformat import parse, serialize
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
    Instance,
    Point,
    is_chordal,
    pressure,
)
from spillkit.oracle import branch_and_bound, brute_force, brute_force_all
from spillkit.punched import extra_set_dp
from spillkit.reductions import (
    ROLE_F,
    check_certificate,
    gen_indepset_h1,
    gen_indepset_h2,
    gen_mincover,
    gen_x3c,
)
from spillkit.sweeps import cover_sources, graph_instance, graphs_upto, x3c_sources
from spillkit.treedp import fitting_set_dp, fitting_set_dp_holes

from builders import (
    random_linear_code,
    random_linear_ranges,
    random_tree_code,
    random_tree_ranges,
    seeded,
)

def _passed(name):
    print(f"ACCEPTANCE {name}: PASS", flush=True)


@lru_cache(maxsize=None)
def _c1_optima():
    """(instance, r, brute-force optimum) for every r in 1..omega."""
    rng = seeded(101)
    insts = [random_linear_ranges(rng, n_max=12, m_max=20, w_max=1)
             for _ in range(300)]
    return tuple((inst, r, brute_force(inst, r, NOHOLES))
                 for inst in insts for r in range(1, inst.omega + 1))


@lru_cache(maxsize=None)
def _c2_optima():
    """(instance, brute-force optimum at each r in 0..omega)."""
    rng = seeded(102)
    insts = [random_linear_ranges(rng, n_max=12, m_max=20, w_max=20)
             for _ in range(300)]
    return tuple((inst, tuple(brute_force(inst, r, NOHOLES)
                              for r in range(inst.omega + 1)))
                 for inst in insts)


@lru_cache(maxsize=None)
def _c5_optima():
    """(tree instance, k, brute-force optimum at r = k) for k in 1..3."""
    rng = seeded(105)
    insts = [random_tree_ranges(rng, n_max=12, p_max=15, w_max=20)
             for _ in range(200)]
    return tuple((inst, k, brute_force(inst, k, NOHOLES))
                 for inst in insts for k in (1, 2, 3))


@lru_cache(maxsize=None)
def _c6_optima():
    """(tree code, k, brute-force optimum with holes at r = k), k in 1..2."""
    rng = seeded(106)
    insts = [random_tree_code(rng, n_max=10, p_max=10) for _ in range(200)]
    return tuple((inst, k, brute_force(inst, k, HOLES))
                 for inst in insts for k in (1, 2))


@lru_cache(maxsize=None)
def _c7_optima():
    """(h, linear code, k, brute_force_all with holes at r = omega - k)."""
    rng = seeded(107)
    codes = []
    for h in (1, 2):
        codes.extend((h, random_linear_code(rng, h, n_max=10, m_max=14))
                     for _ in range(100))
    return tuple((h, inst, k, brute_force_all(inst, inst.omega - k, HOLES))
                 for h, inst in codes for k in (1, 2))


def _checked(cert, pool):
    """(check result, certificate), the certificate holding the first
    Instance equal to the one generated: a sweep keeps one Instance per
    distinct declarative_key(), not one per bound of a source. The
    certificate is kept beside the result, which holds only verdicts."""
    cert = replace(cert, instance=pool.setdefault(cert.instance, cert.instance))
    return check_certificate(cert), cert


@lru_cache(maxsize=None)
def _c8_x3c():
    """(source, result, certificate) per X3C source."""
    pool = {}
    return tuple((x,) + _checked(gen_x3c(x), pool) for x in x3c_sources(9, 5))


@lru_cache(maxsize=None)
def _c8_cover():
    """(source, result, certificate) per minimum cover source."""
    pool = {}
    return tuple((c,) + _checked(gen_mincover(c), pool)
                 for c in cover_sources(6, 5))


@lru_cache(maxsize=None)
def _c8_graphs():
    """(graph, (result, certificate) for h = 2, the same for h = 1)."""
    pool = {}
    out = []
    for n, edges in graphs_upto(6):
        for bound in range(1, n + 1):
            g = graph_instance(n, edges, bound)
            out.append((g, _checked(gen_indepset_h2(g), pool),
                        _checked(gen_indepset_h1(g), pool)))
    return tuple(out)


def test_c01_greedy_optimality():
    for inst, r, want in _c1_optima():
        got = greedy_furthest(inst, r)
        assert len(got.spilled) == len(want.spilled), (inst, r)
    _passed("C1 greedy furthest-use matches the exhaustive optimum")


def test_c02_weighted_optimality_and_integrality():
    for inst, wants in _c2_optima():
        for r, want in enumerate(wants):
            got = weighted_optimal(inst, r)
            assert got.cost == want.cost, (inst, r)
        _, flows, _ = _flow_solve(inst, max(0, inst.omega - 1))
        assert all(f in (0, 1) for f in flows.values())
    _passed("C2 weighted flow optimum matches + flows are integral")


def test_c03_greedy_vs_weighted_regression():
    pts = [Point(i) for i in range(1, 11)]
    inst = Instance.from_ranges(
        LINEAR, pts,
        {"a": range(1, 11), "b": range(1, 6), "c": range(6, 11)},
        {"a": 10, "b": 1, "c": 1})
    greedy = greedy_furthest(inst, 1)
    optimal = weighted_optimal(inst, 1)
    assert greedy.spilled == {"a"} and greedy.cost == 10
    assert optimal.spilled == {"b", "c"} and optimal.cost == 2
    _passed("C3 greedy-vs-weighted regression fixture")


def test_c04_incremental_cover_dp():
    for inst, wants in _c2_optima():
        if inst.omega == 0:
            continue
        want = wants[inst.omega - 1]
        got = incremental_cover_dp(inst)
        assert got.cost == want.cost, inst
        assert got.steps <= 4 * inst.omega * inst.n_points, inst
    _passed("C4 incremental cover DP optimal at omega-1")


def test_c05_fitting_set_dp():
    c = 16
    for inst, k, want in _c5_optima():
        got = fitting_set_dp(inst, k)
        assert got.cost == want.cost, (inst, k)
        assert got.steps <= c * inst.n_points * (inst.omega + 1) ** k
    rng = seeded(155)
    for _ in range(60):
        inst = random_linear_ranges(rng, n_max=10, m_max=14, w_max=20)
        for k in (1, 2, 3):
            assert fitting_set_dp(inst, k).cost == weighted_optimal(inst, k).cost
    _passed("C5 fitting-set DP without holes: optimal, bounded steps")


def test_c06_fitting_set_dp_holes():
    feasible = infeasible = 0
    for inst, k, want in _c6_optima():
        try:
            got = fitting_set_dp_holes(inst, k)
        except InfeasibleError:
            got = None
        if got is None:
            assert not want.feasible, (inst, k)
            infeasible += 1
        else:
            assert want.feasible and got.cost == want.cost, (inst, k)
            feasible += 1
    assert feasible and infeasible  # both outcomes exercised
    _passed("C6 fitting-set DP with holes: optimal incl. infeasibility")


def test_c07_extra_set_dp_and_cardinality_bound():
    for h, inst, k, (want, optima, truncated) in _c7_optima():
        assert not truncated
        try:
            got = extra_set_dp(inst, k)
        except InfeasibleError:
            got = None
        if got is None:
            assert not want.feasible, (inst, k)
        else:
            assert want.feasible and got.cost == want.cost, (inst, k)
        cap = 2 * (h + k)
        for spilled in optima:
            for live in inst.live_at:
                assert len(live & spilled) <= cap, (inst, k)
    _passed("C7 extra-set DP optimal + per-point spilled-cardinality bound")


def test_c08_reduction_iff_sweeps():
    checked = 0
    for x, res, _ in _c8_x3c():
        assert res.equivalent, x
        checked += 1
    for c, res, _ in _c8_cover():
        assert res.equivalent, c
        checked += 1
    for g, (res2, _), (res1, _) in _c8_graphs():
        assert res2.equivalent, g
        assert res1.equivalent, g
        checked += 2
    assert checked == 109_127  # 500 + 106,293 + 2 x 1,167: no class lost
    _passed(f"C8 reduction iff sweeps ({checked} exhaustive checks)")


def test_c09_h1_gadget_parameters():
    all_optima_checked = 0
    for g, _, (res, cert) in _c8_graphs():
        alpha = cert.params["alpha"]
        beta = cert.params["beta"]
        E = len(g.edges)
        K = g.bound
        # feasible always, and the optimum never reaches the filler weight,
        # so no optimal solution can spill an f variable
        assert res.optimum is not None, g
        assert res.optimum <= K * alpha + 2 * E < beta, g
        # exact cost iff a stable set of size K exists
        assert (res.optimum == K * alpha + E) == res.source_answer, g
        if cert.instance.n_vars <= 14:
            _, optima, truncated = brute_force_all(
                cert.instance, cert.r, cert.mode)
            assert not truncated
            for spilled in optima:
                assert all(cert.roles[v] != ROLE_F for v in spilled), g
            all_optima_checked += 1
    assert all_optima_checked >= 30
    _passed(f"C9 h=1 gadget parameters ({all_optima_checked} all-optima "
            "enumerations)")


def test_c10_model_invariants_and_roundtrips():
    rng = seeded(110)
    pairs = 0
    while pairs < 1000:
        if rng.random() < 0.5:
            inst = random_linear_code(rng, rng.choice((1, 2, 3)),
                                      n_max=10, m_max=12)
        else:
            inst = random_tree_code(rng, n_max=10, p_max=10)
        spilled = {v for v in inst.variables if rng.random() < 0.4}
        bare = pressure(inst, spilled, NOHOLES).values
        punched = pressure(inst, spilled, HOLES).values
        for lo, hi in zip(bare, punched):
            assert lo <= hi <= lo + inst.h
        assert is_chordal(inst)[0]
        pairs += 1
    # byte-stable round-trips: fixtures and every sweep-generated instance
    # (deduplicated: a cover source generates one instance for all bounds)
    rng = seeded(111)
    fixtures = [random_linear_ranges(rng, w_max=9) for _ in range(25)]
    fixtures += [random_tree_ranges(rng) for _ in range(25)]
    fixtures += [random_linear_code(rng, 2) for _ in range(25)]
    generated = [cert.instance for _, _, cert in _c8_x3c()]
    generated += [cert.instance for _, _, cert in _c8_cover()]
    for _, (_, cert2), (_, cert1) in _c8_graphs():
        generated.append(cert2.instance)
        generated.append(cert1.instance)
    seen = set()
    checked = 0
    for inst in fixtures + generated:
        key = inst.declarative_key()
        if key in seen:
            continue
        seen.add(key)
        text = serialize(inst)
        again = parse(text)
        assert again == inst
        assert serialize(again) == text
        checked += 1
    _passed(f"C10 model invariants ({pairs} pairs) + byte-stable round-trips "
            f"({checked} distinct instances)")


def _brute_registry():
    """Every (instance, r, mode) criteria 1-8 solved by brute force,
    deduplicated: key -> (instance, r, mode, feasible, cost)."""
    cases = [(inst, r, NOHOLES, s.feasible, s.cost)
             for inst, r, s in _c1_optima()]
    cases += [(inst, r, NOHOLES, s.feasible, s.cost)
              for inst, wants in _c2_optima() for r, s in enumerate(wants)]
    cases += [(inst, k, NOHOLES, s.feasible, s.cost)
              for inst, k, s in _c5_optima()]
    cases += [(inst, k, HOLES, s.feasible, s.cost)
              for inst, k, s in _c6_optima()]
    cases += [(inst, inst.omega - k, HOLES, s.feasible, s.cost)
              for _, inst, k, (s, _, _) in _c7_optima()]
    c8 = [(res, cert) for _, res, cert in _c8_x3c()]
    c8 += [(res, cert) for _, res, cert in _c8_cover()]
    c8 += [checked for _, *pair in _c8_graphs() for checked in pair]
    cases += [(cert.instance, cert.r, cert.mode, res.optimum is not None,
               res.optimum)
              for res, cert in c8 if res.solver == "brute"]
    return {(inst.declarative_key(), r, mode): (inst, r, mode, feasible, cost)
            for inst, r, mode, feasible, cost in cases if inst.n_vars <= 20}


def test_c11_oracle_agreement():
    registry = _brute_registry()
    assert registry
    disagreements = 0
    for inst, r, mode, feasible, cost in registry.values():
        got = branch_and_bound(inst, r, mode)
        assert got.proven_optimal
        if got.feasible != feasible or (feasible and got.cost != cost):
            disagreements += 1
    assert disagreements == 0
    _passed(f"C11 oracle agreement over {len(registry)} brute-forceable "
            "cases")


if __name__ == "__main__":
    sys.exit("run via pytest")
