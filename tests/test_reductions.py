from dataclasses import fields
from fractions import Fraction

import pytest

from spillkit.model import HOLES, NOHOLES, is_chordal, pressure, validate
from spillkit.oracle import brute_force
from spillkit.reductions import (
    INDEPSET1,
    INDEPSET2,
    MINCOVER,
    X3C,
    CoverInstance,
    GraphInstance,
    MapBackError,
    X3CInstance,
    check_reduction,
    decide_cover,
    decide_indepset,
    decide_x3c,
    gen_indepset_h1,
    gen_indepset_h2,
    gen_mincover,
    gen_x3c,
    map_back,
)

from builders import assert_chordal_witness

fs = frozenset


def triangle(bound):
    return GraphInstance(("a", "b", "c"),
                         (("a", "b"), ("a", "c"), ("b", "c")), bound)


class TestGenX3C:
    def test_omega_equals_triple_count(self):
        x = X3CInstance(tuple(f"e{i}" for i in range(6)),
                        (fs({"e0", "e1", "e2"}), fs({"e3", "e4", "e5"}),
                         fs({"e0", "e3", "e4"})))
        cert = gen_x3c(x)
        assert cert.instance.omega == 3
        assert cert.K == 2 and cert.r == 2
        # pressure is uniformly omega
        prof = pressure(cert.instance, set(), NOHOLES)
        assert set(prof.values) == {3}
        assert validate(cert.instance) == []
        assert is_chordal(cert.instance)[0]

    def test_repeated_triples_accepted(self):
        t = fs({"e1", "e2", "e3"})
        x = X3CInstance(("e1", "e2", "e3"), (t, t))
        cert = gen_x3c(x)
        assert cert.instance.omega == 2
        res = check_reduction(x, X3C)
        assert res.equivalent and res.source_answer and res.optimum == 1

    def test_no_cover_side(self):
        x = X3CInstance(tuple(f"e{i}" for i in range(1, 7)),
                        (fs({"e1", "e2", "e3"}), fs({"e1", "e4", "e5"}),
                         fs({"e1", "e2", "e6"})))
        res = check_reduction(x, X3C)
        assert res.equivalent and not res.source_answer
        assert res.optimum > res.certificate.K

    def test_variable_count_bound(self):
        x = X3CInstance(tuple(f"e{i}" for i in range(9)),
                        tuple(fs({f"e{3*i}", f"e{3*i+1}", f"e{3*i+2}"})
                              for i in range(3)))
        cert = gen_x3c(x)
        n, m = 3, 3
        assert cert.instance.n_vars <= 3 * n * m


class TestGenMincover:
    def test_uniform_pressure_and_iff(self):
        c = CoverInstance(("b1", "b2"),
                          (fs({"b1"}), fs({"b2"}), fs({"b1", "b2"})), 1)
        cert = gen_mincover(c)
        prof = pressure(cert.instance, set(), HOLES)
        assert set(prof.values) == {3}
        res = check_reduction(c, MINCOVER)
        assert res.equivalent and res.source_answer and res.optimum == 1

    def test_full_member_single_cover(self):
        c = CoverInstance(("b1", "b2", "b3"),
                          (fs({"b1", "b2", "b3"}), fs({"b1"})), 1)
        res = check_reduction(c, MINCOVER)
        assert res.source_answer and res.spill_answer

    def test_spill_all_always_covers_when_possible(self):
        c = CoverInstance(("b1", "b2"), (fs({"b1"}), fs({"b2"})), 2)
        res = check_reduction(c, MINCOVER)
        assert res.equivalent and res.spill_answer

    def test_h_tracks_family(self):
        # a point outside every member shows h as large as the family
        c = CoverInstance(("b1", "b2"), (fs({"b1"}), fs({"b1"}), fs({"b1"})), 1)
        cert = gen_mincover(c)
        assert cert.instance.h == 3


class TestGenIndepset2:
    def test_triangle_yes_and_no(self):
        yes = check_reduction(triangle(1), INDEPSET2)
        assert yes.equivalent and yes.source_answer
        no = check_reduction(triangle(2), INDEPSET2)
        assert no.equivalent and not no.source_answer
        assert no.optimum > no.certificate.K

    def test_h_is_two_with_edges(self):
        cert = gen_indepset_h2(triangle(1))
        assert cert.instance.h == 2

    def test_edgeless_spills_everything(self):
        g = GraphInstance(("a", "b"), (), 2)
        cert = gen_indepset_h2(g)
        assert cert.instance.h == 0
        res = check_reduction(g, INDEPSET2)
        assert res.equivalent and res.spill_answer


class TestGenIndepset1:
    def test_alpha_value(self):
        cert = gen_indepset_h1(triangle(1))
        assert cert.params["alpha"] == 7  # 2|E| + 1 with |E| = 3

    def test_h_is_one(self):
        cert = gen_indepset_h1(triangle(1))
        assert cert.instance.h == 1
        assert validate(cert.instance) == []

    def test_path_graph_cost(self):
        g = GraphInstance(("u", "v"), (("u", "v"),), 1)
        res = check_reduction(g, INDEPSET1)
        alpha = res.certificate.params["alpha"]
        assert res.equivalent and res.source_answer
        assert res.optimum == alpha + 1  # K*alpha + |E|

    def test_triangle_budget_exceeded(self):
        res = check_reduction(triangle(2), INDEPSET1)
        cert = res.certificate
        assert res.equivalent and not res.source_answer
        assert res.optimum > cert.K
        assert res.optimum <= 2 * cert.params["alpha"] + 2 * 3

    def test_no_optimum_spills_fillers(self):
        g = GraphInstance(("u", "v", "w"), (("u", "v"),), 2)
        cert = gen_indepset_h1(g)
        sol = brute_force(cert.instance, cert.r, cert.mode)
        assert all(cert.roles[v] != "f-filler" for v in sol.spilled)


class TestMapBack:
    def test_x3c_roundtrip(self):
        t1 = fs({"e1", "e2", "e3"})
        x = X3CInstance(("e1", "e2", "e3"), (t1, t1))
        cert = gen_x3c(x)
        sol = brute_force(cert.instance, cert.r, cert.mode)
        assert map_back(cert, sol) == fs({t1})

    def test_indepset2_vertex(self):
        cert = gen_indepset_h2(triangle(1))
        sol = brute_force(cert.instance, cert.r, cert.mode)
        picked = map_back(cert, sol)
        assert len(picked) == 1 and picked <= set(cert.source.vertices)

    def test_indepset2_normalizes_short_solutions(self):
        # two isolated vertices: spilling K-1 = 1 of them already fits
        g = GraphInstance(("a", "b", "c"), (("b", "c"),), 2)
        cert = gen_indepset_h2(g)
        sol = brute_force(cert.instance, cert.r, cert.mode)
        picked = map_back(cert, sol)
        assert len(picked) == 2
        assert ("b", "c") not in [tuple(sorted(picked))]

    def test_indepset1_extracts_stable_set(self):
        g = GraphInstance(("u", "v", "w"), (("u", "v"), ("v", "w")), 2)
        cert = gen_indepset_h1(g)
        sol = brute_force(cert.instance, cert.r, cert.mode)
        assert map_back(cert, sol) == {"u", "w"}

    def test_over_budget_rejected(self):
        cert = gen_x3c(X3CInstance(("e1", "e2", "e3"),
                                   (fs({"e1", "e2", "e3"}),)))
        sol = brute_force(cert.instance, cert.r, cert.mode)
        bloated = sol.__class__(
            spilled=frozenset(cert.instance.variables), cost=Fraction(99),
            achieved_omega=0, algorithm="fake", steps=0, mode=cert.mode)
        with pytest.raises(MapBackError):
            map_back(cert, bloated)

    def test_infeasible_rejected(self):
        cert = gen_mincover(CoverInstance(("b1",), (fs({"b1"}),), 1))
        infeasible = brute_force(cert.instance, cert.r, cert.mode).__class__(
            spilled=frozenset(), cost=None, achieved_omega=None,
            algorithm="fake", steps=0, mode=cert.mode, feasible=False)
        with pytest.raises(MapBackError):
            map_back(cert, infeasible)


class TestDeciders:
    def test_x3c(self):
        t = fs({"e1", "e2", "e3"})
        assert decide_x3c(X3CInstance(("e1", "e2", "e3"), (t,)))
        assert not decide_x3c(X3CInstance(
            tuple(f"e{i}" for i in range(1, 7)), (t,)))

    def test_cover(self):
        assert decide_cover(CoverInstance(("b1", "b2"),
                                          (fs({"b1", "b2"}),), 1))
        assert not decide_cover(CoverInstance(("b1", "b2"),
                                              (fs({"b1"}),), 1))

    def test_indepset(self):
        assert decide_indepset(triangle(1))
        assert not decide_indepset(triangle(2))


def test_generated_instances_validate_and_are_chordal():
    sources = [
        gen_x3c(X3CInstance(tuple(f"e{i}" for i in range(6)),
                            (fs({"e0", "e1", "e2"}), fs({"e1", "e3", "e4"})))),
        gen_mincover(CoverInstance(("b1", "b2", "b3"),
                                   (fs({"b1", "b2"}), fs({"b3"})), 1)),
        gen_indepset_h2(triangle(1)),
        gen_indepset_h1(triangle(1)),
    ]
    for cert in sources:
        assert validate(cert.instance) == []
        assert_chordal_witness(cert.instance)


def test_sweep_generated_instances_validate_and_are_chordal():
    from spillkit.sweeps import (
        cover_sources,
        graph_instance,
        graphs_upto,
        x3c_sources,
    )

    certs = []
    certs += [gen_x3c(x) for i, x in enumerate(x3c_sources(6, 4)) if i % 7 == 0]
    certs += [gen_mincover(c) for i, c in enumerate(cover_sources(4, 4))
              if i % 37 == 0]
    graphs = [graph_instance(n, e, 1) for n, e in graphs_upto(5)]
    certs += [gen_indepset_h2(g) for g in graphs[::5]]
    certs += [gen_indepset_h1(g) for g in graphs[::5]]
    assert len(certs) > 40
    for cert in certs:
        assert validate(cert.instance) == [], cert.kind
        assert_chordal_witness(cert.instance)


def test_result_keeps_the_source_not_the_instance():
    res = check_reduction(triangle(1), INDEPSET2)
    assert res.source == triangle(1)
    assert "certificate" not in {f.name for f in fields(res)}
    # the certificate is generated again, equal to the one checked
    assert res.certificate == gen_indepset_h2(triangle(1))
