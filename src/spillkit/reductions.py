"""Hardness-reduction instance generators with solution back-mapping.

Each generator turns a source combinatorial instance (exact cover by
3-sets, minimum cover, independent set) into a spill instance plus a
certificate tying generated variables to source objects, so feasible
spill solutions map back to source solutions and the equivalence can be
checked exhaustively at small scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import kernel, oracle
from .errors import InfeasibleError, SpillkitError
from .model import (HOLES, LINEAR, NOHOLES, TREE, Instance, Instruction, Point,
                    empty_solution)
from .punched import extra_set_dp

X3C = "x3c"
MINCOVER = "mincover"
INDEPSET2 = "indepset2"
INDEPSET1 = "indepset1"

ROLE_LABELED = "labeled"
ROLE_FILLER = "filler"
ROLE_VERTEX = "vertex"
ROLE_DELTA = "delta"
ROLE_F = "f-filler"


class MapBackError(SpillkitError):
    """Solution cannot be interpreted as a source-problem solution."""


@dataclass(frozen=True)
class X3CInstance:
    elements: tuple
    triples: tuple  # of frozenset; repeats permitted (a collection)

    def check(self):
        if len(self.elements) % 3 != 0 or not self.elements:
            raise ValueError("X3C needs 3n elements, n >= 1")
        elems = set(self.elements)
        if len(elems) != len(self.elements):
            raise ValueError("duplicate elements")
        for t in self.triples:
            if len(t) != 3 or not t <= elems:
                raise ValueError(f"triple {sorted(t)} is not a 3-subset")
        if not self.triples:
            raise ValueError("X3C needs at least one triple")


@dataclass(frozen=True)
class CoverInstance:
    ground: tuple
    family: tuple  # of frozenset
    bound: int

    def check(self):
        g = set(self.ground)
        if not g or len(g) != len(self.ground):
            raise ValueError("ground set must be nonempty without duplicates")
        for s in self.family:
            if not s or not s <= g:
                raise ValueError("family members must be nonempty subsets")
        if not 1 <= self.bound <= len(self.family):
            raise ValueError("bound must lie in 1..|family|")


@dataclass(frozen=True)
class GraphInstance:
    vertices: tuple
    edges: tuple  # of (u, v) with u < v
    bound: int

    def check(self):
        vs = set(self.vertices)
        if not vs or len(vs) != len(self.vertices):
            raise ValueError("vertices must be nonempty without duplicates")
        seen = set()
        for u, v in self.edges:
            if u == v or u not in vs or v not in vs or not u < v:
                raise ValueError(f"bad edge ({u},{v})")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
        if not 1 <= self.bound <= len(vs):
            raise ValueError("bound must lie in 1..|vertices|")


@dataclass(frozen=True)
class ReductionCertificate:
    kind: str
    source: object
    instance: Instance
    K: Fraction  # budget on the spill-cost scale
    r: int
    mode: str
    roles: dict = field(compare=False)
    params: dict = field(default_factory=dict, compare=False)


def gen_x3c(x: X3CInstance) -> ReductionCertificate:
    """Height-2 tree, one subtree per triple, leaf fillers to uniform
    pressure m; an exact cover of the 3n leaves is exactly a spill of n
    variables lowering Maxlive by one."""
    x.check()
    n = len(x.elements) // 3
    m = len(x.triples)
    leaf = {e: i + 2 for i, e in enumerate(x.elements)}
    points = [Point(1)] + [Point(leaf[e], 1) for e in x.elements]
    ranges = {}
    weights = {}
    roles = {}
    for j, t in enumerate(x.triples):
        vid = f"t{j}"
        ranges[vid] = {1} | {leaf[e] for e in t}
        weights[vid] = 1
        roles[vid] = ROLE_LABELED
    for e in x.elements:
        have = sum(1 for t in x.triples if e in t)
        for i in range(m - have):
            vid = f"fill_{e}_{i}"
            ranges[vid] = {leaf[e]}
            weights[vid] = 1
            roles[vid] = ROLE_FILLER
    inst = Instance.from_ranges(TREE, points, ranges, weights)
    return ReductionCertificate(X3C, x, inst, K=Fraction(n), r=m - 1,
                                mode=NOHOLES, roles=roles)


def gen_mincover(c: CoverInstance) -> ReductionCertificate:
    """Punched intervals as subsets: member variables span the block with
    a chad at every point outside the member; covering the ground set is
    exactly lowering the uniform pressure |family| by one."""
    c.check()
    pt = {b: i + 1 for i, b in enumerate(c.ground)}
    points = [Point(pt[b]) for b in c.ground]
    weights = {}
    roles = {}
    uses_at = {p.id: set() for p in points}
    for j, member in enumerate(c.family):
        vid = f"s{j}"
        weights[vid] = 1
        roles[vid] = ROLE_LABELED
        for b in c.ground:
            if b not in member:
                uses_at[pt[b]].add(vid)
    instrs = [Instruction(p, frozenset(us), frozenset())
              for p, us in sorted(uses_at.items()) if us]
    all_vars = set(weights)
    inst = Instance.from_code(LINEAR, points, instrs, weights,
                              livein=all_vars, liveout=all_vars)
    return ReductionCertificate(MINCOVER, c, inst, K=Fraction(c.bound),
                                r=len(c.family) - 1, mode=HOLES, roles=roles)


def gen_indepset_h2(g: GraphInstance) -> ReductionCertificate:
    """Full-block vertex variables, one two-use instruction per edge:
    spilling K variables reaches pressure |V|-K+1 iff they are stable."""
    g.check()
    n_pts = max(1, len(g.edges))
    points = [Point(i + 1) for i in range(n_pts)]
    weights = {v: 1 for v in g.vertices}
    roles = {v: ROLE_VERTEX for v in g.vertices}
    instrs = [Instruction(j + 1, frozenset({u, v}), frozenset())
              for j, (u, v) in enumerate(g.edges)]
    inst = Instance.from_code(LINEAR, points, instrs, weights,
                              livein=set(g.vertices), liveout=set(g.vertices))
    return ReductionCertificate(
        INDEPSET2, g, inst, K=Fraction(g.bound),
        r=len(g.vertices) - g.bound + 1, mode=HOLES, roles=roles)


def gen_indepset_h1(g: GraphInstance) -> ReductionCertificate:
    """Independent set with single-operand instructions (h = 1).

    Per edge (u,v), a seven-point region: u and v are used once each and
    two unit-weight local variables overlap between the uses; spilling u
    (or v) leaves a chad that only the covering local can relieve, and
    one sample per region carries pressure |V|+3 so some local must be
    spilled in every region. A filler layer of weight beta adds +1
    everywhere except at the locals' chad moments, and an extra
    filler-overlap point at block start pins the vertex-spill count to
    exactly K. Cost K*alpha + |E| is then achievable iff the spilled
    vertex variables form an independent set of size K.
    """
    g.check()
    E = len(g.edges)
    K = g.bound
    alpha = 2 * E + 1
    beta = K * alpha + 2 * E + 1

    weights = {}
    roles = {}
    for v in g.vertices:
        weights[v] = alpha
        roles[v] = ROLE_VERTEX
    livein = set(g.vertices)
    liveout = set(g.vertices)

    uses_at = {}
    defs_at = {}

    def instr(p, use=None, define=None):
        if use is not None:
            uses_at.setdefault(p, set()).add(use)
        if define is not None:
            defs_at.setdefault(p, set()).add(define)

    n_pts = 1 + 7 * E if E else 1
    instr(1, use="f_bump")
    weights["f_bump"] = beta
    roles["f_bump"] = ROLE_F
    livein.add("f_bump")

    for j, (u, v) in enumerate(g.edges):
        base = 2 + 7 * j
        g0, g1, g2, g3, g4, g5, g6 = range(base, base + 7)
        da, db, fm = f"da{j}", f"db{j}", f"fm{j}"
        for vid in (da, db):
            weights[vid] = 1
            roles[vid] = ROLE_DELTA
        weights[fm] = beta
        roles[fm] = ROLE_F
        instr(g0, define=da)
        instr(g1, use=u)
        instr(g2, use=f"fs{j}", define=db)
        instr(g3, define=fm)
        instr(g4, use=da, define=f"fs{j + 1}")
        instr(g5, use=v)
        instr(g6, use=db)

    # Seam fillers chain across regions: fs0 is live-in and dies inside the
    # first region; fs{E} is born inside the last region and is live-out.
    if E:
        for j in range(E + 1):
            weights[f"fs{j}"] = beta
            roles[f"fs{j}"] = ROLE_F
        livein.add("fs0")
        liveout.add(f"fs{E}")
    else:
        weights["f_solo"] = beta
        roles["f_solo"] = ROLE_F
        livein.add("f_solo")
        liveout.add("f_solo")

    points = [Point(i + 1) for i in range(n_pts)]
    instrs = [Instruction(p, frozenset(uses_at.get(p, ())),
                          frozenset(defs_at.get(p, ())))
              for p in range(1, n_pts + 1)
              if uses_at.get(p) or defs_at.get(p)]
    inst = Instance.from_code(LINEAR, points, instrs, weights,
                              livein=livein, liveout=liveout)
    return ReductionCertificate(
        INDEPSET1, g, inst, K=Fraction(K * alpha + E),
        r=len(g.vertices) - K + 2, mode=HOLES, roles=roles,
        params={"alpha": alpha, "beta": beta})


def map_back(cert: ReductionCertificate, sol):
    """Restrict a feasible within-budget solution to role-tagged variables
    and normalize it into a source-problem solution."""
    if not sol.feasible or sol.cost is None or sol.cost > cert.K:
        raise MapBackError("solution is infeasible or over budget; nothing to map")
    bad = oracle.verify(cert.instance, sol.spilled, cert.r, cert.mode)
    if bad:
        raise MapBackError(f"solution does not verify at r={cert.r}: {bad[:3]}")

    if cert.kind == X3C:
        picked = [v for v in sol.spilled if cert.roles[v] == ROLE_LABELED]
        if len(picked) != len(sol.spilled):
            raise MapBackError("spill set contains non-labeled variables")
        return frozenset(cert.source.triples[int(v[1:])] for v in picked)

    if cert.kind == MINCOVER:
        return frozenset(cert.source.family[int(v[1:])] for v in sol.spilled)

    if cert.kind == INDEPSET2:
        chosen = {v for v in sol.spilled if cert.roles[v] == ROLE_VERTEX}
        adj = _adjacency(cert.source)
        # a feasible spill one short of K only arises from isolated
        # vertices, so the stable set can always be grown to size K
        for v in cert.source.vertices:
            if len(chosen) >= cert.source.bound:
                break
            if v not in chosen and not adj[v] & chosen:
                chosen.add(v)
        if len(chosen) < cert.source.bound:
            raise MapBackError("could not normalize to a stable set of size K")
        return frozenset(chosen)

    if cert.kind == INDEPSET1:
        return frozenset(v for v in sol.spilled if cert.roles[v] == ROLE_VERTEX)

    raise MapBackError(f"unknown reduction kind {cert.kind!r}")


def _adjacency(g: GraphInstance):
    adj = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


# ---------------------------------------------------------------------
# Exhaustive source-side deciders (desk scale only)
# ---------------------------------------------------------------------

def decide_x3c(x: X3CInstance) -> bool:
    x.check()
    n = len(x.elements) // 3
    universe = frozenset(x.elements)
    for combo in combinations(range(len(x.triples)), n):
        joined = frozenset().union(*(x.triples[j] for j in combo))
        if joined == universe:  # n size-3 triples covering 3n items: disjoint
            return True
    return False


def decide_cover(c: CoverInstance) -> bool:
    c.check()
    universe = frozenset(c.ground)
    for size in range(1, c.bound + 1):
        for combo in combinations(c.family, size):
            if frozenset().union(*combo) == universe:
                return True
    return False


def decide_indepset(g: GraphInstance) -> bool:
    g.check()
    adj = _adjacency(g)
    for combo in combinations(g.vertices, g.bound):
        s = set(combo)
        if all(not adj[v] & s for v in combo):
            return True
    return False


_DECIDERS = {X3C: decide_x3c, MINCOVER: decide_cover,
             INDEPSET2: decide_indepset, INDEPSET1: decide_indepset}
_GENERATORS = {X3C: gen_x3c, MINCOVER: gen_mincover,
               INDEPSET2: gen_indepset_h2, INDEPSET1: gen_indepset_h1}


@dataclass(frozen=True)
class CheckResult:
    """The verdicts of one reduction check. It keeps the source, not the
    generated instance, so that a sweep can keep many results."""

    kind: str
    source_answer: bool
    spill_answer: bool
    equivalent: bool
    optimum: Fraction  # None when the instance is infeasible at r
    source: object
    solver: str

    @property
    def certificate(self) -> ReductionCertificate:
        """The certificate checked, generated again from the source
        (generation is deterministic)."""
        return _GENERATORS[self.kind](self.source)


# Brute force runs when n <= kernel.MAX_VARS and 2^n times the distinct
# rows is at most this. The kernel's search stops at the optimum, so this
# bounds what a search that finds nothing cheap could cost, not what a
# search does cost; it also fixes the solver each check reports.
WORK_BUDGET = 300_000_000


def solve_certificate(cert: ReductionCertificate):
    """Exact optimum of a generated instance, picking the cheapest exact
    solver the instance admits: brute force within WORK_BUDGET, the
    punched-interval DP for linear with-holes instances, else branch and
    bound run to proven optimality."""
    inst = cert.instance
    n = inst.n_vars
    rows = len(set(zip(inst.live_masks, inst.chads(cert.mode))))
    if n <= kernel.MAX_VARS and (1 << n) * rows <= WORK_BUDGET:
        return oracle.brute_force(inst, cert.r, cert.mode), "brute"
    if inst.shape == LINEAR and cert.mode == HOLES and cert.r < inst.omega:
        try:
            return extra_set_dp(inst, inst.omega - cert.r), "dp-extra"
        except InfeasibleError:
            return (empty_solution(inst, cert.mode, "dp-extra", feasible=False),
                    "dp-extra")
    sol = oracle.branch_and_bound(inst, cert.r, cert.mode,
                                  node_budget=50_000_000)
    if not sol.proven_optimal:
        raise SpillkitError("branch-and-bound budget exhausted during check")
    return sol, "bnb"


def check_reduction(source, kind) -> CheckResult:
    """Decide the source problem exhaustively, solve the generated spill
    instance exactly, and assert the reduction's iff."""
    return check_certificate(_GENERATORS[kind](source))


def check_certificate(cert: ReductionCertificate) -> CheckResult:
    """check_reduction for a certificate already generated."""
    source_yes = _DECIDERS[cert.kind](cert.source)
    sol, solver = solve_certificate(cert)
    spill_yes = sol.feasible and sol.cost <= cert.K
    return CheckResult(
        kind=cert.kind,
        source_answer=source_yes,
        spill_answer=spill_yes,
        equivalent=source_yes == spill_yes,
        optimum=sol.cost if sol.feasible else None,
        source=cert.source,
        solver=solver,
    )
