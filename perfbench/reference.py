"""The benchmark's own answers, independent of spillkit's solvers.

Liveness is recomputed from the generator's def/use lists, optima of
weighted linear blocks come from networkx's network simplex, and the
reduction sources are decided by plain exhaustive search. Every sample
point is seen twice, a use moment then a def moment, as in spill-v1.
"""

from __future__ import annotations

from itertools import combinations

import networkx as nx

from corpus import LINEAR

USE = 0
DEF = 1


def liveness(code):
    """(live, chads): dicts (point, moment) -> set of variable ids.

    Linear: a variable is live from its def moment (or the block start if
    live-in) to its last use moment (or the block end if live-out).
    Tree: a variable is live on every path from a use up to its def (or
    up to the root if live-in): at the use moment of each point strictly
    below the def, and at the def moment of each point that has a use
    strictly below it, the def point included.
    """
    live = {(p, mom): set() for p in code.parent for mom in (USE, DEF)}
    chads = {(p, mom): set() for p in code.parent for mom in (USE, DEF)}
    def_at = {}
    use_at = {}
    for p in code.parent:
        for v in code.defs[p]:
            def_at[v] = p
            chads[(p, DEF)].add(v)
        for v in code.uses[p]:
            use_at.setdefault(v, []).append(p)
            chads[(p, USE)].add(v)

    for v in code.weights:
        d = def_at.get(v)
        us = use_at.get(v, [])
        if code.shape == LINEAR:
            first = (d, DEF) if d is not None else (1, USE)
            if v in code.liveout:
                last = (code.m, DEF)
            elif us:
                last = (max(us), USE)
            else:
                last = first
            lo = 2 * (first[0] - 1) + first[1]
            hi = 2 * (last[0] - 1) + last[1]
            for s in range(lo, hi + 1):
                live[(s // 2 + 1, s % 2)].add(v)
            continue
        if not us:
            live[(d, DEF) if d is not None else (1, USE)].add(v)
            continue
        for u in us:
            live[(u, USE)].add(v)
            q = u
            while q != d and code.parent[q] is not None:
                q = code.parent[q]
                live[(q, DEF)].add(v)
                if q != d:
                    live[(q, USE)].add(v)
    return live, chads


def pressures(code, spilled, holes, tables=None):
    """Per-sample pressure after spilling `spilled`."""
    live, chads = tables or liveness(code)
    spilled = set(spilled)
    out = {}
    for s, vs in live.items():
        p = len(vs - spilled)
        if holes:
            p += len(chads[s] & spilled)
        out[s] = p
    return out


def omega(code, tables=None):
    live, _ = tables or liveness(code)
    return max(len(vs) for vs in live.values())


def holes_floor(code, tables=None):
    """Least with-holes pressure reachable: every variable spilled leaves
    only its chads, so a target below this is infeasible."""
    _, chads = tables or liveness(code)
    return max(len(vs) for vs in chads.values())


def linear_optimum(code, r, tables=None):
    """Least spill cost keeping pressure <= r on a linear block, without
    holes: a min-cost flow of r units along the sample chain where each
    live interval is a unit-capacity bypass arc paying minus its weight.
    """
    live, _ = tables or liveness(code)
    span = {}
    for (p, mom), vs in live.items():
        s = 2 * (p - 1) + mom
        for v in vs:
            lo, hi = span.get(v, (s, s))
            span[v] = (min(lo, s), max(hi, s))
    coords = sorted({0, 2 * code.m} | {lo for lo, _ in span.values()}
                    | {hi + 1 for _, hi in span.values()})
    g = nx.MultiDiGraph()
    for a, b in zip(coords, coords[1:]):
        g.add_edge(a, b, capacity=r, weight=0)
    for v, (lo, hi) in span.items():
        g.add_edge(lo, hi + 1, capacity=1, weight=-code.weights[v])
    g.nodes[coords[0]]["demand"] = -r
    g.nodes[coords[-1]]["demand"] = r
    kept, _ = nx.network_simplex(g)
    return sum(code.weights.values()) + kept


def decide_x3c(elements, triples):
    """Some |elements|/3 triples cover every element exactly once."""
    want = set(elements)
    return any(set().union(*pick) == want
               for pick in combinations(triples, len(elements) // 3))


def decide_cover(ground, family, bound):
    """At most `bound` members cover the ground set."""
    want = set(ground)
    return any(set().union(*pick) == want
               for size in range(1, bound + 1)
               for pick in combinations(family, size))


def decide_indepset(vertices, edges, bound):
    """Some `bound` vertices are pairwise non-adjacent."""
    adjacent = {frozenset(e) for e in edges}
    return any(all(frozenset(pair) not in adjacent
                   for pair in combinations(pick, 2))
               for pick in combinations(vertices, bound))
