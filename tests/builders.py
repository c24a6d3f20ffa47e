"""Seeded random instance builders shared by the test suite."""

import random
import signal
from contextlib import contextmanager
from itertools import combinations

import networkx as nx

from spillkit.model import (LINEAR, TREE, Instance, Instruction, Point,
                            interference_graph, is_chordal, validate)


def random_linear_ranges(rng, n_max=12, m_max=20, w_max=1):
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    ranges = {}
    weights = {}
    for i in range(n):
        a, b = rng.randint(1, m), rng.randint(1, m)
        if a > b:
            a, b = b, a
        ranges[f"v{i}"] = range(a, b + 1)
        weights[f"v{i}"] = rng.randint(1, w_max)
    pts = sorted({p for r in ranges.values() for p in r})
    inst = Instance.from_ranges(LINEAR, [Point(p) for p in pts], ranges, weights)
    assert not validate(inst)
    return inst


def random_linear_block(rng, n, mean_len=8, w_max=9):
    """A range instance shaped like a basic block: n points, n variables,
    each live from a random point for about mean_len points (exponential,
    cut at the block's end), weights 1..w_max."""
    ranges = {}
    weights = {}
    for i in range(n):
        a = rng.randint(1, n)
        b = min(n, a + 1 + int(rng.expovariate(1 / (mean_len - 1))))
        ranges[f"v{i}"] = range(a, b + 1)
        weights[f"v{i}"] = rng.randint(1, w_max)
    return Instance.from_ranges(LINEAR, [Point(p) for p in range(1, n + 1)],
                                ranges, weights)


def random_tree_points(rng, p_max):
    npts = rng.randint(1, p_max)
    pts = [Point(1)]
    for pid in range(2, npts + 1):
        pts.append(Point(pid, rng.randint(1, pid - 1)))
    return pts


def random_tree_ranges(rng, n_max=12, p_max=15, w_max=20):
    pts = random_tree_points(rng, p_max)
    children = {}
    for p in pts:
        if p.parent is not None:
            children.setdefault(p.parent, []).append(p.id)
    n = rng.randint(1, n_max)
    ranges = {}
    weights = {}
    for i in range(n):
        top = rng.randint(1, len(pts))
        sel = {top}
        frontier = [top]
        while frontier:
            q = frontier.pop()
            for c in children.get(q, ()):
                if rng.random() < 0.5:
                    sel.add(c)
                    frontier.append(c)
        ranges[f"v{i}"] = sel
        weights[f"v{i}"] = rng.randint(1, w_max)
    inst = Instance.from_ranges(TREE, pts, ranges, weights)
    assert not validate(inst)
    return inst


def random_tree_code(rng, n_max=8, p_max=10, w_max=20, livein_p=0.25):
    pts = random_tree_points(rng, p_max)
    npts = len(pts)
    children = {}
    for p in pts:
        if p.parent is not None:
            children.setdefault(p.parent, []).append(p.id)

    def descendants(d):
        out = []
        stack = list(children.get(d, ()))
        while stack:
            q = stack.pop()
            out.append(q)
            stack.extend(children.get(q, ()))
        return out

    uses_at = {p.id: set() for p in pts}
    defs_at = {p.id: set() for p in pts}
    weights = {}
    livein = set()
    for i in range(rng.randint(1, n_max)):
        vid = f"v{i}"
        weights[vid] = rng.randint(1, w_max)
        if rng.random() < livein_p:
            livein.add(vid)
            pool = [p.id for p in pts]
        else:
            d = rng.randint(1, npts)
            defs_at[d].add(vid)
            pool = descendants(d)
        if pool:
            for u in rng.sample(pool, rng.randint(0, min(2, len(pool)))):
                if vid not in defs_at[u]:
                    uses_at[u].add(vid)
    instrs = [Instruction(p.id, frozenset(uses_at[p.id]), frozenset(defs_at[p.id]))
              for p in pts if uses_at[p.id] or defs_at[p.id]]
    inst = Instance.from_code(TREE, pts, instrs, weights, livein=livein)
    assert not validate(inst)
    return inst


def random_linear_code(rng, h, n_max=10, m_max=14, w_max=20,
                       livein_p=0.35, liveout_p=0.25):
    """Linear SSA code whose simultaneous-chad count is exactly h.

    The first point uses exactly h live-in variables, pinning h from
    below; every other instruction stays within h uses and h defs.
    """
    n = rng.randint(max(1, h), n_max)
    m = rng.randint(2, m_max)
    uses_at = {p: set() for p in range(1, m + 1)}
    defs_at = {p: set() for p in range(1, m + 1)}
    weights = {}
    livein = set()
    liveout = set()
    for i in range(n):
        vid = f"v{i}"
        weights[vid] = rng.randint(1, w_max)
        if i < h or rng.random() < livein_p:
            livein.add(vid)
            d = 0
        else:
            cands = [p for p in range(1, m + 1) if len(defs_at[p]) < h]
            if not cands:
                livein.add(vid)
                d = 0
            else:
                d = rng.choice(cands)
                defs_at[d].add(vid)
        if i < h:
            uses_at[1].add(vid)  # the h-pinning instruction
        else:
            lo = d + 1
            if lo <= m:
                for u in rng.sample(range(lo, m + 1),
                                    rng.randint(0, min(2, m - lo + 1))):
                    if len(uses_at[u]) < h and vid not in defs_at[u]:
                        uses_at[u].add(vid)
        if rng.random() < liveout_p:
            liveout.add(vid)
    instrs = [Instruction(p, frozenset(uses_at[p]), frozenset(defs_at[p]))
              for p in range(1, m + 1) if uses_at[p] or defs_at[p]]
    inst = Instance.from_code(LINEAR, [Point(p) for p in range(1, m + 1)],
                              instrs, weights, livein=livein, liveout=liveout)
    assert not validate(inst)
    assert inst.h == h, (inst.h, h)
    return inst


def assert_chordal_witness(inst):
    """is_chordal's witness lists every variable once, and each one's
    neighbours later in it are pairwise adjacent in the interference
    graph, which networkx also finds chordal."""
    adj = interference_graph(inst)
    ok, order = is_chordal(inst)
    assert ok and nx.is_chordal(nx.Graph(adj))
    pos = {v: i for i, v in enumerate(order)}
    assert sorted(order) == sorted(adj)
    for v in order:
        later = [u for u in adj[v] if pos[u] > pos[v]]
        assert all(b in adj[a] for a, b in combinations(later, 2)), (inst, v)


def seeded(seed):
    return random.Random(seed)


@contextmanager
def within(seconds):
    """Raise TimeoutError in the block once it has run `seconds`, so a
    test of a call that should end quickly fails instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
