"""Seeded random instance builders shared by the test suite."""

import random
import re
import signal
from contextlib import contextmanager

import pytest

from spillkit.errors import MalformedCodeError
from spillkit.model import (LINEAR, NOHOLES, TREE, Instance, Instruction,
                            Point, assign, bits, pressure, validate)
from spillkit.oracle import verify


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


def chain_tree_code(rng, m, wide=False, h=2, depth=6, branch=0.2):
    """A tree code shaped like the benchmark's: m points, mostly chains
    (a point hangs below a random earlier one with chance `branch`), and
    m variables, each defined at a point with at most h defs (the first
    two live-in at the root) and used at one or two descendants at most
    `depth` levels down, weights 1-9. A `wide` code gets one instruction
    with h + 2 uses, so its with-holes targets below h + 2 are infeasible."""
    parent = {1: None}
    for p in range(2, m + 1):
        parent[p] = p - 1 if rng.random() >= branch else rng.randint(1, p - 1)
    children = {p: [] for p in parent}
    for p, par in parent.items():
        if par is not None:
            children[par].append(p)

    def below(p):
        out = []
        frontier = children[p]
        for _ in range(depth):
            out.extend(frontier)
            frontier = [c for q in frontier for c in children[q]]
        return out

    uses = {p: [] for p in parent}
    defs = {p: [] for p in parent}
    weights = {}
    livein = set()
    for i in range(m):
        v = f"v{i}"
        weights[v] = rng.randint(1, 9)
        if i < 2:
            livein.add(v)
            pool = [1] + below(1)
        else:
            top = rng.randint(1, m)
            if len(defs[top]) >= h:
                del weights[v]
                continue
            defs[top].append(v)
            pool = below(top)
        for u in rng.sample(pool, min(len(pool), rng.randint(1, 2))):
            if len(uses[u]) < h:
                uses[u].append(v)
    if wide:
        p = rng.randint(2, m)
        above = set(livein)
        q = parent[p]
        while q is not None:
            above.update(defs[q])
            q = parent[q]
        above -= set(uses[p])
        extra = h + 2 - len(uses[p])
        if len(above) >= extra:
            uses[p].extend(rng.sample(sorted(above), extra))
    instrs = [Instruction(p, frozenset(uses[p]), frozenset(defs[p]))
              for p in parent if uses[p] or defs[p]]
    inst = Instance.from_code(TREE, [Point(p, q) for p, q in parent.items()],
                              instrs, weights, livein=livein)
    assert inst.problem is None
    return inst


def assert_registers(inst, spilled, mode):
    """assign's registers, checked against the live and chad masks: each
    kept variable and each chad `mode` counts on a spilled one has a
    register, no two of those present at one sample share one, and the
    registers are 0 .. max_pressure - 1, each used. Returns their count."""
    regs = assign(inst, spilled, mode)
    ids, s = inst.var_ids, sum(1 << inst.bit_of[v] for v in spilled)
    kept = chads = most = 0
    last = None
    rows = zip(inst.samples, inst.live_masks, inst.chads(mode))
    for (p, m), lm, cm in rows:
        keep, cut = lm & ~s, cm & s
        if keep == last and not cut:
            continue  # the sample before checked the same variables
        last = keep
        here = [ids[b] for b in bits(keep)]
        here += [(ids[b], p, m) for b in bits(cut)]
        taken = {regs.get(k) for k in here}
        assert len(taken) == len(here) and None not in taken, (inst, here)
        kept |= keep
        chads += cut.bit_count()
        most = max(most, len(here))
    assert len(regs) == kept.bit_count() + chads, inst
    assert most == pressure(inst, spilled, mode).max_pressure
    assert set(regs.values()) == set(range(most)), inst
    return most


def assert_no_liveness(inst):
    """An unsound instance keeps its record and no liveness: zero masks,
    omega 0, no spans; pressure and verify refuse it."""
    assert inst.problem
    zero = (0,) * len(inst.samples)
    assert inst.live_masks == inst.chad_masks == zero
    assert inst.omega == 0 and inst.spans == {}
    refusal = f"^pressure needs a valid instance; {re.escape(inst.problem)}$"
    with pytest.raises(MalformedCodeError, match=refusal):
        pressure(inst, (), NOHOLES)
    with pytest.raises(MalformedCodeError, match=refusal):
        verify(inst, (), 0, NOHOLES)


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
