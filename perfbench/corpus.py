"""Seeded spill-v1 corpora: linear SSA basic blocks and dominance-tree codes.

The generators build def/use lists directly and write the text format
themselves, so the program under test receives only files it must parse,
and the benchmark's own checks (reference.py) read the same def/use
lists rather than anything the program computed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

LINEAR = "linear"
TREE = "tree"

H = 2  # most uses, and most defs, of one instruction
LOCAL_LEN = 8  # mean points from a local's definition to its last use
EDGE_FRAC = 0.02  # share of a block's variables that are live-in or live-out
DEPTH = 6  # a tree variable is used at most this many levels below its def
BRANCH = 0.2  # chance that a tree point does not hang below its predecessor


@dataclass(frozen=True)
class Code:
    """One SSA code. Points are 1..m; `parent[p]` is None for the root and
    for every point of a linear code, whose order is 1..m."""

    shape: str
    parent: dict
    uses: dict  # point -> tuple of variable ids
    defs: dict  # point -> tuple of variable ids
    weights: dict  # variable id -> positive int
    livein: frozenset
    liveout: frozenset

    @property
    def m(self):
        return len(self.parent)

    @property
    def n(self):
        return len(self.weights)


def spill_text(code):
    """The code in the spill-v1 text format."""
    out = ["format spill-v1", f"kind {code.shape}"]
    for p in range(1, code.m + 1):
        par = code.parent[p]
        out.append(f"point {p}" if par is None else f"point {p} parent {par}")
    if code.livein:
        out.append("livein " + ",".join(sorted(code.livein)))
    if code.liveout:
        out.append("liveout " + ",".join(sorted(code.liveout)))
    for p in range(1, code.m + 1):
        us, ds = code.uses[p], code.defs[p]
        if us or ds:
            out.append(f"instr {p} uses {','.join(sorted(us)) or '-'} "
                       f"defs {','.join(sorted(ds)) or '-'}")
    for v in sorted(code.weights):
        out.append(f"var {v} weight {code.weights[v]}")
    return "\n".join(out) + "\n"


def _freeze(table):
    return {p: tuple(vs) for p, vs in table.items()}


def linear_block(rng, m, weighted):
    """A basic block of m points and m variables.

    Locals are defined at a random point and used about LOCAL_LEN points
    later; EDGE_FRAC of the variables are live-in (used once at a random
    point) or live-out (defined at a random point). No instruction has
    more than H uses or H defs.
    """
    uses = {p: [] for p in range(1, m + 1)}
    defs = {p: [] for p in range(1, m + 1)}
    weights = {}
    livein = set()
    liveout = set()

    def free(table, lo, hi):
        for _ in range(8):
            p = rng.randint(lo, hi)
            if len(table[p]) < H:
                return p
        return None

    for i in range(m):
        v = f"v{i}"
        weights[v] = rng.randint(1, 9) if weighted else 1
        x = rng.random()
        if x < EDGE_FRAC / 2:
            u = free(uses, 1, m)
            if u is not None:
                livein.add(v)
                uses[u].append(v)
                continue
        d = free(defs, 1, m)
        if d is None:
            del weights[v]
            continue
        defs[d].append(v)
        if x < EDGE_FRAC or d == m:
            liveout.add(v)
            continue
        last = min(m, d + 1 + int(rng.expovariate(1.0 / (LOCAL_LEN - 1))))
        for u in {last, rng.randint(d + 1, last)}:
            if len(uses[u]) < H:
                uses[u].append(v)
    return Code(LINEAR, {p: None for p in range(1, m + 1)}, _freeze(uses),
                _freeze(defs), weights, frozenset(livein), frozenset(liveout))


def tree_code(rng, m, wide=False):
    """A dominance tree of m points carrying m variables.

    The tree is mostly chains: each point hangs below its predecessor,
    or with probability BRANCH below a random earlier point. Each
    variable is defined at a point (a few are live-in at the root) and
    used at one or two descendants at most DEPTH levels down. Weights
    are 1-9. A `wide` code gets one instruction with H + 2 uses, which
    makes with-holes targets below H + 2 infeasible.
    """
    parent = {1: None}
    for p in range(2, m + 1):
        parent[p] = p - 1 if rng.random() >= BRANCH else rng.randint(1, p - 1)
    children = {p: [] for p in parent}
    for p, par in parent.items():
        if par is not None:
            children[par].append(p)

    def below(p):
        """Descendants of p at most DEPTH levels down."""
        out = []
        frontier = children[p]
        for _ in range(DEPTH):
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
            top, pool = 1, [1] + below(1)
        else:
            top = rng.randint(1, m)
            if len(defs[top]) >= H:
                del weights[v]
                continue
            defs[top].append(v)
            pool = below(top)
        for u in rng.sample(pool, min(len(pool), rng.randint(1, 2))):
            if len(uses[u]) < H:
                uses[u].append(v)
    if wide:
        p = rng.randint(2, m)
        above = set(livein)
        q = parent[p]
        while q is not None:
            above.update(defs[q])
            q = parent[q]
        above -= set(uses[p])
        extra = H + 2 - len(uses[p])
        if len(above) >= extra:
            uses[p].extend(rng.sample(sorted(above), extra))
    return Code(TREE, parent, _freeze(uses), _freeze(defs), weights,
                frozenset(livein), frozenset())


def seeded(seed, *salt):
    """A Random for one part of the corpus, independent of the others."""
    return random.Random(repr((seed,) + salt))
