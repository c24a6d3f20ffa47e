"""Programs, live ranges, hole/chad semantics, and register pressure.

Instances come in two flavours. Code-backed instances carry instructions
(uses/defs per point) from which live ranges and chads are derived; they
support both pressure modes. Pure range instances give each variable's
covered points directly and only support the without-holes mode.

Every program point is sampled twice, a use moment followed by a def
moment: an instruction first reads its operands, then writes its results,
so a variable born at a point never overlaps one dying there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import lcm
from typing import Optional

from .errors import MalformedCodeError, UnsupportedModeError

USE = "use"
DEF = "def"

LINEAR = "linear"
TREE = "tree"

NOHOLES = "noholes"
HOLES = "holes"


def check_mode(mode):
    if mode not in (NOHOLES, HOLES):
        raise ValueError(f"unknown pressure mode {mode!r}")
    return mode


@dataclass(frozen=True)
class Point:
    id: int
    parent: Optional[int] = None


@dataclass(frozen=True)
class Instruction:
    at: int
    uses: frozenset
    defs: frozenset


@dataclass(frozen=True)
class LiveRange:
    kind: str  # "interval" | "subtree"
    points: frozenset


@dataclass(frozen=True)
class Variable:
    id: str
    weight: Fraction
    range: LiveRange
    chads: frozenset  # of (point id, USE|DEF)


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    detail: str

    def __str__(self):
        return f"[{self.code}] {self.subject}: {self.detail}"


@dataclass(frozen=True)
class PressureProfile:
    samples: tuple  # of (point id, moment)
    values: tuple  # of int, parallel to samples
    mode: str

    @property
    def max_pressure(self):
        return max(self.values) if self.values else 0

    def at(self, point, moment):
        return self.values[self.samples.index((point, moment))]


@dataclass(frozen=True)
class SpillSolution:
    spilled: frozenset
    cost: Optional[Fraction]
    achieved_omega: Optional[int]
    algorithm: str
    steps: int
    mode: str = NOHOLES
    feasible: bool = True
    proven_optimal: bool = True


class Instance:
    """An immutable spill-everywhere instance with precomputed liveness.

    Build one with from_code (liveness derived from instructions; the
    constructor's `ranges` is None) or from_ranges (ranges given). Do not
    mutate after construction; solvers assume all derived tables (sample
    order, live and chad masks, spans, omega, h) are frozen. Bit i of a
    mask stands for var_ids[i], the sorted ids; spans[v] is the first and
    last sample at which v is live (absent if v is never live).
    """

    def __init__(self, shape, points, weights, ranges=None, instructions=(),
                 livein=frozenset(), liveout=frozenset()):
        self.shape = shape
        self.points = tuple(points)
        self.code_backed = ranges is None
        self.instructions = tuple(instructions) if self.code_backed else None
        self.livein = frozenset(livein)
        self.liveout = frozenset(liveout)

        order, children = _point_structure(shape, self.points)
        self.point_order = order  # point ids, chain order or DFS preorder
        self.children = children  # point id -> tuple of child ids
        self.point_pos = {p: i for i, p in enumerate(order)}
        self.parent_of = {p.id: p.parent for p in self.points}
        # Two samples per point, use moment first: (p, USE) is sample
        # 2 * point_pos[p] and (p, DEF) the one after it.
        self.samples = tuple((p, m) for p in order for m in (USE, DEF))

        # a bit flips on at each run's first sample and off after its last
        flips = [0] * (len(self.samples) + 1)
        chad = [0] * len(self.samples)
        kind = "interval" if shape == LINEAR else "subtree"
        self.variables = {}  # id -> Variable, in sorted id order
        self.spans = {}
        for i, (vid, chads, rng, runs) in enumerate(self._derive(weights,
                                                                 ranges)):
            bit = 1 << i
            for a, b in runs:
                flips[a] ^= bit
                flips[b + 1] ^= bit
            if runs:
                self.spans[vid] = (min(runs)[0], max(runs)[1])
            for p, m in chads:
                if p in self.point_pos:
                    chad[2 * self.point_pos[p] + (m == DEF)] |= bit
            self.variables[vid] = Variable(vid, Fraction(weights[vid]),
                                           LiveRange(kind, frozenset(rng)),
                                           frozenset(chads))
        self.var_ids = tuple(self.variables)
        self.live_masks = tuple(accumulate(flips[:-1], int.__xor__))
        self.chad_masks = tuple(chad)
        self.omega = max((m.bit_count() for m in self.live_masks), default=0)
        self.h = max((max(len(i.uses), len(i.defs))
                      for i in self.instructions or ()), default=0)

    # -- construction -------------------------------------------------

    @classmethod
    def from_code(cls, shape, points, instructions, weights,
                  livein=(), liveout=()):
        """Build a code-backed instance; ranges and chads are derived.

        `weights` maps every variable id to its spill cost. Structural
        problems (double definition, use outside the definition's scope,
        a point off the tree) do not raise here: construction is tolerant
        so that validate() can report them as data.
        """
        return cls(shape, points, weights, instructions=instructions,
                   livein=livein, liveout=liveout)

    @classmethod
    def from_ranges(cls, shape, points, ranges, weights):
        """Build a pure range instance: `ranges` maps id -> iterable of points."""
        return cls(shape, points, weights, ranges=ranges)

    def _derive(self, weights, ranges):
        """(id, chads, range points, live sample runs) per variable; a run
        is a (first, last) pair of sample indices, and runs are disjoint."""
        pos = self.point_pos
        if not self.code_backed:
            for vid in sorted(ranges):
                rng = frozenset(ranges[vid])
                yield vid, (), rng, [(2 * pos[p], 2 * pos[p] + 1)
                                     for p in rng if p in pos]
            return
        def_at = {}
        uses_at = {}  # var -> use points, in instruction order
        for ins in self.instructions:
            for v in ins.defs:
                def_at.setdefault(v, ins.at)
            for v in ins.uses:
                uses_at.setdefault(v, []).append(ins.at)
        for vid in sorted(weights):
            d, uses = def_at.get(vid), uses_at.get(vid, ())
            chads = {(d, DEF)} if d is not None else set()
            chads.update((u, USE) for u in uses)
            yield (vid, chads) + self._liveness(vid, d, uses)

    def _liveness(self, vid, d, uses):
        """(range points, live sample runs) of one code-backed variable
        defined at d (or None) and used at `uses`.

        A linear range is one run of samples, from the definition (or the
        block entry for live-in, or the first use) to the last use (or
        the block exit for live-out). A tree range is the union of the
        walks from each use up to the definition (or the root for
        live-in); each point is walked once, and a walk that leaves the
        tree or circles keeps only its use, for validate() to report.
        """
        pos = self.point_pos
        if self.shape == LINEAR:
            ups = [2 * pos[u] for u in uses if u in pos]
            if d in pos:
                s0 = 2 * pos[d] + 1
            elif vid in self.livein and pos:
                s0 = 0
            elif ups:
                s0 = min(ups)
            else:
                return (), ()
            s1 = (len(self.samples) - 1 if vid in self.liveout
                  else max(ups) if ups else s0)
            if s1 < s0:
                s0, s1 = s1, s0  # malformed code, tolerated for validate()
            return self.point_order[s0 // 2:s1 // 2 + 1], [(s0, s1)]

        if d is not None:
            top = d
        elif vid in self.livein and pos:
            top = self.point_order[0]
        elif uses:
            top = min(uses, key=lambda u: pos.get(u, len(pos)))
        else:
            return (), ()
        reached = {top}  # joined to top by parent links
        dead = set()  # walks from these never meet top
        rng = {top}
        for u in uses:
            path = set()
            q = u
            while q not in reached:
                if q in path or q in dead or q not in pos:
                    dead |= path
                    rng.add(u)  # kept alone, for validate() to flag
                    break
                path.add(q)
                q = self.parent_of[q]
            else:
                reached |= path
        rng |= reached
        has_kid = {self.parent_of.get(q) for q in rng}
        runs = []
        for p in rng:
            if p in pos:
                # live before p's instruction unless defined there; live
                # after it if the range goes on into a child, or if the
                # variable is defined at p and never used
                first = 2 * pos[p] + (p == d)
                last = 2 * pos[p] + (p in has_kid or (p == d and len(rng) == 1))
                if first <= last:
                    runs.append((first, last))
        return rng, runs

    # -- convenience --------------------------------------------------

    @property
    def n_vars(self):
        return len(self.variables)

    @property
    def n_points(self):
        return len(self.points)

    def var_order(self):
        return list(self.var_ids)

    def decode(self, mask):
        """The variable ids in `mask`."""
        return frozenset(map(self.var_ids.__getitem__, bits(mask)))

    @property
    def live_at(self):
        """Per-sample frozensets of live ids, decoded on every access."""
        return tuple(map(self.decode, self.live_masks))

    @property
    def chads_at(self):
        """Per-sample frozensets of chad ids, decoded on every access."""
        return tuple(map(self.decode, self.chad_masks))

    def weight(self, vid):
        return self.variables[vid].weight

    def cost_of(self, spilled):
        return sum((self.variables[v].weight for v in spilled), Fraction(0))

    def unweighted(self):
        weights = {v.weight for v in self.variables.values()}
        return len(weights) <= 1

    def declarative_key(self):
        """Structure used for round-trip equality of parsed instances."""
        return (
            self.shape, self.code_backed, self.points,
            tuple(sorted(self.instructions or (),
                         key=lambda i: self.point_pos.get(i.at, -1))) if self.code_backed else None,
            tuple(sorted(self.livein)), tuple(sorted(self.liveout)),
            tuple(sorted((v.id, v.weight, v.range) for v in self.variables.values())),
        )

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return self.declarative_key() == other.declarative_key()

    def __hash__(self):
        return hash(self.declarative_key())

    def __repr__(self):
        return (f"Instance({self.shape}, m={self.n_points}, n={self.n_vars}, "
                f"omega={self.omega}, h={self.h})")


class MaskView:
    """The bit-mask view of an instance that the solvers read, built per
    call and not kept on the instance.

    Bit i stands for variable order[i] (the instance's sorted ids unless
    the caller passes an order), and weights[i] is order[i]'s weight
    times `scale`, the lcm of the denominators. live() and chad() list
    each sample's mask of live variables and of chads: the instance's
    own masks, remapped when the caller's order differs.
    """

    def __init__(self, instance, order=None):
        self.order = instance.var_order() if order is None else list(order)
        self.bit = {v: 1 << i for i, v in enumerate(self.order)}
        ws = [instance.variables[v].weight for v in self.order]
        self.scale = lcm(*(w.denominator for w in ws))
        self.weights = [w.numerator * (self.scale // w.denominator) for w in ws]
        live, chad = instance.live_masks, instance.chad_masks
        if order is not None and tuple(self.order) != instance.var_ids:
            moved = [self.bit[v] for v in instance.var_ids]
            live, chad = ([sum(map(moved.__getitem__, bits(m))) for m in ms]
                          for ms in (live, chad))
        self._live, self._chad = list(live), list(chad)

    def live(self):
        return self._live

    def chad(self):
        return self._chad

    def weight(self, mask):
        """Scaled weight of the variables in `mask`."""
        return sum(map(self.weights.__getitem__, bits(mask)))

    def decode(self, mask):
        """The variable ids in `mask`."""
        return frozenset(map(self.order.__getitem__, bits(mask)))


def bits(mask):
    """The indices of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def run_starts(columns):
    """The index of the first column of each run of equal consecutive
    columns; solvers that sweep the samples in order visit only these."""
    return [i for i, c in enumerate(columns) if i == 0 or c != columns[i - 1]]


def _point_structure(shape, points):
    """Validate nothing; just produce a usable order and child map."""
    ids = [p.id for p in points]
    children = {p.id: [] for p in points}
    if shape == LINEAR:
        order = sorted(ids)
        for a, b in zip(order, order[1:]):
            children[a].append(b)
    else:
        roots = [p.id for p in points if p.parent is None]
        for p in points:
            if p.parent is not None and p.parent in children:
                children[p.parent].append(p.id)
        for c in children.values():
            c.sort()
        order = []
        seen = set()
        stack = sorted(roots, reverse=True)
        while stack:
            p = stack.pop()
            if p in seen:
                continue
            seen.add(p)
            order.append(p)
            stack.extend(reversed(children[p]))
        order.extend(i for i in sorted(ids) if i not in seen)  # orphans, tolerated
    return order, {k: tuple(v) for k, v in children.items()}


# ---------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------

def validate(instance):
    """Check every structural invariant; violations are data, not errors."""
    out = []
    bad = lambda code, subj, detail: out.append(Violation(code, subj, detail))

    ids = [p.id for p in instance.points]
    if not ids:
        bad("points", "<instance>", "instance has no points")
    if len(set(ids)) != len(ids):
        bad("points", "<instance>", "duplicate point ids")

    if instance.shape == LINEAR:
        for p in instance.points:
            if p.parent is not None:
                bad("shape", f"point {p.id}", "linear code points take no parent")
    elif instance.shape == TREE:
        roots = [p for p in instance.points if p.parent is None]
        if len(roots) != 1:
            bad("shape", "<instance>",
                f"tree code needs exactly one root, found {len(roots)}")
        known = set(ids)
        for p in instance.points:
            if p.parent is not None and p.parent not in known:
                bad("shape", f"point {p.id}", f"unknown parent {p.parent}")
        reached = set()
        stack = [p.id for p in roots]
        while stack:
            q = stack.pop()
            if q not in reached:
                reached.add(q)
                stack.extend(instance.children[q])
        for p in instance.points:
            if p.id not in reached:
                bad("shape", f"point {p.id}", "not reachable from the root")
    else:
        bad("shape", "<instance>", f"unknown shape {instance.shape!r}")

    known_pts = set(ids)
    known_vars = set(instance.variables)

    for v in instance.variables.values():
        if v.weight <= 0:
            bad("weight", v.id, f"weight {v.weight} is not > 0")
        if not v.range.points:
            bad("range", v.id, "empty live range")
        if not v.range.points <= known_pts:
            bad("range", v.id, "range mentions unknown points")
        for (p, m) in v.chads:
            if p not in v.range.points:
                bad("chad", v.id, f"chad at point {p} lies outside the range")
        if v.range.points and v.range.points <= known_pts:
            if instance.shape == LINEAR:
                idxs = sorted(instance.point_pos[p] for p in v.range.points)
                if idxs != list(range(idxs[0], idxs[-1] + 1)):
                    bad("range", v.id, "interval range is not contiguous")
            else:
                if not _connected_subtree(v.range.points, instance.parent_of):
                    bad("range", v.id, "subtree range is not connected")

    if instance.code_backed:
        seen_at = set()
        def_of = {}
        for ins in instance.instructions:
            if ins.at not in known_pts:
                bad("instr", f"point {ins.at}", "instruction at unknown point")
                continue
            if ins.at in seen_at:
                bad("instr", f"point {ins.at}", "multiple instructions at one point")
            seen_at.add(ins.at)
            if ins.uses & ins.defs:
                bad("instr", f"point {ins.at}",
                    f"uses and defs overlap: {sorted(ins.uses & ins.defs)}")
            for v in ins.uses | ins.defs:
                if v not in known_vars:
                    bad("instr", f"point {ins.at}", f"undeclared variable {v}")
            for v in ins.defs:
                if v in def_of:
                    bad("ssa", v, f"defined at {def_of[v]} and again at {ins.at}")
                else:
                    def_of[v] = ins.at
                if v in instance.livein:
                    bad("ssa", v, "live-in variable must not be defined")
        for v in instance.livein | instance.liveout:
            if v not in known_vars:
                bad("livein/liveout", v, "undeclared variable")
        if instance.liveout and instance.shape == TREE:
            bad("liveout", "<instance>", "liveout is only defined for linear codes")

        # dominance: every use sits at or below (after) its definition
        for ins in instance.instructions:
            for v in ins.uses:
                if v not in known_vars:
                    continue
                d = def_of.get(v)
                if d is None:
                    if v not in instance.livein:
                        bad("dominance", v,
                            f"used at {ins.at} but never defined and not live-in")
                    continue
                if instance.shape == LINEAR:
                    if instance.point_pos.get(ins.at, -1) <= instance.point_pos.get(d, -1):
                        bad("dominance", v, f"use at {ins.at} precedes definition at {d}")
                else:
                    if not _dominates(d, ins.at, instance.parent_of):
                        bad("dominance", v,
                            f"use at {ins.at} is outside the subtree of definition {d}")
    else:
        if instance.livein or instance.liveout:
            bad("livein/liveout", "<instance>", "range instances take no livein/liveout")
    return out


def _connected_subtree(pts, parent_of):
    tops = [p for p in pts if parent_of.get(p) not in pts]
    return len(tops) == 1


def _dominates(anc, node, parent_of):
    q = node
    seen = set()
    while q is not None and q not in seen:
        if q == anc:
            return True
        seen.add(q)
        q = parent_of.get(q)
    return False


def live_ranges(instance):
    """Mapping variable id -> LiveRange for a validated code-backed instance."""
    if not instance.code_backed:
        raise MalformedCodeError("live_ranges needs a code-backed instance")
    problems = [v for v in validate(instance) if v.code in ("dominance", "ssa")]
    if problems:
        raise MalformedCodeError("; ".join(map(str, problems)))
    return {vid: v.range for vid, v in instance.variables.items()}


def pressure(instance, spilled, mode):
    """Per-sample register pressure after spilling `spilled` under `mode`."""
    check_mode(mode)
    spilled = frozenset(spilled)
    unknown = spilled - set(instance.variables)
    if unknown:
        raise ValueError(f"unknown spilled variables: {sorted(unknown)}")
    if mode == HOLES and not instance.code_backed:
        raise UnsupportedModeError("hole semantics need a code-backed instance")
    s = sum(1 << i for i, v in enumerate(instance.var_ids) if v in spilled)
    chads = instance.chad_masks if mode == HOLES else repeat(0)
    values = tuple((lm & ~s).bit_count() + (cm & s).bit_count()
                   for lm, cm in zip(instance.live_masks, chads))
    return PressureProfile(instance.samples, values, mode)


def interference_graph(instance):
    """Adjacency sets: edge iff two live ranges share a sample point."""
    near = [0] * instance.n_vars  # per bit: the bits live alongside it
    for m in set(instance.live_masks):
        for b in bits(m):
            near[b] |= m
    return {v: set(instance.decode(near[b] & ~(1 << b)))
            for b, v in enumerate(instance.var_ids)}


def perfect_elimination_order(adj):
    """Maximum-cardinality search; returns a PEO or None if not chordal."""
    order = []
    weight = {v: 0 for v in adj}
    remaining = set(adj)
    while remaining:
        v = max(sorted(remaining), key=lambda u: weight[u])
        order.append(v)
        remaining.discard(v)
        for u in adj[v]:
            if u in remaining:
                weight[u] += 1
    order.reverse()  # elimination order: earlier vertices eliminated first
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for u in adj[v] if pos[u] > pos[v]]
        if not later:
            continue
        pivot = min(later, key=pos.get)
        for u in later:
            if u != pivot and u not in adj[pivot]:
                return None
    return order


def is_chordal(instance):
    """(True, witness elimination order) or (False, None)."""
    order = perfect_elimination_order(interference_graph(instance))
    return (order is not None), order
