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
from functools import cached_property
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
    constructor's `ranges` is None) or from_ranges (ranges given, kept as
    `ranges`). Do not mutate after construction; solvers assume all
    derived tables (sample order, live and chad masks, spans, integer
    weights, omega, h) are frozen. Bit i of a mask stands for var_ids[i],
    the sorted ids, and bit_of[var_ids[i]] is i; int_weights[i] is its
    weight times `scale`, the lcm of the weights' denominators; spans[v]
    is the first and last sample at which v is live (absent if v is
    never live). `variables` is decoded on first access.

    Construction never raises on malformed input. It records in `problem`
    the first reason the solvers cannot trust the instance, or None: the
    points do not form one tree, a weight is not > 0, a live range is not
    connected along the samples, or a chad lies where its variable is not
    live. Every solver calls require_sound() first.
    """

    def __init__(self, shape, points, weights, ranges=None, instructions=(),
                 livein=frozenset(), liveout=frozenset()):
        self.shape = shape
        self.points = tuple(points)
        self.code_backed = ranges is None
        self.instructions = tuple(instructions) if self.code_backed else None
        self.livein = frozenset(livein)
        self.liveout = frozenset(liveout)

        # children: point id -> tuple of child ids; unreached: see there
        order, self.children, self.unreached, problem = _point_structure(
            shape, self.points)
        self.point_order = order  # point ids, chain order or DFS preorder
        self.point_pos = pos = {p: i for i, p in enumerate(order)}
        self.parent_of = {p.id: p.parent for p in self.points}
        # Two samples per point, use moment first: (p, USE) is sample
        # 2 * point_pos[p] and (p, DEF) the one after it.
        self.samples = tuple((p, m) for p in order for m in (USE, DEF))

        self.var_ids = tuple(sorted(weights if ranges is None else ranges))
        self.bit_of = {v: i for i, v in enumerate(self.var_ids)}
        ws = [w if type(w) is int else Fraction(w)
              for w in map(weights.__getitem__, self.var_ids)]
        self.scale = lcm(*(w.denominator for w in ws))
        self.int_weights = tuple(w.numerator * (self.scale // w.denominator) for w in ws)
        self.ranges = ranges and {v: frozenset(ranges[v]) for v in self.var_ids}

        # a run flips its bit on at its first sample and off after its last
        flips = [0] * (len(self.samples) + 1)
        count = [0] * (len(self.samples) + 1)
        chad = [0] * len(self.samples)
        spans = self.spans = {}
        for i, (vid, _, _, chads, _, runs) in enumerate(self._derive()):
            bit = 1 << i
            for a, b in runs:
                flips[a] ^= bit
                flips[b + 1] ^= bit
                count[a] += 1
                count[b + 1] -= 1
            if runs:
                spans[vid] = runs[0] if len(runs) == 1 else (min(runs)[0], max(runs)[1])
            for c in chads:
                chad[c] |= bit
        self.live_masks = tuple(accumulate(flips[:-1], int.__xor__))
        self.chad_masks = tuple(chad)
        self.omega = max(accumulate(count[:-1]), default=0)
        self.h = max((max(len(i.uses), len(i.defs))
                      for i in self.instructions or ()), default=0)
        self.problem = problem or self._unsound_masks()

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

    def _derive(self):
        """(id, definition or None, uses, chad samples, range points,
        live sample runs) per variable, in var_ids order; runs are disjoint
        (first, last) pairs. A block range is None: it is the points of
        its one run, from the definition (or the block entry for live-in,
        or the first use) to the last use (or the exit for live-out)."""
        pos = self.point_pos
        if not self.code_backed:
            for vid, rng in self.ranges.items():
                yield vid, None, (), (), rng, [(2 * pos[p], 2 * pos[p] + 1)
                                               for p in rng if p in pos]
            return
        def_at = {}
        uses_at = {}  # var -> use points, in instruction order
        for ins in self.instructions:
            for v in ins.defs:
                def_at.setdefault(v, ins.at)
            for v in ins.uses:
                uses_at.setdefault(v, []).append(ins.at)
        block, livein, liveout = self.shape == LINEAR, self.livein, self.liveout
        for vid in self.var_ids:
            d, uses = def_at.get(vid), uses_at.get(vid, ())
            ups = [2 * pos[u] for u in uses if u in pos]
            chads = ups + [2 * pos[d] + 1] if d in pos else ups
            if not block:
                yield (vid, d, uses, chads) + self._subtree(vid, d, uses)
                continue
            if d in pos:
                s0 = chads[-1]
            elif vid in livein and pos:
                s0 = 0
            elif ups:
                s0 = min(ups)
            else:
                yield vid, d, uses, chads, None, ()
                continue
            s1 = len(self.samples) - 1 if vid in liveout else max(ups) if ups else s0
            # s1 < s0 is malformed code, tolerated for validate()
            yield vid, d, uses, chads, None, [(s0, s1) if s0 <= s1 else (s1, s0)]

    def _subtree(self, vid, d, uses):
        """(range points, live sample runs) of one variable of a tree
        code, defined at d (or None) and used at `uses`: the union of
        the walks from each use up to the definition (or the root for
        live-in); each point is walked once, and a walk that leaves the
        tree or circles keeps only its use, for validate() to report."""
        pos = self.point_pos
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

    @cached_property
    def variables(self):
        """id -> Variable, in var_ids order, decoded on first access."""
        kind = "interval" if self.shape == LINEAR else "subtree"
        out = {}
        for vid, d, uses, _, rng, runs in self._derive():
            if rng is None:  # a block range: the points of its run
                rng = [p for a, b in runs for p in self.point_order[a // 2:b // 2 + 1]]
            chads = {(u, USE) for u in uses} | ({(d, DEF)} if d is not None else set())
            out[vid] = Variable(vid, self.weight(vid),
                                LiveRange(kind, frozenset(rng)), frozenset(chads))
        return out

    def _unsound_masks(self):
        """The first problem in the weights and masks of an instance whose
        points form one tree, or None.

        A range is connected along the sample tree iff it has one top: a
        sample where the variable is live but not at the parent sample
        (the previous sample on a block; on a tree the previous one for a
        def moment, and the parent point's def moment for a use moment).
        """
        for vid, w in zip(self.var_ids, self.int_weights):
            if w <= 0:
                return f"weights > 0; {vid} weighs {self.weight(vid)}"
        live = self.live_masks
        if self.shape == LINEAR:
            ups = () if self.code_backed else (0,) + live[:-1]  # code: 1 run
        else:
            ups = []
            for i, p in enumerate(self.point_order):
                q = self.parent_of[p]
                ups += (0 if q is None else live[2 * self.point_pos[q] + 1],
                        live[2 * i])
        seen = 0  # variables whose top has been passed
        for lm, up in zip(live, ups):
            tops = (lm ^ up) & lm  # xor, not & ~up: ints stay positive
            if tops & seen:
                vid = min(self.decode(tops & seen))
                return (f"connected live ranges; {vid} is live in two "
                        "separate places")
            seen |= tops
        for (p, m), lm, cm in zip(self.samples, live, self.chad_masks):
            if cm & lm != cm:
                vid = min(self.decode(cm ^ cm & lm))
                return (f"chads where their variable is live; {vid} has one "
                        f"at ({p}, {m})")
        return None

    def require_sound(self, what):
        """Raise MalformedCodeError naming `problem`, if there is one;
        `what` names the solver that cannot trust the instance."""
        if self.problem:
            raise MalformedCodeError(f"{what} needs {self.problem}")

    # -- convenience --------------------------------------------------

    @property
    def n_vars(self):
        return len(self.var_ids)

    @property
    def n_points(self):
        return len(self.points)

    def decode(self, mask):
        """The variable ids in `mask`."""
        return frozenset(map(self.var_ids.__getitem__, bits(mask)))

    def int_weight(self, mask):
        """Scaled weight of the variables in `mask`."""
        return sum(map(self.int_weights.__getitem__, bits(mask)))

    @property
    def live_at(self):
        """Per-sample frozensets of live ids, decoded on every access."""
        return tuple(map(self.decode, self.live_masks))

    @property
    def chads_at(self):
        """Per-sample frozensets of chad ids, decoded on every access."""
        return tuple(map(self.decode, self.chad_masks))

    def weight(self, vid):
        return Fraction(self.int_weights[self.bit_of[vid]], self.scale)

    def cost_of(self, spilled):
        ws, bit = self.int_weights, self.bit_of
        return Fraction(sum(ws[bit[v]] for v in spilled), self.scale)

    def unweighted(self):
        return len(set(self.int_weights)) <= 1

    def declarative_key(self):
        """Structure used for round-trip equality of parsed instances: the
        shape, points, live-in and live-out, weights, and the instructions
        or the given ranges; computed once."""
        return self._key

    @cached_property
    def _key(self):
        pos = self.point_pos
        return (self.shape, self.code_backed, self.points,
                tuple(sorted(self.livein)), tuple(sorted(self.liveout)),
                self.var_ids, self.int_weights, self.scale,
                tuple(sorted(self.instructions, key=lambda i: pos.get(i.at, -1)))
                if self.code_backed else tuple(self.ranges.items()))

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return self.declarative_key() == other.declarative_key()

    def __hash__(self):
        return hash(self.declarative_key())

    def __repr__(self):
        return (f"Instance({self.shape}, m={self.n_points}, n={self.n_vars}, "
                f"omega={self.omega}, h={self.h})")


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
    """(order, children, unreached, problem) whatever the points: chain
    order or DFS preorder, unreached points last; the child map; the points
    no walk from a root reaches; why they are not one tree, or None."""
    ids = [p.id for p in points]
    children = {p.id: [] for p in points}
    unreached = frozenset()
    problem = None
    if len(children) < len(ids):
        problem = "unique point ids"
    if shape == LINEAR:
        order = sorted(ids)
        for a, b in zip(order, order[1:]):
            children[a].append(b)
        stray = next((p.id for p in points if p.parent is not None), None)
        if stray is not None:
            problem = problem or (f"a block's points without parents; "
                                  f"point {stray} has one")
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
        unreached = frozenset(ids) - seen
        order.extend(sorted(unreached))  # orphans, tolerated
        if len(roots) != 1:
            problem = problem or f"a tree with one root; it has {len(roots)}"
        elif unreached:
            problem = problem or (f"every point reached from the root; "
                                  f"point {min(unreached)} is not")
    return order, {k: tuple(v) for k, v in children.items()}, unreached, problem


# ---------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------

def validate(instance):
    """Check every structural invariant; violations are data, not errors.
    Rules that a `problem` of None settles are not checked again; a sound
    code with every instruction at a known point decodes no range, as a
    range is then empty exactly when it has no span."""
    out = []
    bad = lambda code, subj, detail: out.append(Violation(code, subj, detail))
    sound = instance.problem is None
    known_pts = instance.point_pos  # every point id

    if not instance.points:
        bad("points", "<instance>", "instance has no points")
    if len(known_pts) != len(instance.points):
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
        for p in instance.points:
            if p.parent is not None and p.parent not in known_pts:
                bad("shape", f"point {p.id}", f"unknown parent {p.parent}")
        for p in instance.points:
            if p.id in instance.unreached:
                bad("shape", f"point {p.id}", "not reachable from the root")
    else:
        bad("shape", "<instance>", f"unknown shape {instance.shape!r}")

    if sound and instance.code_backed and all(
            i.at in known_pts for i in instance.instructions):
        for vid in instance.var_ids:
            if vid not in instance.spans:
                bad("range", vid, "empty live range")
    else:
        for v in instance.variables.values():
            pts = v.range.points
            if not sound and v.weight <= 0:
                bad("weight", v.id, f"weight {v.weight} is not > 0")
            if not pts:
                bad("range", v.id, "empty live range")
            if not pts <= known_pts.keys():
                bad("range", v.id, "range mentions unknown points")
            for (p, m) in sorted(v.chads):
                if p not in pts:
                    bad("chad", v.id, f"chad at point {p} lies outside the range")
            if sound or not pts or not pts <= known_pts.keys():
                continue
            if instance.shape != LINEAR:
                if len([p for p in pts if instance.parent_of[p] not in pts]) != 1:
                    bad("range", v.id, "subtree range is not connected")
            elif not instance.code_backed:
                idxs = sorted(known_pts[p] for p in pts)
                if idxs != list(range(idxs[0], idxs[-1] + 1)):
                    bad("range", v.id, "interval range is not contiguous")

    if instance.code_backed:
        seen_at = set()
        def_of = {}
        names = set(instance.var_ids)
        ordered = lambda ids: sorted(ids) if len(ids) > 1 else ids
        for ins in instance.instructions:
            at, uses, defs = ins.at, ins.uses, ins.defs
            if at not in known_pts:
                bad("instr", f"point {at}", "instruction at unknown point")
                continue
            if at in seen_at:
                bad("instr", f"point {at}", "multiple instructions at one point")
            seen_at.add(at)
            if not uses.isdisjoint(defs):
                bad("instr", f"point {at}",
                    f"uses and defs overlap: {sorted(uses & defs)}")
            if not (names.issuperset(uses) and names.issuperset(defs)):
                for v in sorted((uses | defs) - names):
                    bad("instr", f"point {at}", f"undeclared variable {v}")
            for v in ordered(defs):
                if v in def_of:
                    bad("ssa", v, f"defined at {def_of[v]} and again at {at}")
                else:
                    def_of[v] = at
                if v in instance.livein:
                    bad("ssa", v, "live-in variable must not be defined")
        for v in sorted((instance.livein | instance.liveout) - names):
            bad("livein/liveout", v, "undeclared variable")
        if instance.liveout and instance.shape == TREE:
            bad("liveout", "<instance>", "liveout is only defined for linear codes")

        # dominance: every use sits at or below (after) its definition
        for ins in instance.instructions:
            for v in ordered(ins.uses):
                if v not in names:
                    continue
                d = def_of.get(v)
                if d is None:
                    if v not in instance.livein:
                        bad("dominance", v,
                            f"used at {ins.at} but never defined and not live-in")
                    continue
                if instance.shape == LINEAR:
                    if known_pts.get(ins.at, -1) <= known_pts[d]:
                        bad("dominance", v, f"use at {ins.at} precedes definition at {d}")
                else:
                    if not _dominates(d, ins.at, instance.parent_of):
                        bad("dominance", v,
                            f"use at {ins.at} is outside the subtree of definition {d}")
    else:
        if instance.livein or instance.liveout:
            bad("livein/liveout", "<instance>", "range instances take no livein/liveout")
    return out


def _dominates(anc, node, parent_of):
    q = node
    seen = set()
    while q is not None and q not in seen:
        if q == anc:
            return True
        seen.add(q)
        q = parent_of.get(q)
    return False


def pressure(instance, spilled, mode):
    """Per-sample register pressure after spilling `spilled` under `mode`."""
    check_mode(mode)
    spilled = frozenset(spilled)
    unknown = spilled.difference(instance.bit_of)
    if unknown:
        raise ValueError(f"unknown spilled variables: {sorted(unknown)}")
    if mode == HOLES and not instance.code_backed:
        raise UnsupportedModeError("hole semantics need a code-backed instance")
    s = sum(1 << instance.bit_of[v] for v in spilled)
    chads = instance.chad_masks if mode == HOLES else repeat(0)
    values = tuple((lm & ~s).bit_count() + (cm & s).bit_count()
                   for lm, cm in zip(instance.live_masks, chads))
    return PressureProfile(instance.samples, values, mode)


def empty_solution(instance, mode, algorithm, steps=0, feasible=True,
                   proven=True):
    """The SpillSolution that spills nothing: feasible at pressure omega,
    or, when not `feasible`, the report that no spill set reaches the
    target (cost and pressure None)."""
    return SpillSolution(frozenset(), Fraction(0) if feasible else None,
                         instance.omega if feasible else None, algorithm,
                         steps, mode, feasible, proven)


def spill_solution(instance, spilled, profile, algorithm, steps, proven=True):
    """The feasible SpillSolution spilling `spilled`, given the pressure
    profile that spill leaves; the solution's mode is the profile's."""
    spilled = frozenset(spilled)
    return SpillSolution(
        spilled=spilled,
        cost=instance.cost_of(spilled),
        achieved_omega=profile.max_pressure,
        algorithm=algorithm,
        steps=steps,
        mode=profile.mode,
        proven_optimal=proven,
    )


def interference_graph(instance):
    """Adjacency sets: edge iff two live ranges share a sample point."""
    near = [0] * instance.n_vars  # per bit: the bits live alongside it
    for m in set(instance.live_masks):
        for b in bits(m):
            near[b] |= m
    return {v: set(instance.decode(near[b] & ~(1 << b)))
            for b, v in enumerate(instance.var_ids)}


def is_chordal(instance):
    """(True, a perfect elimination order of the interference graph), on
    a sound instance; raises MalformedCodeError on an unsound one.

    Sound ranges are connected subtrees of one tree, so the graph is
    chordal (Gavril 1974). Samples follow the block or the tree's
    preorder, so a range's first sample is its top, and a neighbour that
    starts no later contains that top. Hence the order: the live ranges
    by first sample, latest first (spans is in var_ids order and the
    sort is stable), then the never-live variables."""
    instance.require_sound("is_chordal")
    spans = instance.spans
    order = sorted(spans, key=lambda v: spans[v][0], reverse=True)
    return True, order + [v for v in instance.var_ids if v not in spans]
