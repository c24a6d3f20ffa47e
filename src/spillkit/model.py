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

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, count, filterfalse, takewhile
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
    is the first and last sample at which v is live. The masks are the
    instance's only liveness tables; live_at and chads_at decode them;
    chads(mode) picks them by mode.

    Construction never raises on malformed input. It checks every rule
    of strict SSA code as it derives the tables, and records what breaks
    them in `violations` (what validate() returns), in a fixed order;
    `problem` is the first of them as text, or None. An instance with a
    problem keeps its records, samples, up and h but no liveness: its
    masks are zero, omega is 0 and spans is empty. Every solver, and
    pressure, calls require_sound() first.

    The samples form one tree, a chain on a block: up[i] is the sample
    just above sample i, -1 at the root and where a point's parent is
    unknown. (p, DEF) sits below (p, USE), and (p, USE) below the def
    moment of the point before p (block) or of p's parent (tree).
    Samples are in preorder, so up[i] < i on a sound instance.
    """

    def __init__(self, shape, points, weights, ranges=None, instructions=(),
                 livein=frozenset(), liveout=frozenset()):
        self.shape = shape
        self.points = tuple(points)
        self.code_backed = ranges is None
        self.instructions = tuple(instructions) if self.code_backed else None
        self.livein = frozenset(livein)
        self.liveout = frozenset(liveout)

        order, found = _point_structure(shape, self.points)
        self.point_order = order  # point ids, chain order or DFS preorder
        self.point_pos = pos = {p: i for i, p in enumerate(order)}
        self.parent_of = {p.id: p.parent for p in self.points}
        # Two samples per point, use moment first: (p, USE) is sample
        # 2 * point_pos[p] and (p, DEF) the one after it.
        self.samples = tuple([(p, m) for p in order for m in (USE, DEF)])
        # (q, DEF) is sample 2 * pos[q] + 1, and that is -1 for q unknown
        self.up = (tuple(range(-1, 2 * len(order) - 1)) if shape == LINEAR
                   else tuple(u for i, p in enumerate(order) for u in (
                       2 * pos.get(self.parent_of[p], -1) + 1, 2 * i)))

        self.var_ids = tuple(sorted(weights if ranges is None else ranges))
        self.bit_of = {v: i for i, v in enumerate(self.var_ids)}
        ws = tuple(map(weights.__getitem__, self.var_ids))
        if {*map(type, ws)} <= {int}:  # nothing to scale
            self.scale, self.int_weights = 1, ws
        else:
            ws = [Fraction(w) for w in ws]
            self.scale = lcm(*(w.denominator for w in ws))
            self.int_weights = tuple(w.numerator * (self.scale // w.denominator)
                                     for w in ws)
        self.ranges = ranges and {v: frozenset(ranges[v]) for v in self.var_ids}

        # one pass, which also sets h and checks the rules; a run flips its
        # bit on at its first sample and off after its last
        flips = [0] * (len(self.samples) + 1)
        count = [0] * (len(self.samples) + 1)
        chad = [0] * len(self.samples)
        spans = {}
        for i, (vid, chads, runs) in enumerate(self._derive(found)):
            bit = 1 << i
            for a, b in runs:
                flips[a] ^= bit
                flips[b + 1] ^= bit
                count[a] += 1
                count[b + 1] -= 1
            spans[vid] = runs[0] if len(runs) == 1 else (min(runs)[0], max(runs)[1])
            for c in chads:
                chad[c] |= bit
        self.violations = tuple(found)
        self.problem = str(found[0]) if found else None
        if found:  # code that breaks a rule has no liveness
            self.spans, self.omega = {}, 0
            self.live_masks = self.chad_masks = (0,) * len(self.samples)
            return
        self.spans = spans
        self.live_masks = tuple(accumulate(flips[:-1], int.__xor__))
        self.chad_masks = tuple(chad)
        self.omega = max(accumulate(count[:-1]), default=0)

    # -- construction -------------------------------------------------

    @classmethod
    def from_code(cls, shape, points, instructions, weights,
                  livein=(), liveout=()):
        """Build a code-backed instance; ranges and chads are derived.

        `weights` maps every variable id to its spill cost. Code that is
        not strict SSA (a second definition, a use its definition does not
        dominate, a point off the tree) does not raise here: it is
        recorded in `violations`.
        """
        return cls(shape, points, weights, instructions=instructions,
                   livein=livein, liveout=liveout)

    @classmethod
    def from_ranges(cls, shape, points, ranges, weights):
        """Build a pure range instance: `ranges` maps id -> iterable of points."""
        return cls(shape, points, weights, ranges=ranges)

    def _derive(self, found):
        """(id, chad samples, live sample runs) of each variable, in var_ids
        order, until a rule is found broken; runs are disjoint (first,
        last) pairs. A block variable has one run, from the definition (or
        the block entry for live-in) to the last use (or the exit for
        live-out); a tree variable's runs cover the walks from its uses up
        to its definition (or the root for live-in).

        Every rule is a check on positions it already has. The one scan
        of the instructions sets h, the most uses or definitions at one
        instruction, keeps their violations (instr, ssa) in instruction
        order, and records the uses and definitions at known points. The
        loop over the variables appends to `found` each variable's weight
        and range violations; after the last one come the scan's
        violations, those of live-in and live-out, and those of dominance.
        A definition dominates the uses after it on a block and those in
        its preorder interval on a tree; live-in, every use. So a tree
        walk runs only on sound points, and needs no guards."""
        pos = self.point_pos
        bad = lambda code, subject, detail: found.append(
            Violation(code, subject, detail))
        block, livein, liveout = self.shape == LINEAR, self.livein, self.liveout
        code_backed, instrs = self.code_backed, self.instructions or ()
        declared = frozenset(self.var_ids)
        rules = []  # the instr and ssa violations, in instruction order
        rule = lambda code, subject, detail: rules.append(
            Violation(code, subject, detail))
        def_of = {}  # var -> its first definition
        uses_at = defaultdict(list)  # var -> use points, in instruction order
        seen = set()  # the points of the instructions so far
        h = 0
        for ins in instrs:
            at, uses, defs = ins.at, ins.uses, ins.defs
            nu, nd = len(uses), len(defs)
            if nu > h or nd > h:
                h = max(nu, nd)
            if at not in pos:
                rule("instr", f"point {at}", "instruction at unknown point")
                continue
            for v in uses:
                uses_at[v].append(at)
            if at in seen:
                rule("instr", f"point {at}", "multiple instructions at one point")
            seen.add(at)
            if nu and nd and not uses.isdisjoint(defs):
                rule("instr", f"point {at}",
                     f"uses and defs overlap: {sorted(uses & defs)}")
            if not (uses <= declared and defs <= declared):
                for v in sorted((uses | defs) - declared):
                    rule("instr", f"point {at}", f"undeclared variable {v}")
            for v in defs:
                if v in def_of or v in livein:
                    # an ssa violation: check the defs not yet written, in
                    # sorted order (those before v are written and sound)
                    done = takewhile(v.__ne__, defs)
                    for u in sorted(defs.difference(done)):
                        if u in def_of:
                            rule("ssa", u,
                                 f"defined at {def_of[u]} and again at {at}")
                        else:
                            def_of[u] = at
                        if u in livein:
                            rule("ssa", u, "live-in variable must not be defined")
                    break
                def_of[v] = at
        self.h = h

        doubt = {}  # var -> the points of its uses that break dominance
        last = len(self.samples) - 1
        if code_backed and not block:
            # end[i]: the last preorder position in point i's subtree
            end = list(range(len(pos)))
            for i in range(len(pos) - 1, 0, -1):
                j = pos.get(self.parent_of[self.point_order[i]])
                if j is not None and end[i] > end[j]:
                    end[j] = end[i]
        for vid, w in zip(self.var_ids, self.int_weights):
            if w <= 0:
                bad("weight", vid, f"weight {Fraction(w, self.scale)} is not > 0")
            if not code_backed:
                rng = self.ranges[vid]
                runs = [(2 * pos[p], 2 * pos[p] + 1) for p in rng if p in pos]
                if not rng:
                    bad("range", vid, "empty live range")
                elif len(runs) < len(rng):
                    bad("range", vid, "range mentions unknown points")
                elif not block:
                    if sum(self.parent_of[p] not in rng for p in rng) != 1:
                        bad("range", vid, "subtree range is not connected")
                elif max(runs)[0] - min(runs)[0] != 2 * len(runs) - 2:
                    bad("range", vid, "interval range is not contiguous")
                if not found:
                    yield vid, (), runs
                continue
            d, uses = def_of.get(vid), uses_at.get(vid, ())
            ups = [2 * pos[u] for u in uses]
            if d is not None:
                # s0 is (d, DEF); it dominates the use samples [lo, hi]:
                # those after it on a block, those in d's subtree on a tree
                s0 = 2 * pos[d] + 1
                if block:
                    lo, hi = s0 + 1, last
                else:
                    lo, hi = s0 - 1, 2 * end[s0 // 2]
                if ups and not lo <= min(ups) <= max(ups) <= hi:
                    doubt[vid] = {u for u, s in zip(uses, ups)
                                  if not lo <= s <= hi}
            elif vid in livein:
                s0 = 0
            elif ups:  # never defined
                doubt[vid] = set(uses)
            else:
                bad("range", vid, "empty live range")
                continue
            if found or rules or doubt:
                continue
            chads = ups + [s0] if d is not None else ups
            if block:
                s1 = last if vid in liveout else max(ups) if ups else s0
                yield vid, chads, [(s0, s1)]
            else:
                yield vid, chads, self._subtree(d, uses)

        if not code_backed:
            if livein or liveout:
                bad("livein/liveout", "<instance>",
                    "range instances take no livein/liveout")
            return
        found += rules
        for v in sorted((livein | liveout) - declared):
            bad("livein/liveout", v, "undeclared variable")
        if liveout and self.shape == TREE:
            bad("liveout", "<instance>", "liveout is only defined for linear codes")
        for ins in instrs if doubt else ():
            for v in sorted(ins.uses) if len(ins.uses) > 1 else ins.uses:
                if ins.at not in doubt.get(v, ()):
                    continue
                d = def_of.get(v)
                bad("dominance", v,
                    f"used at {ins.at} but never defined and not live-in"
                    if d is None else
                    f"use at {ins.at} precedes definition at {d}" if block
                    else f"use at {ins.at} is outside the subtree of "
                         f"definition {d}")

    def _subtree(self, d, uses):
        """The live sample runs of a tree variable of sound code, defined
        at d (None for live-in) and used at `uses`. Its range is the union
        of the walks from each use up to d, or to the root; each point is
        walked once."""
        pos, parent_of = self.point_pos, self.parent_of
        rng = {self.point_order[0] if d is None else d}
        for u in uses:
            while u not in rng:
                rng.add(u)
                u = parent_of[u]
        has_kid = {parent_of[q] for q in rng}
        runs = []
        for p in rng:
            # live before p's instruction unless defined there; live
            # after it if the range goes on into a child, or if the
            # variable is defined at p and never used
            first = 2 * pos[p] + (p == d)
            last = 2 * pos[p] + (p in has_kid or (p == d and len(rng) == 1))
            if first <= last:
                runs.append((first, last))
        return runs

    def chads(self, mode):
        """Per sample, the chad mask `mode` counts: chad_masks with holes,
        zeros without; the one refusal of holes on a range instance."""
        check_mode(mode)
        if mode == NOHOLES:
            return self._no_chads
        if not self.code_backed:
            raise UnsupportedModeError("hole semantics need a code-backed instance")
        return self.chad_masks

    @cached_property
    def _no_chads(self):
        return (0,) * len(self.samples)

    def require_sound(self, what):
        """Raise MalformedCodeError naming `problem`, if there is one;
        `what` names the solver that cannot trust the instance."""
        if self.problem:
            raise MalformedCodeError(f"{what} needs a valid instance; "
                                     f"{self.problem}")

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
        shape, points (by id), live-in and live-out, weights, and the
        instructions or the given ranges; computed once."""
        return self._key

    @cached_property
    def _key(self):
        pos = self.point_pos
        return (self.shape, self.code_backed,
                tuple(sorted(self.points, key=lambda p: p.id)),
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
    """(order, violations) whatever the points: chain order or DFS
    preorder with children by id, unreached points last; and what breaks
    the points and shape rules, in validate()'s order."""
    found = []
    bad = lambda code, subject, detail: found.append(
        Violation(code, subject, detail))
    ids = [p.id for p in points]
    if not points:
        bad("points", "<instance>", "instance has no points")
    if len(set(ids)) < len(ids):
        bad("points", "<instance>", "duplicate point ids")
    if shape == LINEAR:
        for p in points:
            if p.parent is not None:
                bad("shape", f"point {p.id}", "linear code points take no parent")
        return sorted(ids), found
    roots = [p.id for p in points if p.parent is None]
    children = {p: [] for p in ids}
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
    if shape != TREE:
        bad("shape", "<instance>", f"unknown shape {shape!r}")
        return order, found
    if len(roots) != 1:
        bad("shape", "<instance>",
            f"tree code needs exactly one root, found {len(roots)}")
    for p in points:
        if p.parent is not None and p.parent not in children:
            bad("shape", f"point {p.id}", f"unknown parent {p.parent}")
    for p in points:
        if p.id in unreached:
            bad("shape", f"point {p.id}", "not reachable from the root")
    return order, found


# ---------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------

def validate(instance):
    """Every violation of the rules of strict SSA code, as construction
    recorded them; violations are data, not errors, and an instance with
    any has no liveness. The order is fixed: points and shape, then per
    variable its weight and range, then the instructions, live-in and
    live-out, and dominance; the ids of one record are in sorted order."""
    return list(instance.violations)


def pressure(instance, spilled, mode):
    """Per-sample register pressure after spilling `spilled` under `mode`.
    Like every solver, it refuses an unsound instance, which has no
    liveness, and holes on a range instance."""
    instance.require_sound("pressure")
    s = _mask(instance, spilled)
    values = tuple((lm & ~s).bit_count() + (cm & s).bit_count()
                   for lm, cm in zip(instance.live_masks, instance.chads(mode)))
    return PressureProfile(instance.samples, values, mode)


def _mask(instance, spilled):
    """The bit mask of the ids in `spilled`; ValueError on an unknown id."""
    spilled = frozenset(spilled)
    unknown = spilled.difference(instance.bit_of)
    if unknown:
        raise ValueError(f"unknown spilled variables: {sorted(unknown)}")
    return sum(1 << instance.bit_of[v] for v in spilled)


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


def assign(instance, spilled, mode):
    """The second phase: after spilling `spilled`, a register from 0 up
    for each kept variable (keyed by id) and each chad `mode` counts on a
    spilled one (keyed by (id, point, moment)). A scan in preorder gives
    each, at its first sample, the lowest register nothing there holds.
    Sound ranges are connected subtrees of one tree (Gavril 1974; Hack,
    Grund & Goos 2006), so a neighbour that starts no later contains the
    top: the scan reversed is a perfect elimination order, and it uses
    exactly `pressure(instance, spilled, mode).max_pressure` registers.
    Unsound instances are refused, as are holes on a range instance."""
    instance.require_sound("assign")
    s = _mask(instance, spilled)
    born = defaultdict(int)  # sample -> the kept variables that start there
    for v, (first, _) in instance.spans.items():
        born[first] |= (1 << instance.bit_of[v]) & ~s
    ids, out = instance.var_ids, {}
    for i, (lm, cm) in enumerate(zip(instance.live_masks,
                                     instance.chads(mode))):
        new, cut = born.get(i, 0), cm & s
        if new or cut:
            taken = {out[ids[b]] for b in bits(lm & ~s) if ids[b] in out}
            free = filterfalse(taken.__contains__, count())
            for b in bits(new):
                out[ids[b]] = next(free)
            for b in bits(cut):
                out[(ids[b], *instance.samples[i])] = next(free)
    return out
