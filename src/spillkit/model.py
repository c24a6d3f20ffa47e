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
from typing import NamedTuple, Optional

from .errors import MalformedCodeError, UnsupportedModeError

USE = "use"
DEF = "def"

LINEAR = "linear"
TREE = "tree"

NOHOLES = "noholes"
HOLES = "holes"


class Point(NamedTuple):
    id: int
    parent: Optional[int] = None


class Instruction(NamedTuple):
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
    weight times `scale`, the lcm of the weights' denominators; spans[i]
    is the first and last sample at which bit i is live. Every table a
    solver reads is indexed by bit or by sample; decode(mask) turns an
    answer back into ids. The masks are the instance's only liveness
    tables; chads(mode) picks them by mode. The records (Point,
    Instruction) are named tuples.

    Construction never raises on malformed input. One pass over integer
    point positions (_derive) checks every rule of strict SSA code as it
    derives the tables, and records what breaks them in `violations`
    (what validate() returns), in a fixed order;
    `problem` is the first of them as text, or None. An instance with a
    problem keeps its records, samples, up and h but no liveness: its
    masks are zero, omega is 0 and spans is (). Every solver, and
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

        ids = [p.id for p in self.points]
        parents = [p.parent for p in self.points]
        order, found = _point_structure(shape, ids, parents)
        self.point_order = order  # point ids, chain order or DFS preorder
        self.point_pos = dict(zip(order, range(len(order))))
        self.parent_of = dict(zip(ids, parents))
        # Two samples per point, use moment first: (p, USE) is sample
        # 2 * point_pos[p] and (p, DEF) the one after it.
        self.samples = tuple([(p, m) for p in order for m in (USE, DEF)])

        self.var_ids = tuple(sorted(weights if ranges is None else ranges))
        self.bit_of = dict(zip(self.var_ids, range(len(self.var_ids))))
        ws = tuple(map(weights.__getitem__, self.var_ids))
        if {*map(type, ws)} <= {int}:  # nothing to scale
            self.scale, self.int_weights = 1, ws
        else:  # an int or a Fraction has its numerator and denominator
            ws = [w if isinstance(w, (int, Fraction)) else Fraction(w)
                  for w in ws]
            self.scale = lcm(*(w.denominator for w in ws))
            self.int_weights = tuple(w.numerator * (self.scale // w.denominator)
                                     for w in ws)
        self.ranges = ranges and {v: frozenset(ranges[v]) for v in self.var_ids}
        self._derive(found)

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
        """The one pass over integer positions (point i is point_order[i],
        variable b is var_ids[b], with mask 1 << b) that checks every rule
        and sets up, h, violations and problem and, when no rule is
        broken, the liveness tables.

        The scan of the instructions sets h, the most uses or definitions
        at one instruction, keeps their violations (instr, ssa) in
        instruction order, and writes into lists indexed by position the
        masks of each point's uses and definitions (the chads), and into
        lists indexed by bit each variable's first definition, its first
        and last use and, on a tree, every use. The loop over the
        variables appends to `found` each one's weight and range
        violations; after the last one come the scan's violations, those
        of live-in and live-out, and those of dominance. A definition at
        position d dominates the uses after it on a block and those in its
        preorder interval [d, end[d]] on a tree; live-in, every use. So
        the first and last use decide dominance.

        While no rule is broken, the same loop lays down each variable's
        liveness. On a block it is one run, from the definition's def
        moment (or the entry) to the last use (or the exit): its bit flips
        on there, as the chads of the definitions do, and off after the
        run, and the live masks are the XOR prefixes of the flips. On a
        tree it is the union of the walks from each use up to the
        definition (or the root): a walked point is live at its use
        moment, and its parent at its def moment. `mark`, one list by
        position, holds the bit of the last variable that walked each
        point, so each point is walked once per variable; the walks need
        no guards, as the points and the variable's dominance are checked
        first. A range instance's variable covers both moments of its
        points."""
        order, pos = self.point_order, self.point_pos
        npts, block = len(order), self.shape == LINEAR
        livein, liveout, var_ids = self.livein, self.liveout, self.var_ids
        nv, idx = len(var_ids), self.bit_of
        # par[i]: the position of point i's parent, -1 at the root and
        # where the parent is unknown; (q, DEF) is sample 2 * q + 1
        par = None if block else [pos.get(self.parent_of[p], -1) for p in order]
        self.up = (tuple(range(-1, 2 * npts - 1)) if block else
                   tuple(u for i, q in enumerate(par) for u in (2 * q + 1, 2 * i)))
        one = list(map((1).__lshift__, range(nv)))  # bit b's mask
        rules = []  # the instr and ssa violations, in instruction order
        # per bit: the position of the first definition (-1 for none), of
        # the first and the last use (npts and -1 for none) and, on a tree,
        # of every use
        def_at, lo, hi = [-1] * nv, [npts] * nv, [-1] * nv
        uses_at = None if block else [[] for _ in one]
        chad_use, chad_def = [0] * npts, [0] * npts  # per position
        taken = bytearray(npts)  # 1 at the points of the instructions so far
        # a block's live count rises at each sample by gain[sample]
        gain = [0] * (2 * npts + 1)
        declared = frozenset(var_ids)
        h = 0
        for ins in self.instructions or ():
            at, uses, defs = ins.at, ins.uses, ins.defs
            nu, nd = len(uses), len(defs)
            if nu > h or nd > h:
                h = max(nu, nd)
            i = pos.get(at)
            if i is None:
                rules.append(Violation("instr", f"point {at}",
                                       "instruction at unknown point"))
                continue
            if taken[i]:
                rules.append(Violation("instr", f"point {at}",
                                       "multiple instructions at one point"))
            taken[i] = 1
            if nu and nd and not uses.isdisjoint(defs):
                rules.append(Violation("instr", f"point {at}",
                                       f"uses and defs overlap: {sorted(uses & defs)}"))
            if not (uses <= declared and defs <= declared):
                for v in sorted((uses | defs) - declared):
                    rules.append(Violation("instr", f"point {at}",
                                           f"undeclared variable {v}"))
                    # a bit past the declared ones, with no mask: no
                    # tables are kept, so what it adds to them is moot
                    if v not in idx:
                        idx = {**idx, v: len(one)}
                        one.append(0)
                        def_at.append(-1)
                        lo.append(npts)
                        hi.append(-1)
                        if not block:
                            uses_at.append([])
            # a mask's first bit is shared, not copied; a second
            # instruction at a point breaks a rule, so no chad is kept
            if nu:
                mask = 0
                for v in uses:
                    b = idx[v]
                    if i < lo[b]:
                        lo[b] = i
                    if i > hi[b]:
                        hi[b] = i
                    if not block:
                        uses_at[b].append(i)
                    mask = mask | one[b] if mask else one[b]
                chad_use[i] = mask
            if nd:
                mask = 0
                for v in defs:
                    b = idx[v]
                    if def_at[b] >= 0 or v in livein:
                        # an ssa violation: check the defs not yet written,
                        # in sorted order (those before v are sound)
                        done = takewhile(v.__ne__, defs)
                        for u in sorted(defs.difference(done)):
                            d = def_at[idx[u]]
                            if d >= 0:
                                rules.append(Violation(
                                    "ssa", u, f"defined at {order[d]} and again at {at}"))
                            else:
                                def_at[idx[u]] = i
                            if u in livein:
                                rules.append(Violation(
                                    "ssa", u, "live-in variable must not be defined"))
                        break
                    def_at[b] = i
                    mask = mask | one[b] if mask else one[b]
                chad_def[i] = mask
                gain[2 * i + 1] += nd
        self.h = h

        code_backed = self.code_backed
        if code_backed and not block:
            # end[i]: the last preorder position in point i's subtree
            end = list(range(npts))
            for i in range(npts - 1, 0, -1):
                j = par[i]
                if j >= 0 and end[i] > end[j]:
                    end[j] = end[i]
        # a block's bits flip on at the def moments of their definitions
        flips = [0] * (2 * npts + 1)
        flips[1::2] = chad_def
        # a tree's masks at the use and at the def moment of each point,
        # and the bit that last walked it
        walked, below, mark = [0] * npts, chad_def[:], [-1] * npts
        spans = [None] * nv  # per bit: its first and last live sample
        doubt = {}  # var -> its first definition, where a use breaks dominance
        last = 2 * npts - 1
        clean = not found and not rules
        for b, (vid, w) in enumerate(zip(var_ids, self.int_weights)):
            if w <= 0:
                found.append(Violation("weight", vid,
                                       f"weight {Fraction(w, self.scale)} is not > 0"))
                clean = False
            if not code_backed:
                rng = self.ranges[vid]
                ps = [pos[p] for p in rng if p in pos]
                if not rng:
                    found.append(Violation("range", vid, "empty live range"))
                elif len(ps) < len(rng):
                    found.append(Violation("range", vid, "range mentions unknown points"))
                elif not block:
                    if sum(self.parent_of[p] not in rng for p in rng) != 1:
                        found.append(Violation("range", vid,
                                               "subtree range is not connected"))
                elif max(ps) - min(ps) != len(ps) - 1:
                    found.append(Violation("range", vid,
                                           "interval range is not contiguous"))
                if found:
                    continue
                first, final = min(ps), max(ps)
                spans[b] = (2 * first, 2 * final + 1)
                if block:
                    flips[2 * first] ^= one[b]
                    flips[2 * final + 2] ^= one[b]
                    gain[2 * first] += 1
                    gain[2 * final + 2] -= 1
                else:
                    for i in ps:
                        walked[i] |= one[b]
                        below[i] |= one[b]
                continue
            top, first, final = def_at[b], lo[b], hi[b]
            if top >= 0:
                s0 = 2 * top + 1
                if final >= 0 and not (top < first if block else
                                       top <= first and final <= end[top]):
                    doubt[vid] = top
                    clean = False
            elif vid in livein:
                top = s0 = 0
            elif final >= 0:  # never defined
                doubt[vid] = None
                clean = False
            else:
                found.append(Violation("range", vid, "empty live range"))
                clean = False
            if not clean:
                continue
            s1 = last if vid in liveout else 2 * final if final >= 0 else s0
            spans[b] = (s0, s1)
            if block:
                if not s0:  # live-in
                    flips[0] ^= one[b]
                    gain[0] += 1
                flips[s1 + 1] ^= one[b]
                gain[s1 + 1] -= 1
                continue
            if not s0:  # live-in
                walked[0] |= one[b]
            mark[top] = b
            for u in uses_at[b]:
                while mark[u] != b:
                    mark[u] = b
                    walked[u] |= one[b]
                    u = par[u]
                    below[u] |= one[b]

        if not code_backed:
            if livein or liveout:
                found.append(Violation("livein/liveout", "<instance>",
                                       "range instances take no livein/liveout"))
        else:
            found += rules
            for v in sorted((livein | liveout) - declared):
                found.append(Violation("livein/liveout", v, "undeclared variable"))
            if liveout and self.shape == TREE:
                found.append(Violation("liveout", "<instance>",
                                       "liveout is only defined for linear codes"))
            # the uses, at known points, that their variable's first
            # definition d does not dominate
            for ins in self.instructions if doubt else ():
                i = pos.get(ins.at)
                for v in sorted(ins.uses) if len(ins.uses) > 1 else ins.uses:
                    if i is None or v not in doubt:
                        continue
                    d = doubt[v]
                    if d is None:
                        detail = f"used at {ins.at} but never defined and not live-in"
                    elif block and i <= d:
                        detail = f"use at {ins.at} precedes definition at {order[d]}"
                    elif not block and not d <= i <= end[d]:
                        detail = (f"use at {ins.at} is outside the subtree of "
                                  f"definition {order[d]}")
                    else:
                        continue
                    found.append(Violation("dominance", v, detail))

        self.violations = tuple(found)
        self.problem = str(found[0]) if found else None
        if found:  # code that breaks a rule has no liveness
            self.spans, self.omega = (), 0
            self.live_masks = self.chad_masks = (0,) * (2 * npts)
            return
        self.spans = tuple(spans)
        chads = [0] * (2 * npts)
        chads[0::2], chads[1::2] = chad_use, chad_def
        self.chad_masks = tuple(chads)
        del one  # the masks that no table holds go before the tables grow
        if block:
            self.live_masks = tuple(accumulate(flips[:-1], int.__xor__))
            self.omega = max(accumulate(gain[:-1]), default=0)
        else:
            live = [0] * (2 * npts)
            live[0::2], live[1::2] = walked, below
            self.live_masks = tuple(live)
            self.omega = max(map(int.bit_count, live), default=0)

    def chads(self, mode):
        """Per sample, the chad mask `mode` counts: chad_masks with holes,
        zeros without; the one check that refuses a bad mode."""
        if mode == NOHOLES:
            return self._no_chads
        if mode != HOLES:
            raise ValueError(f"unknown pressure mode {mode!r}")
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

    def weight(self, vid):
        return Fraction(self.int_weights[self.bit_of[vid]], self.scale)

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


def _point_structure(shape, ids, parents):
    """(order, violations) whatever the points, given as their ids and
    parents: chain order or DFS preorder with children by id, unreached
    points last; and what breaks the points and shape rules, in
    validate()'s order."""
    found = []
    bad = lambda code, subject, detail: found.append(
        Violation(code, subject, detail))
    if not ids:
        bad("points", "<instance>", "instance has no points")
    if len(set(ids)) < len(ids):
        bad("points", "<instance>", "duplicate point ids")
    if shape == LINEAR:
        if parents.count(None) < len(parents):
            for p, q in zip(ids, parents):
                if q is not None:
                    bad("shape", f"point {p}", "linear code points take no parent")
        return sorted(ids), found
    roots = [p for p, q in zip(ids, parents) if q is None]
    children = {p: [] for p in ids}
    for p, q in zip(ids, parents):
        if q is not None and q in children:
            children[q].append(p)
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
    for p, q in zip(ids, parents):
        if q is not None and q not in children:
            bad("shape", f"point {p}", f"unknown parent {q}")
    for p in ids:
        if p in unreached:
            bad("shape", f"point {p}", "not reachable from the root")
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
    """Per-sample register pressure after spilling `spilled`, ids or an
    instance mask, under `mode`. Like every solver, it refuses an unsound
    instance, which has no liveness, and holes on a range instance."""
    instance.require_sound("pressure")
    s = _mask(instance, spilled)
    values = tuple((lm & ~s).bit_count() + (cm & s).bit_count()
                   for lm, cm in zip(instance.live_masks, instance.chads(mode)))
    return PressureProfile(instance.samples, values, mode)


def _mask(instance, spilled):
    """The bit mask of `spilled`, an instance mask or a collection of ids;
    ValueError on an int outside [0, 1 << n_vars), on an unknown id, and
    on a str, whose characters would read as one-character ids."""
    if isinstance(spilled, int):
        if not 0 <= spilled < 1 << instance.n_vars:
            raise ValueError(f"spill mask {spilled} is not a mask of "
                             f"{instance.n_vars} variables")
        return spilled
    if isinstance(spilled, str):
        raise ValueError(f"spilled variables must be a collection of ids, "
                         f"not the str {spilled!r}")
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


def spill_solution(instance, mask, profile, algorithm, steps, proven=True):
    """The feasible SpillSolution spilling the variables of `mask`, given
    the profile that spill leaves; the mode is the profile's."""
    return SpillSolution(
        spilled=instance.decode(mask),
        cost=Fraction(instance.int_weight(mask), instance.scale),
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
    for b, (first, _) in enumerate(instance.spans):
        born[first] |= (1 << b) & ~s
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
