"""Line-oriented instance format: parser, canonical serializer, and the
source-problem format consumed by the reduction generators.

    format spill-v1
    kind linear|tree|ranges
    point <id> [parent <id>]
    instr <point> uses <ids|-> defs <ids|->
    livein <ids|->
    liveout <ids|->
    var <id> weight <int|num/den> [span <a>..<b> | points <ids>]
    # comment

A ranges instance is a tree when a point names a parent or a variable
lists points, and linear (variables give spans) otherwise.

Rationals are written as num/den; no floating point appears anywhere so
optimality comparisons stay exact. serialize() emits records sorted
(points, then live-in/out, instructions, variables) and is byte-stable.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import MalformedCodeError, ParseError
from .model import LINEAR, TREE, Instance, Instruction, Point, validate
from .reductions import CoverInstance, GraphInstance, X3CInstance

FORMAT_TAG = "spill-v1"
_NAMES = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*(?:,[A-Za-z_][A-Za-z0-9_.\-]*)*")


def _name(tok, line):
    if "," in tok or not _NAMES.fullmatch(tok):
        raise ParseError(f"bad identifier {tok!r}", line)
    return tok


def _int(tok, line, what="integer"):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"bad {what} {tok!r}", line) from None


def _weight(tok, line):
    try:
        if "/" in tok:
            num, den = tok.split("/", 1)
            w = Fraction(int(num), int(den))
        else:
            w = int(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {tok!r}", line) from None
    if w <= 0:
        raise ParseError(f"weight must be positive, got {tok}", line)
    return w


def _csv(tok, line):
    if tok == "-":
        return []
    if _NAMES.fullmatch(tok):
        return tok.split(",")
    return [_name(t, line) for t in tok.split(",") if t != ""]


def _records(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if toks:
            yield lineno, toks


def parse(text):
    """Parse instance text; raises ParseError with a location on any
    syntactic or semantic problem, otherwise returns a valid Instance."""
    kind = None
    points = []
    point_lines = {}
    instrs = []
    instr_lines = []
    livein = None
    liveout = None
    weights = {}
    var_lines = {}  # id -> line of its first var record
    trailers = {}  # id -> (span|None, points|None), if the var has one
    dup_var = None  # (line, id) of the first repeated var
    seen_format = False

    for line, toks in _records(text):
        rec, args = toks[0], toks[1:]
        if not seen_format:
            if rec != "format" or args != [FORMAT_TAG]:
                raise ParseError(f"expected 'format {FORMAT_TAG}' first", line)
            seen_format = True
            continue
        if rec == "point":  # the frequent records first
            if len(args) == 1:
                pid, parent = _int(args[0], line, "point id"), None
            elif len(args) == 3 and args[1] == "parent":
                pid, parent = _int(args[0], line, "point id"), _int(args[2], line, "parent id")
            else:
                raise ParseError("point takes: <id> [parent <id>]", line)
            if pid in point_lines:
                raise ParseError(f"duplicate point {pid}", line)
            point_lines[pid] = line
            points.append(Point(pid, parent))
        elif rec == "instr":
            if len(args) != 5 or args[1] != "uses" or args[3] != "defs":
                raise ParseError("instr takes: <point> uses <ids|-> defs <ids|->", line)
            at = _int(args[0], line, "point id")
            instrs.append(Instruction(at, frozenset(_csv(args[2], line)),
                                      frozenset(_csv(args[4], line))))
            instr_lines.append(line)
        elif rec == "var":
            if len(args) < 3 or args[1] != "weight":
                raise ParseError("var takes: <id> weight <w> [span a..b | points ids]", line)
            vid = _name(args[0], line)
            w = _weight(args[2], line)
            if len(args) > 3:
                rest, span, pts = args[3:], None, None
                if rest[0] == "span" and len(rest) == 2:
                    m = re.match(r"^(-?\d+)\.\.(-?\d+)$", rest[1])
                    if not m:
                        raise ParseError(f"bad span {rest[1]!r}", line)
                    span = (int(m.group(1)), int(m.group(2)))
                elif rest[0] == "points" and len(rest) == 2:
                    pts = [_int(t, line, "point id") for t in rest[1].split(",") if t]
                else:
                    raise ParseError("var trailer must be 'span a..b' or 'points ids'", line)
                trailers.setdefault(vid, (span, pts))
            if vid in weights:
                dup_var = dup_var or (line, vid)
            weights.setdefault(vid, w)
            var_lines.setdefault(vid, line)
        elif rec == "kind":
            if kind is not None:
                raise ParseError("duplicate kind record", line)
            if len(args) != 1 or args[0] not in ("linear", "tree", "ranges"):
                raise ParseError("kind must be linear, tree or ranges", line)
            kind = args[0]
        elif rec == "livein":
            if livein is not None:
                raise ParseError("duplicate livein record", line)
            if len(args) != 1:
                raise ParseError("livein takes one id list", line)
            livein = frozenset(_csv(args[0], line))
        elif rec == "liveout":
            if liveout is not None:
                raise ParseError("duplicate liveout record", line)
            if len(args) != 1:
                raise ParseError("liveout takes one id list", line)
            liveout = frozenset(_csv(args[0], line))
        elif rec == "format":
            raise ParseError("duplicate format record", line)
        else:
            raise ParseError(f"unknown record kind {rec!r}", line)

    if not seen_format:
        raise ParseError("empty input: missing format record", 1)
    if kind is None:
        raise ParseError("missing kind record", 1)
    if not points:
        raise ParseError("instance declares no points", 1)
    if dup_var:
        raise ParseError(f"duplicate var {dup_var[1]}", dup_var[0])

    if kind in ("linear", "tree"):
        shape = LINEAR if kind == "linear" else TREE
        if kind == "linear":
            for p in points:
                if p.parent is not None:
                    raise ParseError("linear points take no parent",
                                     point_lines[p.id])
        if trailers:
            raise ParseError("span/points only appear in ranges instances",
                             var_lines[next(iter(trailers))])
        inst = Instance.from_code(shape, points, instrs, weights,
                                  livein=livein or frozenset(),
                                  liveout=liveout or frozenset())
    else:
        if livein is not None or liveout is not None:
            raise ParseError("ranges instances take no livein/liveout", 1)
        if instrs:
            raise ParseError("ranges instances take no instructions", instr_lines[0])
        # a one-point tree names no parent, but it lists points
        is_tree = (any(p.parent is not None for p in points)
                   or any(pts is not None for _, pts in trailers.values()))
        shape = TREE if is_tree else LINEAR
        ranges = {}
        for vid, line in var_lines.items():
            span, pts = trailers.get(vid, (None, None))
            if span is not None:
                if is_tree:
                    raise ParseError("span is for linear ranges; use points", line)
                lo, hi = span
                cover = sorted(p for p in point_lines if lo <= p <= hi)
                if not cover:
                    raise ParseError(f"span {lo}..{hi} covers no points", line)
            elif pts is not None:
                cover = pts
            else:
                raise ParseError("ranges var needs span or points", line)
            ranges[vid] = cover
        inst = Instance.from_ranges(shape, points, ranges, weights)

    problems = validate(inst)
    if problems:
        v = problems[0]
        # "point N" is N's record in a shape problem and N's instruction
        # in an instr problem; any other subject is a variable
        lines = {"shape": {f"point {p}": ln for p, ln in point_lines.items()},
                 "instr": {f"point {i.at}": ln
                           for i, ln in zip(instrs, instr_lines)},
                 }.get(v.code, var_lines)
        raise ParseError(f"invalid instance ({len(problems)} problem(s)); "
                         f"first: {v}", lines.get(v.subject, 1))
    return inst


def _fmt_csv(ids):
    ids = sorted(ids)
    return ",".join(ids) if ids else "-"


def serialize(instance) -> str:
    """Canonical text form: sorted records, byte-stable across runs."""
    out = [f"format {FORMAT_TAG}"]
    if instance.code_backed:
        out.append(f"kind {instance.shape}")
    else:
        out.append("kind ranges")
    for p in sorted(instance.points, key=lambda p: p.id):
        if p.parent is None:
            out.append(f"point {p.id}")
        else:
            out.append(f"point {p.id} parent {p.parent}")
    if instance.livein:
        out.append(f"livein {_fmt_csv(instance.livein)}")
    if instance.liveout:
        out.append(f"liveout {_fmt_csv(instance.liveout)}")
    if instance.code_backed:
        for ins in sorted(instance.instructions, key=lambda i: instance.point_pos[i.at]):
            out.append(f"instr {ins.at} uses {_fmt_csv(ins.uses)} "
                       f"defs {_fmt_csv(ins.defs)}")
    for vid in instance.var_ids:
        row = f"var {vid} weight {instance.weight(vid)}"  # 7/2, or 3
        if not instance.code_backed:
            pts = instance.ranges[vid]
            if instance.shape == LINEAR:
                pos = instance.point_pos  # sorted ids on a block
                if not (pts and pts <= pos.keys()
                        and pos[max(pts)] - pos[min(pts)] == len(pts) - 1):
                    raise MalformedCodeError(
                        f"span of {vid}: its range is empty or not the "
                        "block's points between its ends")
                row += f" span {min(pts)}..{max(pts)}"
            else:
                row += " points " + ",".join(str(p) for p in sorted(pts))
        out.append(row)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------
# Source-problem files for the reduction generators
# ---------------------------------------------------------------------

def parse_source(text):
    """Parse an X3C / minimum-cover / independent-set source instance.

        source x3c            source mincover        source indepset
        elements e1,e2,e3     ground b1,b2           vertices u,v,w
        triple e1,e2,e3       member b1,b2           edge u v
                              bound 1                bound 2
    """
    kind = None
    elements = ground = vertices = None
    triples = []
    members = []
    edges = []
    bound = None
    for line, toks in _records(text):
        rec, args = toks[0], toks[1:]
        if kind is None:
            if rec != "source" or len(args) != 1 or args[0] not in (
                    "x3c", "mincover", "indepset"):
                raise ParseError("expected 'source x3c|mincover|indepset' first", line)
            kind = args[0]
            continue
        if rec == "elements" and kind == "x3c" and len(args) == 1:
            elements = tuple(_csv(args[0], line))
        elif rec == "triple" and kind == "x3c" and len(args) == 1:
            triples.append(frozenset(_csv(args[0], line)))
        elif rec == "ground" and kind == "mincover" and len(args) == 1:
            ground = tuple(_csv(args[0], line))
        elif rec == "member" and kind == "mincover" and len(args) == 1:
            members.append(frozenset(_csv(args[0], line)))
        elif rec == "vertices" and kind == "indepset" and len(args) == 1:
            vertices = tuple(_csv(args[0], line))
        elif rec == "edge" and kind == "indepset" and len(args) == 2:
            u, v = _name(args[0], line), _name(args[1], line)
            edges.append((min(u, v), max(u, v)))
        elif rec == "bound" and kind in ("mincover", "indepset") and len(args) == 1:
            bound = _int(args[0], line, "bound")
        else:
            raise ParseError(f"unexpected record {rec!r} for source {kind}", line)
    if kind is None:
        raise ParseError("empty source file", 1)
    try:
        if kind == "x3c":
            src = X3CInstance(elements or (), tuple(triples))
            src.check()
        elif kind == "mincover":
            src = CoverInstance(ground or (), tuple(members), bound or 0)
            src.check()
        else:
            src = GraphInstance(vertices or (), tuple(sorted(set(edges))), bound or 0)
            src.check()
    except ValueError as exc:
        raise ParseError(str(exc), 1) from None
    return kind, src
