"""Line-oriented instance format: parser, canonical serializer, and the
source-problem format consumed by the reduction generators.

    format spill-v1
    kind linear|tree|ranges
    point <id> [parent <id>]
    instr <point> uses <ids|-> defs <ids|->
    livein <ids|->
    liveout <ids|->
    var <id> weight <int|num/den> [span <a>..<b> | points <points>]
    # comment

Tokens are separated by whitespace. Every integer (a point id, a
parent, <a>, <b>, <int>, num and den) is -?[0-9]+: ASCII digits after an
optional minus. An <id> is [A-Za-z_][A-Za-z0-9_.-]*; <ids> is one or
more ids joined by commas, none of them empty, or '-' for none; <points>
is one or more point ids joined by commas, none of them empty.

A ranges instance is a tree when a point names a parent or a variable
lists points, and linear (variables give spans) otherwise.

Rationals are written as num/den; no floating point appears anywhere so
optimality comparisons stay exact. serialize() emits records sorted
(points, then live-in/out, instructions, variables) and is byte-stable.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from fractions import Fraction

from .errors import MalformedCodeError, ParseError
from .model import LINEAR, TREE, Instance, Instruction, Point, validate
from .reductions import CoverInstance, GraphInstance, X3CInstance

FORMAT_TAG = "spill-v1"
_NAMES = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*(?:,[A-Za-z_][A-Za-z0-9_.\-]*)*")
_NONE = frozenset()


def _name(tok, line):
    if "," in tok or not _NAMES.fullmatch(tok):
        raise ParseError(f"bad identifier {tok!r}", line)
    return tok


def _is_int(tok):
    """Whether tok is -?[0-9]+."""
    digits = tok[1:] if tok.startswith("-") else tok
    return digits.isdigit() and digits.isascii()


def _int(tok, line, what="integer"):
    if not _is_int(tok):
        raise ParseError(f"bad {what} {tok!r}", line)
    return int(tok)


def _weight(tok, line):
    num, slash, den = tok.partition("/")
    if _is_int(num) and (not slash or _is_int(den)):
        if not slash:
            return int(num)
        if int(den):
            return Fraction(int(num), int(den))
    raise ParseError(f"bad rational {tok!r}", line)


def _ids(tok, line):
    """The ids of a list token: '-' for none, else ids joined by commas,
    none of them empty."""
    if tok == "-":
        return []
    if _NAMES.fullmatch(tok):
        return tok.split(",")
    bad = next(t for t in tok.split(",") if not _NAMES.fullmatch(t))
    raise ParseError(f"bad identifier {bad!r}" if bad
                     else f"empty id in list {tok!r}", line)


def _toks(raw):
    """The tokens of one line, its comment cut off."""
    return (raw.partition("#")[0] if "#" in raw else raw).split()


def parse(text):
    """Parse instance text; raises ParseError with a location on any
    syntactic or semantic problem, otherwise returns a valid Instance.
    One loop reads the records and raises at the first broken one, so the
    first such problem in file order is reported; a missing kind, a
    repeated var and what construction finds are reported once every
    record is read."""
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

    records = enumerate(text.splitlines(), start=1)
    for line, raw in records:
        toks = _toks(raw)
        if toks:
            if toks != ["format", FORMAT_TAG]:
                raise ParseError(f"expected 'format {FORMAT_TAG}' first", line)
            break
    else:
        raise ParseError("empty input: missing format record", 1)
    # The records are read inline, without a helper call per record (the
    # tokens are _toks's): a plain [0-9]+ integer or an ASCII identifier
    # is taken as it is, and any other token goes to the helper that
    # checks it in full.
    for line, raw in records:
        toks = (raw.partition("#")[0] if "#" in raw else raw).split()
        if not toks:
            continue
        rec = toks[0]
        if rec == "point":  # the frequent records first
            n = len(toks)
            if n == 2:
                t, parent = toks[1], None
            elif n == 4 and toks[2] == "parent":
                t, q = toks[1], toks[3]
            else:
                raise ParseError("point takes: <id> [parent <id>]", line)
            pid = int(t) if t.isdigit() and t.isascii() else _int(t, line, "point id")
            if n == 4:
                parent = (int(q) if q.isdigit() and q.isascii()
                          else _int(q, line, "parent id"))
            if pid in point_lines:
                raise ParseError(f"duplicate point {pid}", line)
            point_lines[pid] = line
            points.append(Point(pid, parent))
        elif rec == "instr":
            if len(toks) != 6 or toks[2] != "uses" or toks[4] != "defs":
                raise ParseError("instr takes: <point> uses <ids|-> defs <ids|->", line)
            t, u, d = toks[1], toks[3], toks[5]
            at = int(t) if t.isdigit() and t.isascii() else _int(t, line, "point id")
            uses = (_NONE if u == "-" else frozenset(u.split(","))
                    if u.isidentifier() and u.isascii() or _NAMES.fullmatch(u)
                    else frozenset(_ids(u, line)))
            defs = (_NONE if d == "-" else frozenset(d.split(","))
                    if d.isidentifier() and d.isascii() or _NAMES.fullmatch(d)
                    else frozenset(_ids(d, line)))
            instrs.append(Instruction(at, uses, defs))
            instr_lines.append(line)
        elif rec == "var":
            n = len(toks)
            if n < 4 or toks[2] != "weight":
                raise ParseError("var takes: <id> weight <w> [span a..b | points ids]", line)
            vid, t = toks[1], toks[3]
            if not (vid.isidentifier() and vid.isascii()):
                _name(vid, line)
            w = int(t) if t.isdigit() and t.isascii() else _weight(t, line)
            if n > 4:
                rest, span, pts = toks[4:], None, None
                if rest[0] == "span" and len(rest) == 2:
                    a, dots, b = rest[1].partition("..")
                    if not (dots and _is_int(a) and _is_int(b)):
                        raise ParseError(f"bad span {rest[1]!r}", line)
                    span = (int(a), int(b))
                elif rest[0] == "points" and len(rest) == 2:
                    pts = [_int(t, line, "point id") for t in rest[1].split(",")]
                else:
                    raise ParseError("var trailer must be 'span a..b' or 'points ids'", line)
                trailers.setdefault(vid, (span, pts))
            if vid in weights:
                dup_var = dup_var or (line, vid)
            else:
                weights[vid] = w
                var_lines[vid] = line
        elif rec == "kind":
            if kind is not None:
                raise ParseError("duplicate kind record", line)
            if len(toks) != 2 or toks[1] not in ("linear", "tree", "ranges"):
                raise ParseError("kind must be linear, tree or ranges", line)
            kind = toks[1]
        elif rec == "livein":
            if livein is not None:
                raise ParseError("duplicate livein record", line)
            if len(toks) != 2:
                raise ParseError("livein takes one id list", line)
            livein = frozenset(_ids(toks[1], line))
        elif rec == "liveout":
            if liveout is not None:
                raise ParseError("duplicate liveout record", line)
            if len(toks) != 2:
                raise ParseError("liveout takes one id list", line)
            liveout = frozenset(_ids(toks[1], line))
        elif rec == "format":
            raise ParseError("duplicate format record", line)
        else:
            raise ParseError(f"unknown record kind {rec!r}", line)

    if kind is None:
        raise ParseError("missing kind record", 1)
    if dup_var:
        raise ParseError(f"duplicate var {dup_var[1]}", dup_var[0])

    if kind in ("linear", "tree"):
        shape = LINEAR if kind == "linear" else TREE
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
        ids = sorted(point_lines)
        for vid, line in var_lines.items():
            span, pts = trailers.get(vid, (None, None))
            if span is not None:
                if is_tree:
                    raise ParseError("span is for linear ranges; use points", line)
                lo, hi = span
                cover = ids[bisect_left(ids, lo):bisect_right(ids, hi)]
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
    pos = instance.point_pos  # sorted ids on a block
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
        # an instruction off the points goes last
        for ins in sorted(instance.instructions,
                          key=lambda i: pos.get(i.at, len(pos))):
            out.append(f"instr {ins.at} uses {_fmt_csv(ins.uses)} "
                       f"defs {_fmt_csv(ins.defs)}")
    for vid in instance.var_ids:
        row = f"var {vid} weight {instance.weight(vid)}"  # 7/2, or 3
        if not instance.code_backed:
            pts = instance.ranges[vid]
            if instance.shape == LINEAR:
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

    Only triple, member and edge records repeat.
    """
    kind = None
    once = {}  # record that appears at most once -> its value
    triples = []
    members = []
    edges = []
    for line, raw in enumerate(text.splitlines(), start=1):
        toks = _toks(raw)
        if not toks:
            continue
        rec, args = toks[0], toks[1:]
        if kind is None:
            if rec != "source" or len(args) != 1 or args[0] not in (
                    "x3c", "mincover", "indepset"):
                raise ParseError("expected 'source x3c|mincover|indepset' first", line)
            kind = args[0]
            single = {"x3c": ("elements",), "mincover": ("ground", "bound"),
                      "indepset": ("vertices", "bound")}[kind]
            continue
        if rec in single and len(args) == 1:
            if rec in once:
                raise ParseError(f"duplicate {rec} record", line)
            once[rec] = (_int(args[0], line, "bound") if rec == "bound"
                         else tuple(_ids(args[0], line)))
        elif rec == "triple" and kind == "x3c" and len(args) == 1:
            triples.append(frozenset(_ids(args[0], line)))
        elif rec == "member" and kind == "mincover" and len(args) == 1:
            members.append(frozenset(_ids(args[0], line)))
        elif rec == "edge" and kind == "indepset" and len(args) == 2:
            u, v = _name(args[0], line), _name(args[1], line)
            edges.append((min(u, v), max(u, v)))
        else:
            raise ParseError(f"unexpected record {rec!r} for source {kind}", line)
    if kind is None:
        raise ParseError("empty source file", 1)
    bound = once.get("bound", 0)
    try:
        if kind == "x3c":
            src = X3CInstance(once.get("elements", ()), tuple(triples))
            src.check()
        elif kind == "mincover":
            src = CoverInstance(once.get("ground", ()), tuple(members), bound)
            src.check()
        else:
            src = GraphInstance(once.get("vertices", ()),
                                tuple(sorted(set(edges))), bound)
            src.check()
    except ValueError as exc:
        raise ParseError(str(exc), 1) from None
    return kind, src
