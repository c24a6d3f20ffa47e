"""The front end, pinned: what parse, construction and validate() make of
fixed corpora, digested and compared with known values. validate()
reports the ids of one record in sorted order, so no digest depends on
the string hash seed."""

import hashlib

from hypothesis import HealthCheck, Phase, given, settings

from spillkit import fileformat
from spillkit.errors import ParseError
from spillkit.model import (LINEAR, TREE, Instance, Instruction, Point,
                            validate)

from builders import (assert_no_liveness, chain_tree_code,
                      random_linear_block, random_linear_code,
                      random_linear_ranges, random_tree_code,
                      random_tree_ranges, seeded)
from test_format import _spill_text
from test_model import TOLERATED, _any_instance, assert_one_rule_set


def _draws(strategy, n):
    """The first n examples of `strategy` under a fixed seed."""
    out = []

    @settings(max_examples=n, derandomize=True, database=None,
              phases=[Phase.generate], deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(strategy)
    def collect(x):
        out.append(x)

    collect()
    return out


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()[:16]


def _tables(inst):
    """Every table construction builds and the validate() report of one
    instance, as one line; the report's first line, or None, is repeated
    before it."""
    report = [str(v) for v in validate(inst)]
    return repr((inst.samples, inst.live_masks, inst.chad_masks,
                 sorted(zip(inst.var_ids, inst.spans)), inst.int_weights,
                 inst.scale, inst.omega, inst.h,
                 report[0] if report else None, report))


def _pinned(insts):
    """The _tables line of each instance, once it is checked that the
    instance's `problem` is None exactly when validate() finds nothing."""
    lines = []
    for inst in insts:
        assert_one_rule_set(inst)
        lines.append(_tables(inst))
    return lines


def _builder_instances():
    rng = seeded(1107)
    for _ in range(40):
        yield random_linear_ranges(rng, w_max=9)
        yield random_tree_ranges(rng)
        yield random_tree_code(rng)
        yield random_linear_code(rng, h=rng.choice((1, 2, 3)))
    yield random_linear_block(rng, 200)


def _off_the_points():
    """Codes with an instruction at a point the instance does not have."""
    fs = frozenset
    block, tree = [Point(1), Point(2)], [Point(1), Point(2, 1)]
    for shape, pts, at, uses, defs, livein in [
            (LINEAR, block, (7, 1), ("", "a"), ("a", ""), ""),
            (LINEAR, block, (7, 1), ("a", ""), ("", "a"), ""),
            (LINEAR, block, (9,), ("a",), ("",), "a"),
            (TREE, tree, (7, 2), ("", "a"), ("a", ""), ""),
            (TREE, tree, (1, 9), ("", "a"), ("a", ""), ""),
            (TREE, tree, (9,), ("a",), ("b",), "")]:
        instrs = [Instruction(p, fs(u), fs(d)) for p, u, d in zip(at, uses, defs)]
        yield Instance.from_code(shape, pts, instrs, {"a": 1, "b": 2},
                                 livein=fs(livein))


def test_codes_off_their_points_are_pinned():
    assert _digest(_pinned(_off_the_points())) == "94689c0241f2d839"


def test_tolerated_forms_are_pinned():
    lines = _pinned(TOLERATED[form]() for form in sorted(TOLERATED))
    assert _digest(lines) == "2ca2c2b7ba9cfae5"


def test_any_instance_draws_are_pinned():
    lines = _pinned(_draws(_any_instance(), 300))
    assert len(lines) == 300
    assert _digest(lines) == "d33770c448b80bbd"


def test_sound_draws_are_pinned():
    """Which of the any-instance draws are sound, and the tables of
    those that are: the answers solvers read, whatever unsound code
    keeps."""
    draws = _draws(_any_instance(), 300)
    assert _digest(str(i.problem is None) for i in draws) == "a78d0fea5d8cd419"
    sound = [_tables(i) for i in draws if i.problem is None]
    assert len(sound) == 34
    assert _digest(sound) == "943f40694a0e81a0"


def test_builder_families_are_pinned():
    lines = _pinned(_builder_instances())
    assert _digest(lines) == "2c0928a1c10be026"


def _benchmark_sized():
    """Instances as large as the benchmark's: blocks and chain trees of
    1,000 and 3,000 points, and a linear code of up to 1,000."""
    rng = seeded(1123)
    yield random_linear_block(rng, 1000)
    yield random_linear_block(rng, 3000)
    yield chain_tree_code(rng, 1000)
    yield chain_tree_code(rng, 3000, wide=True)
    yield random_linear_code(rng, h=2, n_max=1000, m_max=1000)


def test_benchmark_sized_instances_are_pinned():
    lines = _pinned(_benchmark_sized())
    assert _digest(lines) == "10dbface2f1c4d7e"


def test_parse_errors_are_pinned():
    """Every ParseError message and line on a fixed corpus of record
    lists, and the canonical text of what parses."""
    lines = []
    for text in _draws(_spill_text, 400):
        try:
            inst = fileformat.parse(text)
        except ParseError as exc:
            lines.append(f"{exc.line}: {exc}")
        else:
            lines.append(fileformat.serialize(inst))
    assert _digest(lines) == "a1b3a5990130ba45"


def test_parse_derives_once(monkeypatch):
    """parse makes one liveness pass, valid or not: construction checks
    the rules as it derives the tables, and validate() reads its record;
    invalid text keeps no tables."""
    calls = []
    derive = Instance._derive

    def counted(self, found):
        calls.append(self)
        return derive(self, found)

    monkeypatch.setattr(Instance, "_derive", counted)
    rng = seeded(1111)
    texts = [fileformat.serialize(random_linear_code(rng, h=2)),
             fileformat.serialize(random_tree_ranges(rng)),
             "format spill-v1\nkind linear\npoint 1\npoint 2\n"
             "instr 1 uses - defs a\ninstr 9 uses a defs -\nvar a weight 1\n"]
    for text, valid in zip(texts, (True, True, False)):
        calls.clear()
        try:
            fileformat.parse(text)
        except ParseError:
            assert not valid
            assert_no_liveness(calls[0])
        else:
            assert valid
        assert len(calls) == 1


def _rebuilt(inst, weights=None, instructions=None):
    """`inst` built again from its records, with the changes given."""
    weights = weights or {v: inst.weight(v) for v in inst.var_ids}
    if not inst.code_backed:
        return Instance.from_ranges(inst.shape, inst.points, inst.ranges,
                                    weights)
    if instructions is None:
        instructions = inst.instructions
    return Instance.from_code(inst.shape, inst.points, instructions, weights,
                              inst.livein, inst.liveout)


def test_declarative_key_follows_the_records():
    """Round trips compare equal; one weight or one instruction more or
    less makes another instance."""
    rng = seeded(1109)
    for _ in range(30):
        for inst in (random_linear_ranges(rng, w_max=9),
                     random_tree_ranges(rng), random_tree_code(rng),
                     random_linear_code(rng, h=2)):
            back = fileformat.parse(fileformat.serialize(inst))
            assert back == inst and hash(back) == hash(inst)
            assert _rebuilt(inst) == inst
            v = inst.var_ids[-1]
            heavier = {u: inst.weight(u) + (u == v) for u in inst.var_ids}
            assert _rebuilt(inst, weights=heavier) != inst
            if inst.code_backed and inst.instructions:
                first, *rest = inst.instructions
                moved = Instruction(first.at, first.uses | {v}, first.defs)
                assert _rebuilt(inst, instructions=[moved, *rest]) != inst \
                    or v in first.uses
                assert _rebuilt(inst, instructions=rest) != inst
