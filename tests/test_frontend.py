"""The front end, pinned: what parse, construction and validate() make of
fixed corpora, digested and compared with known values, and a guard that
solving through the CLI never decodes Instance.variables, nor does
checking build the interference graph. validate()
reports the ids of one record in sorted order, so no digest depends on
the string hash seed."""

import hashlib
import io

import pytest
from hypothesis import HealthCheck, Phase, given, settings

from spillkit import cli, fileformat, model
from spillkit.errors import ParseError
from spillkit.model import (LINEAR, TREE, Instance, Instruction, Point,
                            validate)

from builders import (random_linear_block, random_linear_code,
                      random_linear_ranges, random_tree_code,
                      random_tree_ranges, seeded)
from test_format import _spill_text
from test_model import TOLERATED, _any_instance


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
    """Every table construction builds, the decoded variables and the
    validate() report of one instance, as one line."""
    variables = [(vid, str(v.weight), v.range.kind, sorted(v.range.points),
                  sorted(v.chads)) for vid, v in inst.variables.items()]
    return repr((inst.samples, inst.live_masks, inst.chad_masks,
                 sorted(inst.spans.items()), inst.int_weights, inst.scale,
                 inst.omega, inst.h, inst.problem, variables,
                 [str(v) for v in validate(inst)]))


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
    assert _digest(map(_tables, _off_the_points())) == "0c27e957b36525b2"


def test_tolerated_forms_are_pinned():
    lines = [_tables(TOLERATED[form][0]()) for form in sorted(TOLERATED)]
    assert _digest(lines) == "6cdd5022d07e8710"


def test_any_instance_draws_are_pinned():
    lines = [_tables(inst) for inst in _draws(_any_instance(), 300)]
    assert len(lines) == 300
    assert _digest(lines) == "e3dfeb4775f60efd"


def test_builder_families_are_pinned():
    lines = [_tables(inst) for inst in _builder_instances()]
    assert _digest(lines) == "341aae1f9bfaee1b"


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
    assert _digest(lines) == "0af2c0043a152e1f"


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


def _solve_block(rng, w_max):
    inst = random_linear_code(rng, h=2, n_max=12, m_max=16, w_max=w_max)
    return inst, f"r={max(0, inst.omega - 2)}"


def _solve_tree(rng):
    inst = random_tree_code(rng, n_max=8, p_max=10)
    return inst, "few=1"


@pytest.mark.parametrize("make, algo", [
    (lambda rng: _solve_block(rng, 1), "greedy"),
    (lambda rng: _solve_block(rng, 20), "flow"),
    (_solve_tree, "dp-fit"),
], ids=["greedy", "flow", "dp-fit"])
def test_solving_never_decodes_the_variables(make, algo, tmp_path,
                                             monkeypatch):
    """parse, the auto-picked solver, its pressure and spill_solution
    and the report all read the masks, never Instance.variables."""
    parsed = []

    def parse(text):
        parsed.append(fileformat.parse(text))
        return parsed[-1]

    monkeypatch.setattr(cli, "parse", parse)
    rng = seeded(1108)
    for _ in range(10):
        inst, target = make(rng)
        while algo == "flow" and inst.unweighted():
            inst, target = make(rng)
        f = tmp_path / "code.spill"
        f.write_text(fileformat.serialize(inst))
        out = io.StringIO()
        assert cli.run(["solve", "--target", target, "--mode", "noholes",
                        str(f)], out, io.StringIO()) == 0
        assert f"algo={algo} " in out.getvalue()
        assert "variables" not in vars(parsed[-1])
        assert parsed[-1].variables == inst.variables  # decodes on access
        assert "variables" in vars(parsed[-1])


def test_check_never_builds_the_interference_graph(tmp_path, monkeypatch):
    """check reads the elimination order off the spans of what parse
    built, never off interference_graph."""
    def refuse(instance):
        raise AssertionError("check built the interference graph")

    monkeypatch.setattr(model, "interference_graph", refuse)
    rng = seeded(1110)
    for _ in range(5):
        for inst in (random_linear_ranges(rng, w_max=9),
                     random_linear_block(rng, 30), random_tree_ranges(rng),
                     random_tree_code(rng), random_linear_code(rng, h=2)):
            f = tmp_path / "code.spill"
            f.write_text(fileformat.serialize(inst))
            out = io.StringIO()
            assert cli.run(["check", str(f)], out, io.StringIO()) == 0
            assert out.getvalue().startswith("chordal: yes\n")
