import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spillkit.errors import ParseError
from spillkit.fileformat import parse, parse_source, serialize
from spillkit.reductions import (
    CoverInstance,
    GraphInstance,
    X3CInstance,
    gen_indepset_h1,
    gen_indepset_h2,
    gen_mincover,
    gen_x3c,
)

from builders import (
    decoded,
    random_linear_code,
    random_linear_ranges,
    random_tree_code,
    random_tree_ranges,
    seeded,
    within,
)

fs = frozenset

MINIMAL = """format spill-v1
kind ranges
point 1
var a weight 1 span 1..1
"""

CODE = """format spill-v1
kind linear
point 1
point 2
instr 1 uses - defs a
instr 2 uses a defs -
var a weight 1
"""


class TestParse:
    def test_minimal(self):
        inst = parse(MINIMAL)
        assert inst.n_vars == 1 and inst.omega == 1

    def test_code_backed_ranges_derived(self):
        inst = parse(CODE)
        # samples (1, use) (1, def) (2, use) (2, def)
        assert decoded(inst, inst.live_masks) == (fs(), fs("a"), fs("a"), fs())

    def test_zero_weight_is_semantic_error(self):
        # construction's weight rule, reported at the var's record
        bad = MINIMAL.replace("weight 1", "weight 0")
        with pytest.raises(ParseError) as exc:
            parse(bad)
        assert str(exc.value) == (
            "line 4: invalid instance (1 problem(s)); first: [weight] "
            "a: weight 0 is not > 0")
        assert exc.value.line == 4

    def test_span_covering_no_points(self):
        # construction's range rule, reported at the var's record
        bad = MINIMAL.replace("span 1..1", "span 2..0")
        with pytest.raises(ParseError) as exc:
            parse(bad)
        assert str(exc.value) == (
            "line 4: invalid instance (1 problem(s)); first: [range] "
            "a: empty live range")

    def test_unknown_record_rejected(self):
        with pytest.raises(ParseError):
            parse(MINIMAL + "frobnicate yes\n")

    def test_rational_weights(self):
        inst = parse(MINIMAL.replace("weight 1", "weight 7/2"))
        assert inst.weight("a") == 7 / 2 == 3.5

    def test_comments_and_blank_lines(self):
        text = "# header\n\n" + MINIMAL.replace("point 1", "point 1 # inline")
        assert parse(text) == parse(MINIMAL)

    def test_tree_ranges_use_points(self):
        text = ("format spill-v1\nkind ranges\npoint 1\npoint 2 parent 1\n"
                "var a weight 1 points 1,2\n")
        inst = parse(text)
        assert inst.shape == "tree"

    def test_span_on_tree_rejected(self):
        text = ("format spill-v1\nkind ranges\npoint 1\npoint 2 parent 1\n"
                "var a weight 1 span 1..2\n")
        with pytest.raises(ParseError):
            parse(text)

    def test_duplicate_point_rejected(self):
        with pytest.raises(ParseError):
            parse(MINIMAL.replace("point 1\n", "point 1\npoint 1\n"))

    def test_parented_point_on_a_linear_block(self):
        # construction's shape rule, reported at the point's record
        text = CODE.replace("point 2\n", "point 2 parent 1\n")
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == (
            "line 4: invalid instance (1 problem(s)); first: [shape] "
            "point 2: linear code points take no parent")
        assert exc.value.line == 4

    def test_no_points(self):
        # construction's points rule, reported at line 1
        with pytest.raises(ParseError) as exc:
            parse("format spill-v1\nkind linear\n")
        assert str(exc.value) == (
            "line 1: invalid instance (1 problem(s)); first: [points] "
            "<instance>: instance has no points")

    def test_validate_violations_surface(self):
        text = ("format spill-v1\nkind linear\npoint 1\npoint 2\n"
                "instr 1 uses - defs a\ninstr 2 uses - defs a\n"
                "var a weight 1\n")
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert "ssa" in str(exc.value)

    def test_spans_parse_in_linear_time(self):
        # 20,000 points and variables, spans of 1 to 9 points: on 2 vCPUs
        # a scan of every point per span took about 18 s, slicing 0.6 s
        m = 20_000
        rng = seeded(2007)
        text = "\n".join(
            ["format spill-v1", "kind ranges"]
            + [f"point {p}" for p in range(1, m + 1)]
            + [f"var v{p} weight 1 span {p}..{min(m, p + rng.randrange(9))}"
               for p in range(1, m + 1)])
        with within(5.0):
            inst = parse(text)
        assert inst.n_vars == m and inst.spans[inst.bit_of["v1"]][0] == 0

    def test_invalid_code_parses_in_linear_time(self):
        # 30,000 points and variables, and one undeclared live-in name: on
        # 2 vCPUs a second scan of the instructions that subtracted the
        # declared names from each one took 1.9 s at 10,000 points
        m = 30_000
        text = "\n".join(
            ["format spill-v1", "kind linear"]
            + [f"point {p}" for p in range(1, m + 1)]
            + ["livein ghost", "instr 1 uses - defs v1"]
            + [f"instr {p} uses v{p - 1} defs v{p}" for p in range(2, m + 1)]
            + [f"var v{p} weight 1" for p in range(1, m + 1)])
        with within(5.0):
            with pytest.raises(ParseError) as exc:
                parse(text)
        assert "[livein/liveout] ghost: undeclared variable" in str(exc.value)


# Records the grammar rejects: an <int> is -?[0-9]+, and an id list has
# no empty element. Python's int() would read the first three as 10, 2
# and 15, and splitting on commas would drop the empty ids; serialize
# would then write other text. Each pairs the record with its message.
OFF_GRAMMAR = {
    "underscore point id": ("point 1_0", "bad point id '1_0'"),
    "unicode point id": ("point \u0662", "bad point id '\u0662'"),
    "underscore weight": ("var a weight 1_5", "bad rational '1_5'"),
    "underscore parent": ("point 3 parent 0_1", "bad parent id '0_1'"),
    "plus sign": ("instr +1 uses - defs a", "bad point id '+1'"),
    "underscore denominator": ("var a weight 3/0_2", "bad rational '3/0_2'"),
    "unicode span": ("var a weight 1 span \u0661..2", "bad span '\u0661..2'"),
    "empty def": ("instr 1 uses - defs a,,b", "empty id in list 'a,,b'"),
    "trailing comma": ("instr 1 uses a,b, defs -", "empty id in list 'a,b,'"),
    "empty livein": ("livein ,", "empty id in list ','"),
    "empty point": ("var a weight 1 points 1,,2", "bad point id ''"),
}


@pytest.mark.parametrize("name", sorted(OFF_GRAMMAR))
def test_only_the_grammars_tokens_parse(name):
    record, message = OFF_GRAMMAR[name]
    text = f"format spill-v1\nkind linear\npoint 1\n{record}\nvar b weight 1\n"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == f"line 4: {message}"


# Records whose problem the loop over the records finds, each with its
# message: the one reported is the first in file order.
BROKEN = {
    "bad id in a list": ("instr 2 uses a,1b defs -", "bad identifier '1b'"),
    "bad weight": ("var c weight x", "bad rational 'x'"),
    "duplicate point": ("point 1", "duplicate point 1"),
    "unknown record": ("frobnicate 1", "unknown record kind 'frobnicate'"),
}


@pytest.mark.parametrize("first,second", [
    (a, b) for a in sorted(BROKEN) for b in sorted(BROKEN) if a != b])
def test_the_first_broken_record_is_reported(first, second):
    head = ["format spill-v1", "kind linear", "point 1", "point 2",
            "var a weight 1"]
    text = "\n".join(head + [BROKEN[first][0], "instr 1 uses - defs a",
                             BROKEN[second][0]]) + "\n"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, str(exc.value)) == (
        6, f"line 6: {BROKEN[first][1]}")


# Whole files parse refuses, each with the line and message it reports.
HEAD = "format spill-v1\nkind linear\npoint 1\n"
REFUSED = {
    "format not first": ("kind linear\nformat spill-v1\n", 1,
                         "expected 'format spill-v1' first"),
    "empty input": ("", 1, "empty input: missing format record"),
    "comments only": ("# a comment\n\n", 1, "empty input: missing format record"),
    "var id not an identifier": (HEAD + "var 1a weight 1\n", 4,
                                 "bad identifier '1a'"),
    "repeated var": (HEAD + "var a weight 1\nvar b weight 1\nvar a weight 2\n",
                     6, "duplicate var a"),
    "repeated livein": (HEAD + "livein a\nlivein b\n", 5,
                        "duplicate livein record"),
    "repeated liveout": (HEAD + "liveout -\nliveout a\n", 5,
                         "duplicate liveout record"),
    "livein with two lists": (HEAD + "livein a b\n", 4,
                              "livein takes one id list"),
    "liveout with two lists": (HEAD + "liveout a b\n", 4,
                               "liveout takes one id list"),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_files(name):
    text, line, message = REFUSED[name]
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, str(exc.value)) == (line, f"line {line}: {message}")


class TestSerialize:
    def test_deterministic(self):
        inst = parse(CODE)
        assert serialize(inst) == serialize(inst)

    def test_roundtrip_structural_equality(self):
        rng = seeded(41)
        for make in (lambda: random_linear_ranges(rng, w_max=9),
                     lambda: random_tree_ranges(rng),
                     lambda: random_linear_code(rng, h=2),
                     lambda: random_tree_code(rng)):
            for _ in range(15):
                inst = make()
                text = serialize(inst)
                again = parse(text)
                assert again == inst
                assert serialize(again) == text

    def test_reordered_input_canonicalizes(self):
        shuffled = """format spill-v1
kind linear
point 2
point 1
var a weight 1
instr 2 uses a defs -
instr 1 uses - defs a
"""
        assert serialize(parse(shuffled)) == serialize(parse(CODE))
        # points are compared by id, as block order and child order are
        assert parse(shuffled) == parse(CODE)
        assert parse(serialize(parse(shuffled))) == parse(shuffled)

    def test_generated_instances_roundtrip(self):
        certs = [
            gen_x3c(X3CInstance(tuple(f"e{i}" for i in range(6)),
                                (fs({"e0", "e1", "e2"}),
                                 fs({"e3", "e4", "e5"})))),
            gen_mincover(CoverInstance(("b1", "b2"),
                                       (fs({"b1"}), fs({"b1", "b2"})), 1)),
            gen_indepset_h2(GraphInstance(("u", "v"), (("u", "v"),), 1)),
            gen_indepset_h1(GraphInstance(("u", "v", "w"),
                                          (("u", "v"), ("v", "w")), 1)),
        ]
        for cert in certs:
            text = serialize(cert.instance)
            assert parse(text) == cert.instance
            assert serialize(parse(text)) == text


CYCLIC = {
    # a walk from the use at 2 up to the definition at 1 would circle
    "self-parent with a use": """format spill-v1
kind tree
point 1
point 2 parent 2
instr 1 uses - defs a
instr 2 uses a defs -
var a weight 1
""",
    "self-parent": "format spill-v1\nkind tree\npoint 1\npoint 2 parent 2\n",
    "two-cycle": ("format spill-v1\nkind tree\npoint 1\n"
                  "point 2 parent 3\npoint 3 parent 2\n"),
}


@pytest.mark.parametrize("name", sorted(CYCLIC))
def test_cyclic_parents_rejected(name):
    with within(1.0), pytest.raises(ParseError, match="not reachable") as exc:
        parse(CYCLIC[name])
    assert exc.value.line == 4  # the record of point 2


@pytest.mark.parametrize("text", [
    "format spill-v1\nkind linear\npoint 1\ninstr 7 uses a defs -\n"
    "var a weight 1\n",
    "format spill-v1\nkind tree\npoint 1\ninstr 1 uses - defs a\n"
    "instr 7 uses a defs -\nvar a weight 1\n",
    "format spill-v1\nkind ranges\npoint 1\nvar a weight 1 points 1,9\n",
], ids=["linear instr", "tree instr", "ranges points"])
def test_unknown_points_rejected(text):
    with pytest.raises(ParseError):
        parse(text)


_pt = st.integers(-1, 4)
_ids = st.lists(st.sampled_from("abc"), max_size=3).map(
    lambda vs: ",".join(vs) or "-")
# distinct point ids, most with no parent; a parent may be the point itself
_points = st.lists(st.tuples(_pt, st.none() | st.none() | _pt),
                   min_size=1, max_size=5, unique_by=lambda t: t[0]).map(
    lambda ps: [f"point {p}" + ("" if q is None else f" parent {q}")
                for p, q in ps])
_vars = st.lists(st.tuples(
    st.sampled_from("abc"), st.sampled_from(["1", "3/2", "2", "0"]),
    st.sampled_from(["", "", " span 1..3", " span 2..0"]) | st.lists(
        _pt, min_size=1, max_size=3).map(
        lambda ps: " points " + ",".join(map(str, ps)))),
    max_size=3, unique_by=lambda t: t[0]).map(
    lambda vs: [f"var {v} weight {w}{trailer}" for v, w, trailer in vs])
_instrs = st.lists(
    st.builds("instr {} uses {} defs {}".format, _pt, _ids, _ids), max_size=4)
_live = st.sampled_from([[], ["livein"], ["liveout"], ["livein", "liveout"]]
                        ).flatmap(lambda kinds: st.tuples(
                            *(_ids.map(f"{k} {{}}".format) for k in kinds)))
_junk = st.sampled_from([()] * 6 + [(junk,) for junk in (
    "kind loop", "format spill-v1", "point", "var a", "var d weight 1/0",
    "instr 1 uses a")])
# the format record, a kind record, then the others in any order
_spill_text = st.tuples(
    st.sampled_from(["kind linear", "kind tree", "kind ranges", None]),
    _points, _vars, _instrs, _live, _junk,
).flatmap(lambda t: st.permutations([r for part in t[1:] for r in part]).map(
    lambda records: "\n".join(["format spill-v1"]
                              + ([t[0]] if t[0] else []) + records)))


@settings(max_examples=300, deadline=None)
@given(_spill_text)
def test_parse_raises_only_parse_error(text):
    """Any list of records, cyclic parents included, parses to an
    instance whose canonical text parses back to itself, or raises
    ParseError."""
    with within(1.0):
        try:
            inst = parse(text)
        except ParseError:
            return
    text = serialize(inst)
    assert serialize(parse(text)) == text


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([
    lambda rng: random_linear_ranges(rng, w_max=9),
    random_tree_ranges,
    lambda rng: random_linear_code(rng, h=rng.choice((1, 2, 3))),
    random_tree_code,
]))
def test_serialize_parse_fixed_point(seed, make):
    text = serialize(make(seeded(seed)))
    assert serialize(parse(text)) == text


class TestSourceFiles:
    def test_x3c(self):
        kind, src = parse_source(
            "source x3c\nelements e1,e2,e3\ntriple e1,e2,e3\n")
        assert kind == "x3c" and len(src.triples) == 1

    def test_mincover(self):
        kind, src = parse_source(
            "source mincover\nground b1,b2\nmember b1\nmember b1,b2\nbound 1\n")
        assert kind == "mincover" and src.bound == 1

    def test_indepset_normalizes_edges(self):
        kind, src = parse_source(
            "source indepset\nvertices u,v\nedge v u\nbound 1\n")
        assert src.edges == (("u", "v"),)

    def test_invalid_source_rejected(self):
        with pytest.raises(ParseError):
            parse_source("source x3c\nelements e1,e2\ntriple e1,e2\n")
        with pytest.raises(ParseError):
            parse_source("source mincover\nground b1\nmember b1\nbound 9\n")


X3C = "source x3c\nelements e1,e2,e3\ntriple e1,e2,e3\n"
COVER = "source mincover\nground b1,b2\nmember b1,b2\nbound 1\n"
GRAPH = "source indepset\nvertices u,v\nedge u v\nbound 1\n"
# Source files parse_source refuses, each with the line and message it
# reports; the check() refusals are reported at line 1.
REFUSED_SOURCES = {
    "no source first": ("elements e1,e2,e3\nsource x3c\n", 1,
                        "expected 'source x3c|mincover|indepset' first"),
    "another kind's record": (X3C + "member e1\n", 4,
                              "unexpected record 'member' for source x3c"),
    "empty file": ("# nothing\n", 1, "empty source file"),
    "repeated elements": (X3C + "elements e4,e5,e6\n", 4,
                          "duplicate elements record"),
    "repeated ground": (COVER + "ground b3\n", 5, "duplicate ground record"),
    "repeated vertices": (GRAPH + "vertices w\n", 5,
                          "duplicate vertices record"),
    "repeated cover bound": (COVER + "bound 1\n", 5, "duplicate bound record"),
    "repeated graph bound": (GRAPH + "bound 2\n", 5, "duplicate bound record"),
    "duplicate elements": ("source x3c\nelements e1,e1,e2\n", 1,
                           "duplicate elements"),
    "2-element triple": ("source x3c\nelements e1,e2,e3\ntriple e1,e2\n", 1,
                         "triple ['e1', 'e2'] is not a 3-subset"),
    "no triple": ("source x3c\nelements e1,e2,e3\n", 1,
                  "X3C needs at least one triple"),
    "duplicate ground": (COVER.replace("b1,b2\nm", "b1,b1\nm"), 1,
                         "ground set must be nonempty without duplicates"),
    "duplicate vertices": (GRAPH.replace("u,v\n", "u,v,u\n"), 1,
                           "vertices must be nonempty without duplicates"),
    "edge u u": (GRAPH.replace("edge u v", "edge u u"), 1, "bad edge (u,u)"),
}


@pytest.mark.parametrize("name", sorted(REFUSED_SOURCES))
def test_refused_sources(name):
    text, line, message = REFUSED_SOURCES[name]
    with pytest.raises(ParseError) as exc:
        parse_source(text)
    assert (exc.value.line, str(exc.value)) == (line, f"line {line}: {message}")
