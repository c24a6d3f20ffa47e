import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spillkit import kernel, oracle
from spillkit.errors import (MalformedCodeError, ParseError, SpillkitError,
                             UnsupportedModeError)
from spillkit.fileformat import parse, serialize
from spillkit.intervals import (greedy_furthest, incremental_cover_dp,
                                weighted_optimal)
from spillkit.model import (
    DEF,
    HOLES,
    LINEAR,
    NOHOLES,
    TREE,
    USE,
    Instance,
    Instruction,
    Point,
    assign,
    pressure,
    run_starts,
    validate,
)
from spillkit.oracle import (branch_and_bound, brute_force, brute_force_all,
                             verify)
from spillkit.punched import extra_set_dp
from spillkit.treedp import fitting_set_dp, fitting_set_dp_holes

from builders import (assert_no_liveness, assert_registers, chain_tree_code,
                      decoded, random_linear_block, random_linear_code,
                      random_linear_ranges, random_tree_code,
                      random_tree_ranges, seeded, within)


def linear_code(m, instrs, weights, livein=(), liveout=()):
    return Instance.from_code(LINEAR, [Point(p) for p in range(1, m + 1)],
                              instrs, weights, livein=livein, liveout=liveout)


def ins(at, uses="", defs=""):
    """Instruction over one-letter variables: ins(2, "ab") uses a and b."""
    return Instruction(at, frozenset(uses), frozenset(defs))


def tree_code(parents, instrs, weights, livein=()):
    """Tree code over points 1..len(parents); parents[i] is point i+1's."""
    pts = [Point(p, q) for p, q in enumerate(parents, start=1)]
    return Instance.from_code(TREE, pts, instrs, weights, livein=livein)


def spelled(sets):
    """Per-sample id sets as strings: {"a", "b"} is "ab"."""
    return ["".join(sorted(s)) for s in sets]


# Edge cases construction takes without raising, sound or not; the
# unsound ones are recorded in `violations` and keep no liveness.
TOLERATED = {
    # a is used at 2 and defined at 3
    "linear use before def":
        lambda: linear_code(4, [ins(2, "a"), ins(3, defs="a"), ins(4, "b")],
                            {"a": 1, "b": 1}, livein={"b"}),
    # a is defined at 1 and again at 2, where it is also used
    "use and def at one instruction":
        lambda: linear_code(4, [ins(1, defs="a"), ins(2, "a", "ab"),
                                ins(4, "b")], {"a": 1, "b": 1}),
    # a is defined at 2 but used at 3 and 4, a sibling's subtree
    "tree use outside the definition's subtree":
        lambda: tree_code([None, 1, 1, 3], [ins(2, defs="a"), ins(4, "a"),
                                            ins(3, "a")], {"a": 1}),
    # point 3's parent 9 does not exist
    "orphan point":
        lambda: tree_code([None, 1, 9], [ins(1, defs="a"), ins(3, "a"),
                                         ins(2, "a")], {"a": 1}),
    "linear def-only variable":
        lambda: linear_code(3, [ins(2, defs="a"), ins(3, "b")],
                            {"a": 1, "b": 1}, livein={"b"}),
    "tree def-only variable":
        lambda: tree_code([None, 1], [ins(2, defs="a")], {"a": 1}),
    "linear live-in variable with no use":
        lambda: linear_code(3, [ins(2, defs="b")], {"a": 1, "b": 1},
                            livein={"a"}),
    "tree live-in variable with no use":
        lambda: tree_code([None, 1], [ins(2, defs="b")], {"a": 1, "b": 1},
                          livein={"a"}),
    # b is used at 2 but not declared
    "use of an undeclared variable":
        lambda: linear_code(3, [ins(1, defs="a"), ins(2, "ab"), ins(3, "a")],
                            {"a": 1}),
    # a is live-in and defined at 1 as well
    "defined live-in variable":
        lambda: linear_code(3, [ins(1, defs="a"), ins(3, "a")], {"a": 1},
                            livein={"a"}),
    # the block has no point 9
    "instruction at an unknown point":
        lambda: linear_code(3, [ins(1, defs="a"), ins(2, "a"), ins(9, "a")],
                            {"a": 1}),
    # a and b are defined by two instructions at point 1
    "two instructions at one point":
        lambda: linear_code(2, [ins(1, defs="a"), ins(1, defs="b"),
                                ins(2, "ab")], {"a": 1, "b": 1}),
    # parse refuses a parent on a block point before construction sees it
    "linear point with a parent":
        lambda: Instance.from_code(LINEAR, [Point(1), Point(2, 1)],
                                   [ins(1, defs="a"), ins(2, "a")], {"a": 1}),
    # neither a block nor a tree
    "unknown shape":
        lambda: Instance.from_code("dag", [Point(1), Point(2, 1)],
                                   [ins(1, defs="a"), ins(2, "a")], {"a": 1}),
}


# The live and chad variables per sample of each sound tolerated form.
# Samples run (1, use), (1, def), (2, use), ...; "ab" means {a, b}.
LIVENESS = {
    "linear def-only variable": (["b", "b", "b", "ab", "b", ""],
                                 ["", "", "", "a", "b", ""]),
    "tree def-only variable": (["", "", "", "a"], ["", "", "", "a"]),
    "linear live-in variable with no use": (["a", "", "", "b", "", ""],
                                            ["", "", "", "b", "", ""]),
    "tree live-in variable with no use": (["a", "", "", "b"],
                                          ["", "", "", "b"]),
}


# The problem construction records for each tolerated form that breaks
# a rule: the first violation validate() reports.
UNSOUND = {
    "linear use before def":
        "[dominance] a: use at 2 precedes definition at 3",
    "use and def at one instruction":
        "[instr] point 2: uses and defs overlap: ['a']",
    "tree use outside the definition's subtree":
        "[dominance] a: use at 4 is outside the subtree of definition 2",
    "orphan point": "[shape] point 3: unknown parent 9",
    "use of an undeclared variable": "[instr] point 2: undeclared variable b",
    "defined live-in variable": "[ssa] a: live-in variable must not be defined",
    "instruction at an unknown point":
        "[instr] point 9: instruction at unknown point",
    "two instructions at one point":
        "[instr] point 1: multiple instructions at one point",
    "linear point with a parent":
        "[shape] point 2: linear code points take no parent",
    "unknown shape": "[shape] <instance>: unknown shape 'dag'",
}


class TestValidate:
    def test_minimal_single_point_ok(self):
        inst = linear_code(2, [Instruction(1, frozenset(), frozenset({"a"})),
                               Instruction(2, frozenset({"a"}), frozenset())],
                           {"a": 1})
        assert validate(inst) == []

    def test_single_point_def_consumed_downstream(self):
        # one point, one variable defined there and consumed via live-out
        inst = linear_code(1, [Instruction(1, frozenset(), frozenset({"a"}))],
                           {"a": 1}, liveout={"a"})
        assert validate(inst) == []
        assert inst.omega == 1

    def test_double_definition_reported(self):
        inst = linear_code(2, [Instruction(1, frozenset(), frozenset({"a"})),
                               Instruction(2, frozenset(), frozenset({"a"}))],
                           {"a": 1})
        assert any(v.code == "ssa" for v in validate(inst))

    def test_use_outside_definition_subtree(self):
        pts = [Point(1), Point(2, 1), Point(3, 1)]
        instrs = [Instruction(2, frozenset(), frozenset({"a"})),
                  Instruction(3, frozenset({"a"}), frozenset())]
        inst = Instance.from_code(TREE, pts, instrs, {"a": 1})
        assert any(v.code == "dominance" for v in validate(inst))

    def test_use_at_an_unknown_point_is_reported_once(self):
        # [instr] reports the point; dominance reads the uses at known ones
        instrs = [ins(1, defs="a"), ins(9, "a")]
        for inst in (linear_code(2, instrs, {"a": 1}),
                     tree_code([None, 1], instrs, {"a": 1})):
            assert [str(v) for v in validate(inst)
                    if v.code in ("instr", "dominance")] == [
                "[instr] point 9: instruction at unknown point"]

    @pytest.mark.parametrize("instrs", [
        [ins(9, "a")], [ins(7, defs="a"), ins(9, "a")]])
    @pytest.mark.parametrize("shape", [LINEAR, TREE])
    def test_undefined_use_at_an_unknown_point_is_reported_once(
            self, shape, instrs):
        # without a definition at a known point, dominance still reads
        # only the uses at known points
        inst = (linear_code(2, instrs, {"a": 1}) if shape == LINEAR
                else tree_code([None, 1], instrs, {"a": 1}))
        assert [str(v) for v in validate(inst) if v.code == "dominance"] == []
        assert "[instr] point 9: instruction at unknown point" in [
            str(v) for v in validate(inst)]

    def test_gap_in_linear_range_reported(self):
        inst = Instance.from_ranges(LINEAR, [Point(p) for p in (1, 2, 3)],
                                    {"a": [1, 3]}, {"a": 1})
        assert [v.detail for v in validate(inst) if v.code == "range"] == [
            "interval range is not contiguous"]

    def test_nonpositive_weight(self):
        inst = Instance.from_ranges(LINEAR, [Point(1)], {"a": [1]}, {"a": 0})
        assert any(v.code == "weight" for v in validate(inst))

    def test_overlapping_uses_defs(self):
        inst = linear_code(1, [Instruction(1, frozenset({"a"}), frozenset({"a"}))],
                           {"a": 1})
        assert any(v.code == "instr" for v in validate(inst))

    def test_two_roots_rejected(self):
        inst = Instance.from_ranges(TREE, [Point(1), Point(2)],
                                    {"a": [1]}, {"a": 1})
        assert any(v.code == "shape" for v in validate(inst))


class TestLiveRanges:
    def test_def_to_last_use(self):
        inst = linear_code(3, [Instruction(1, frozenset(), frozenset({"a"})),
                               Instruction(3, frozenset({"a"}), frozenset())],
                           {"a": 1})
        assert spelled(decoded(inst, inst.live_masks)) == [
            "", "a", "a", "a", "a", ""]

    def test_livein_to_last_use(self):
        inst = linear_code(3, [Instruction(2, frozenset({"b"}), frozenset())],
                           {"b": 1}, livein={"b"})
        assert spelled(decoded(inst, inst.live_masks)) == [
            "b", "b", "b", "", "", ""]

    def test_tree_union_of_paths(self):
        pts = [Point(1), Point(2, 1), Point(3, 2), Point(4, 2)]
        instrs = [Instruction(1, frozenset(), frozenset({"a"})),
                  Instruction(3, frozenset({"a"}), frozenset()),
                  Instruction(4, frozenset({"a"}), frozenset())]
        inst = Instance.from_code(TREE, pts, instrs, {"a": 1})
        # samples in preorder 1, 2, 3, 4; a is dead below the leaf 3
        assert spelled(decoded(inst, inst.live_masks)) == [
            "", "a", "a", "a", "a", "", "a", ""]

    def test_undefined_use_is_malformed(self):
        inst = linear_code(1, [Instruction(1, frozenset({"ghost"}), frozenset())],
                           {"ghost": 1})
        assert [str(v) for v in validate(inst)] == [
            "[dominance] ghost: used at 1 but never defined and not live-in"]


class TestPressure:
    def fixture(self):
        # a covers p1..p4 with chads at p1 (def) and p4 (use)
        return linear_code(4, [Instruction(1, frozenset(), frozenset({"a"})),
                               Instruction(4, frozenset({"a"}), frozenset())],
                           {"a": 1})

    def test_empty_spill_reaches_omega(self):
        inst = self.fixture()
        assert pressure(inst, set(), NOHOLES).max_pressure == inst.omega
        assert pressure(inst, set(), HOLES).max_pressure == inst.omega

    def test_holes_keep_chads(self):
        inst = self.fixture()
        prof = pressure(inst, {"a"}, HOLES)
        at = dict(zip(prof.samples, prof.values))
        assert at[1, DEF] == 1
        assert at[4, USE] == 1
        assert at[2, USE] == 0 and at[3, DEF] == 0

    def test_noholes_removes_everything(self):
        inst = self.fixture()
        assert pressure(inst, {"a"}, NOHOLES).max_pressure == 0

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            pressure(self.fixture(), {"zz"}, NOHOLES)

    def test_str_spill_set_refused(self):
        # with variables a, b and ab, the str "ab" is neither {"ab"} nor
        # {"a", "b"}: pressure, verify and assign refuse it
        abc = frozenset({"a", "b", "ab"})
        inst = linear_code(2, [Instruction(1, frozenset(), abc),
                               Instruction(2, abc, frozenset())],
                           dict.fromkeys(abc, 1))
        for call in (lambda s: pressure(inst, s, NOHOLES),
                     lambda s: oracle.verify(inst, s, 1, NOHOLES),
                     lambda s: assign(inst, s, NOHOLES)):
            with pytest.raises(ValueError, match="not the str 'ab'"):
                call("ab")
        assert pressure(inst, {"ab"}, NOHOLES).max_pressure == 2
        assert oracle.verify(inst, {"ab"}, 1, NOHOLES)

    def test_a_mask_reads_as_its_ids(self):
        # pressure, verify and assign take an instance mask as well as
        # ids; an int outside [0, 1 << n_vars) is refused
        inst = linear_code(3, [ins(1, defs="ab"), ins(2, "a"), ins(3, "b")],
                           {"a": 1, "b": 1})
        for call in (lambda s, mode: pressure(inst, s, mode),
                     lambda s, mode: oracle.verify(inst, s, 0, mode),
                     lambda s, mode: assign(inst, s, mode)):
            for mask in range(4):
                for mode in (NOHOLES, HOLES):
                    assert call(mask, mode) == call(inst.decode(mask), mode)
            for mask in (-1, 4):
                with pytest.raises(ValueError, match=(
                        f"^spill mask {mask} is not a mask of 2 variables$")):
                    call(mask, NOHOLES)

    def test_holes_need_code(self):
        inst = Instance.from_ranges(LINEAR, [Point(1)], {"a": [1]}, {"a": 1})
        with pytest.raises(UnsupportedModeError):
            pressure(inst, set(), HOLES)

    def test_two_samples_per_point(self):
        inst = self.fixture()
        assert len(inst.samples) == 2 * inst.n_points


class TestChordal:
    """Chordality shown by colouring: assign's tree scan gives every
    answer exactly max_pressure registers, checked pairwise."""

    def test_tree_codes_are_chordal(self):
        rng = seeded(301)
        for _ in range(25):
            inst = random_tree_code(rng)
            assert assert_registers(inst, (), NOHOLES) == inst.omega

    def test_linear_codes_are_chordal(self):
        rng = seeded(302)
        for _ in range(25):
            inst = random_linear_code(rng, h=1)
            assert assert_registers(inst, (), NOHOLES) == inst.omega

    def test_witness_is_a_peo(self):
        rng = seeded(303)
        for make in (lambda: random_linear_ranges(rng, w_max=9),
                     lambda: random_linear_block(rng, rng.randint(1, 40)),
                     lambda: random_tree_ranges(rng),
                     lambda: random_tree_code(rng),
                     lambda: random_linear_code(rng, h=rng.choice((1, 2, 3)))):
            for _ in range(40):
                assert_registers(make(), (), NOHOLES)

    @pytest.mark.parametrize("name", sorted(UNSOUND))
    def test_unsound_instances_are_refused(self, name):
        inst = TOLERATED[name]()
        with pytest.raises(MalformedCodeError, match=(
                f"^assign needs a valid instance; "
                f"{re.escape(UNSOUND[name])}$")):
            assign(inst, (), NOHOLES)

    def test_siblings_share_a_register(self):
        # a covers points 1 and 3, b point 2; 2 and 3 are children of 1, so
        # b lies inside a's preorder span but never meets a
        pts = [Point(1), Point(2, 1), Point(3, 1)]
        inst = Instance.from_ranges(TREE, pts, {"a": [1, 3], "b": [2]},
                                    {"a": 1, "b": 1})
        assert assign(inst, (), NOHOLES) == {"a": 0, "b": 0}

    def test_chads_take_registers_at_their_samples(self):
        inst = linear_code(3, [ins(1, defs="ab"), ins(2, "a"), ins(3, "b")],
                           {"a": 1, "b": 1})
        assert assign(inst, (), HOLES) == {"a": 0, "b": 1}
        assert assign(inst, {"a"}, NOHOLES) == {"b": 0}
        assert assign(inst, {"a"}, HOLES) == {
            "b": 0, ("a", 1, DEF): 1, ("a", 2, USE): 1}
        assert assign(inst, {"a", "b"}, HOLES) == {
            ("a", 1, DEF): 0, ("b", 1, DEF): 1, ("a", 2, USE): 0,
            ("b", 3, USE): 0}

    def test_refusals(self):
        inst = Instance.from_ranges(LINEAR, [Point(1)], {"a": [1]}, {"a": 1})
        with pytest.raises(UnsupportedModeError):
            assign(inst, (), HOLES)
        with pytest.raises(ValueError, match="unknown spilled variables"):
            assign(inst, {"zz"}, NOHOLES)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_assign_uses_exactly_max_pressure_registers(seed):
    """On every builder family, in each mode it defines, with a random
    spill set, assign's registers pass the pairwise check."""
    rng = seeded(seed)
    for inst in (random_linear_ranges(rng, w_max=9), random_tree_ranges(rng),
                 random_linear_block(rng, rng.randint(1, 40)),
                 random_tree_code(rng),
                 random_linear_code(rng, h=rng.choice((1, 2, 3))),
                 chain_tree_code(rng, rng.randint(1, 30))):
        spilled = {v for v in inst.var_ids if rng.random() < 0.4}
        for mode in (NOHOLES, HOLES) if inst.code_backed else (NOHOLES,):
            assert_registers(inst, spilled, mode)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_hole_pressure_sandwich(seed):
    # |L'(p)| <= l'(p) <= |L'(p)| + h at every sample point
    rng = seeded(seed)
    inst = random_linear_code(rng, h=rng.choice((1, 2, 3)))
    spilled = {v for v in inst.var_ids if rng.random() < 0.5}
    holes = pressure(inst, spilled, HOLES).values
    bare = pressure(inst, spilled, NOHOLES).values
    for lo, hi in zip(bare, holes):
        assert lo <= hi <= lo + inst.h


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_spill_all_leaves_only_chads(seed):
    rng = seeded(seed)
    inst = random_tree_code(rng)
    prof = pressure(inst, set(inst.var_ids), HOLES)
    expected = max(map(int.bit_count, inst.chad_masks), default=0)
    assert prof.max_pressure == expected
    assert pressure(inst, set(inst.var_ids), NOHOLES).max_pressure == 0


def test_tree_ranges_stay_connected():
    rng = seeded(304)
    for _ in range(30):
        inst = random_tree_code(rng)
        assert validate(inst) == []


def _mask_rules_hold(inst):
    """The two rules the solvers rely on, read off the masks: each live
    range has one top along `up` (a sample where its variable is live
    but not at the sample above), and a chad lies where its variable is
    live."""
    live, seen = inst.live_masks, 0
    for lm, u in zip(live, inst.up):
        tops = lm & ~(live[u] if u >= 0 else 0)
        if tops & seen:
            return False
        seen |= tops
    return all(cm & ~lm == 0 for lm, cm in zip(live, inst.chad_masks))


def assert_one_rule_set(inst):
    """`problem` is None exactly when validate() finds nothing, and is
    then its first line; an instance with no problem keeps the mask
    rules."""
    report = [str(v) for v in validate(inst)]
    assert (inst.problem is None) == (report == [])
    assert inst.problem == (report[0] if report else None)
    if inst.problem is None:
        assert _mask_rules_hold(inst)


@pytest.mark.parametrize("form", sorted(TOLERATED))
def test_tolerated_malformed_code(form):
    """A sound form keeps its liveness; an unsound one its problem, and
    no liveness."""
    inst = TOLERATED[form]()
    assert inst.problem == UNSOUND.get(form)
    assert_one_rule_set(inst)
    if form in UNSOUND:
        assert_no_liveness(inst)
    else:
        live, chads = LIVENESS[form]
        assert spelled(decoded(inst, inst.live_masks)) == live
        assert spelled(decoded(inst, inst.chad_masks)) == chads


def test_up_is_the_sample_tree():
    """up[i] is the sample just above sample i: a def moment's own use
    moment, then the previous point's def moment on a block, the parent
    point's on a tree; -1 at the root and where the parent is unknown."""
    rng = seeded(1507)
    insts = [TOLERATED[form]() for form in sorted(TOLERATED)]
    for _ in range(15):
        insts += [random_linear_ranges(rng, w_max=9), random_tree_ranges(rng),
                  random_tree_code(rng), random_linear_code(rng, h=2)]
    insts += [random_linear_block(rng, 60), chain_tree_code(rng, 40)]
    orphans = 0
    for inst in insts:
        up, samples = inst.up, inst.samples
        assert len(up) == len(samples)
        assert up[1::2] == tuple(range(0, len(up), 2))
        if inst.shape == LINEAR:
            assert up[::2] == tuple(range(-1, len(up) - 1, 2))
            continue
        for k in range(0, len(up), 2):
            q = inst.parent_of[samples[k][0]]
            if q is None or q not in inst.point_pos:
                assert up[k] == -1
                orphans += q is not None
            else:
                assert samples[up[k]] == (q, DEF)
    assert orphans == 1  # point 3 of the orphan form
    assert Instance.from_code(LINEAR, [], [], {}).up == ()


# Every solver, as (instance, r, mode) -> SpillSolution. dp-cover's target
# is omega - 1 whatever r is, and dp-extra's is r expressed as omega - k.
SOLVERS = {
    "greedy": lambda inst, r, mode: greedy_furthest(inst, r),
    "flow": lambda inst, r, mode: weighted_optimal(inst, r),
    "dp-cover": lambda inst, r, mode: incremental_cover_dp(inst),
    "dp-fit": lambda inst, r, mode: fitting_set_dp(inst, r),
    "dp-fit-holes": lambda inst, r, mode: fitting_set_dp_holes(inst, r),
    "dp-extra": lambda inst, r, mode: extra_set_dp(inst, inst.omega - r),
    "bnb": lambda inst, r, mode: branch_and_bound(inst, r, mode),
    "brute": lambda inst, r, mode: brute_force(inst, r, mode),
    "brute-all": lambda inst, r, mode: brute_force_all(inst, r, mode)[0],
}


@pytest.mark.parametrize("mode", [NOHOLES, HOLES])
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_every_solver_refuses_a_chad_where_nothing_is_live(name, mode):
    """Every tolerated form that is not strict SSA code is refused,
    naming its problem."""
    for form in sorted(UNSOUND):
        inst = TOLERATED[form]()
        with pytest.raises(MalformedCodeError, match=(
                f"needs a valid instance; {re.escape(UNSOUND[form])}$")):
            SOLVERS[name](inst, 0, mode)


def test_chads_per_mode():
    """chads(mode) is chad_masks with holes and zeros without, each the
    same sequence on every call; a mode it does not know is refused."""
    inst = TOLERATED["linear def-only variable"]()
    assert inst.chads(HOLES) is inst.chad_masks
    assert inst.chads(NOHOLES) == (0,) * len(inst.samples)
    assert inst.chads(NOHOLES) is inst.chads(NOHOLES)
    with pytest.raises(ValueError, match="^unknown pressure mode 'both'$"):
        inst.chads("both")


def test_hole_semantics_need_a_code_backed_instance(monkeypatch):
    """A range instance has no chads: pressure, verify and every solver
    that takes holes refuse it with the one error chads(HOLES) raises,
    and the exact oracles do so before they search."""
    def searched(*args):
        raise AssertionError("searched a range instance under holes")

    monkeypatch.setattr(kernel, "sweep", searched)
    monkeypatch.setattr(kernel, "sweep_all", searched)
    monkeypatch.setattr(oracle, "_dominated", searched)
    # 20 variables, the brute-force cap, one live at each point
    inst = Instance.from_ranges(LINEAR, [Point(p) for p in range(1, 21)],
                                {f"v{p:02d}": [p] for p in range(1, 21)},
                                {f"v{p:02d}": 1 for p in range(1, 21)})
    calls = [lambda: inst.chads(HOLES), lambda: pressure(inst, (), HOLES),
             lambda: verify(inst, (), 0, HOLES)]
    calls += [lambda solve=SOLVERS[name]: solve(inst, 0, HOLES)
              for name in ("dp-fit-holes", "dp-extra", "bnb", "brute",
                           "brute-all")]
    for call in calls:
        with pytest.raises(UnsupportedModeError, match=(
                "^hole semantics need a code-backed instance$")):
            call()


@st.composite
def _any_instance(draw):
    """A small instance construction accepts, sound or not: a tolerated
    form, a code with random uses and defs, or ranges with random gaps,
    on a block or a tree whose parent links may be broken."""
    kind = draw(st.sampled_from(["tolerated", "code", "ranges"]))
    if kind == "tolerated":
        return TOLERATED[draw(st.sampled_from(sorted(TOLERATED)))]()
    shape = draw(st.sampled_from([LINEAR, TREE]))
    m = draw(st.integers(1, 5), label="points")
    if shape == LINEAR:
        pts = [Point(p) for p in range(1, m + 1)]
    else:
        sane = draw(st.booleans(), label="parents form a tree")
        pts = [Point(1)] + [
            Point(p, draw(st.integers(1, p - 1) if sane
                          else st.one_of(st.none(), st.integers(1, m + 1))))
            for p in range(2, m + 1)]
    ids = [p.id for p in pts]
    names = "abcd"[:draw(st.integers(1, 4), label="variables")]
    weights = {v: draw(st.sampled_from([1, 1, 2, 3, Fraction(1, 2), 0, -1]))
               for v in names}
    subsets = st.frozensets(st.sampled_from(names), max_size=2)
    if kind == "ranges":
        ranges = {v: draw(st.frozensets(st.sampled_from(ids)), label=v)
                  for v in names}
        return Instance.from_ranges(shape, pts, ranges, weights)
    instrs = [Instruction(p, draw(subsets), draw(subsets))
              for p in draw(st.lists(st.sampled_from(ids), unique=True))]
    livein = draw(st.frozensets(st.sampled_from(names)), label="livein")
    liveout = (draw(st.frozensets(st.sampled_from(names)), label="liveout")
               if shape == LINEAR else ())
    return Instance.from_code(shape, pts, instrs, weights, livein=livein,
                              liveout=liveout)


@settings(max_examples=2000, deadline=None)
@given(_any_instance())
def test_problem_is_the_first_violation(inst):
    assert_one_rule_set(inst)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_generated_codes_keep_one_rule_set(seed):
    rng = seeded(seed)
    for inst in (random_linear_ranges(rng, w_max=9), random_tree_ranges(rng),
                 random_tree_code(rng), random_linear_code(rng, h=2),
                 random_linear_block(rng, rng.randint(1, 40)),
                 chain_tree_code(rng, rng.randint(1, 30))):
        assert_one_rule_set(inst)


@settings(max_examples=300, deadline=None)
@given(_any_instance(), st.data())
def test_every_entry_ends_in_a_result_or_a_spillkit_error(inst, data):
    """On any instance construction accepts, every solver and operation
    returns or raises a SpillkitError, and no solver reports a proven
    feasible solution above its target. Sound instances are solved."""
    for call in (lambda: assign(inst, (), NOHOLES),
                 lambda: assign(inst, (), HOLES),
                 lambda: pressure(inst, (), HOLES)):
        try:
            call()
        except SpillkitError:
            pass
    r = data.draw(st.integers(0, inst.omega), label="r")
    for mode in (NOHOLES, HOLES):
        try:
            verify(inst, set(inst.var_ids), r, mode)
        except SpillkitError:
            pass
        for name, solve in SOLVERS.items():
            target = inst.omega - 1 if name == "dp-cover" else r
            if target < 0 or (name == "dp-extra" and r == inst.omega):
                continue  # dp-extra lowers omega by at least one
            try:
                sol = solve(inst, r, mode)
            except MalformedCodeError:
                assert inst.problem, name
                continue
            except SpillkitError:
                continue
            if sol.feasible and sol.proven_optimal:
                assert sol.achieved_omega <= target, (name, mode)


@settings(max_examples=300, deadline=None)
@given(_any_instance())
@example(Instance.from_ranges(LINEAR, [Point(1), Point(2), Point(3)],
                              {"a": {1, 3}, "b": {2}}, {"a": 1, "b": 1}))
@example(Instance.from_ranges(LINEAR, [Point(1)], {"a": ()}, {"a": 1}))
def test_round_trips_are_sound_or_refused(inst):
    """serialize refuses an instance or writes text that parse refuses
    or reads back as the same instance; what parse accepts is sound."""
    try:
        text = serialize(inst)
    except SpillkitError:
        return
    try:
        back = parse(text)
    except ParseError:
        return
    assert back.problem is None
    assert back == inst


@pytest.mark.parametrize("parents", [[None, 2], [None, 3, 2]],
                         ids=["self-parent", "two-cycle"])
def test_cyclic_parents_end_and_are_reported(parents):
    # a is defined at the root and used on the cycle, where no walk up
    # from the use may go
    with within(1.0):
        inst = tree_code(parents, [ins(1, defs="a"), ins(2, "a")], {"a": 1})
    unreached = {v.subject for v in validate(inst) if v.code == "shape"}
    assert unreached == {f"point {p}" for p in range(2, len(parents) + 1)}


def test_integer_weights_and_masks():
    inst = linear_code(3, [Instruction(1, frozenset(), frozenset("b")),
                           Instruction(2, frozenset("b"), frozenset("a")),
                           Instruction(3, frozenset("a"), frozenset())],
                       {"a": Fraction(1, 2), "b": Fraction(2, 3)})
    assert inst.var_ids == ("a", "b")
    assert inst.scale == 6 and inst.int_weights == (3, 4)
    # samples (1,use) (1,def) (2,use) (2,def) (3,use) (3,def)
    assert inst.live_masks == (0, 2, 2, 1, 1, 0)
    assert inst.chad_masks == (0, 2, 2, 1, 1, 0)
    assert inst.int_weight(3) == 7 and inst.decode(3) == {"a", "b"}
    assert run_starts(inst.live_masks) == [0, 1, 3, 5]

    # A tree with holes: preorder 1, 2, 4, 3, and a is live at (1, def),
    # (2, use) and (3, use) but not in the subtree of 2 below its use.
    inst = tree_code([None, 1, 1, 2],
                     [ins(1, defs="ab"), ins(2, "a", "c"), ins(4, "bc"),
                      ins(3, "a")],
                     {"a": 1, "b": 2, "c": Fraction(1, 2)})
    assert spelled(decoded(inst, inst.live_masks)) == [
        "", "ab", "ab", "bc", "bc", "", "a", ""]
    assert spelled(decoded(inst, inst.chad_masks)) == [
        "", "ab", "a", "c", "bc", "", "a", ""]
    assert inst.spans == ((1, 6), (1, 4), (3, 4))
    live = (0, 3, 3, 6, 6, 0, 1, 0)
    chads = (0, 3, 1, 4, 6, 0, 1, 0)
    assert inst.scale == 2 and inst.int_weights == (2, 4, 1)
    assert inst.live_masks == live and inst.chad_masks == chads

    # The same on seeded codes and ranges: spans[b] is the first and the
    # last sample whose live mask holds bit b, for every bit.
    rng = seeded(305)
    for build in (random_tree_code, lambda rng: random_linear_code(rng, h=2),
                  random_tree_ranges, random_linear_ranges,
                  lambda rng: random_linear_block(rng, rng.randint(1, 30)),
                  lambda rng: chain_tree_code(rng, rng.randint(1, 30))):
        for _ in range(20):
            inst = build(rng)
            assert [m.bit_count() for m in inst.live_masks] == \
                [len(s) for s in decoded(inst, inst.live_masks)]
            assert [Fraction(w, inst.scale) for w in inst.int_weights] == \
                [inst.weight(v) for v in inst.var_ids]
            assert len(inst.spans) == inst.n_vars
            for b, span in enumerate(inst.spans):
                at = [i for i, m in enumerate(inst.live_masks) if m >> b & 1]
                assert span == (at[0], at[-1])
    for form in UNSOUND:
        assert TOLERATED[form]().spans == ()


def test_records_are_values():
    """Points and instructions are immutable tuples: equal and hashed as
    their fields, with the parent defaulting to None."""
    assert hash(Point(1, 2)) == hash((1, 2)) and Point(1, 2) == (1, 2)
    assert Point(3).parent is None
    assert repr(Point(3)) == "Point(id=3, parent=None)"
    ins_ = Instruction(1, frozenset("a"), frozenset())
    assert hash(ins_) == hash((1, frozenset("a"), frozenset()))
    with pytest.raises(AttributeError):
        Point(3).parent = 1
    with pytest.raises(AttributeError):
        ins_.at = 2
