import io
import json
from pathlib import Path

import pytest

from spillkit.cli import ALGOS, run
from spillkit.fileformat import parse, parse_source, serialize
from spillkit.reductions import gen_indepset_h1, gen_x3c

from builders import random_linear_code, seeded

BELADY_W = """format spill-v1
kind ranges
point 1
point 2
point 3
point 4
point 5
point 6
point 7
point 8
point 9
point 10
var a weight 10 span 1..10
var b weight 1 span 1..5
var c weight 1 span 6..10
"""

# two live-in variables used together: their chads keep pressure 2 at 1
INFEASIBLE = """format spill-v1
kind linear
point 1
livein x,y
instr 1 uses x,y defs -
var x weight 1
var y weight 1
"""

# 30 variables live at one point: at r = 15 the fitting-set DP charges
# more than its default budget of 10**7 candidate sets at the first sample
WIDE = "format spill-v1\nkind ranges\npoint 1\n" + "".join(
    f"var v{i:02d} weight 1 span 1..1\n" for i in range(30))

# omega 3: targets below it reach the solver
THREE = """format spill-v1
kind linear
point 1
point 2
livein a,b,c
instr 2 uses a,b,c defs -
var a weight 1
var b weight 1
var c weight 2
"""


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def belady_file(tmp_path):
    f = tmp_path / "belady.spill"
    f.write_text(BELADY_W)
    return str(f)


def report_fields(text):
    out = {}
    for line in text.splitlines():
        section, _, rest = line.partition(": ")
        for part in rest.split():
            key, _, val = part.partition("=")
            out[f"{section}.{key}"] = val
    return out


class TestSolve:
    def test_greedy_report(self, belady_file):
        code, out, _ = cli("solve", "--target", "r=1", "--mode", "noholes",
                           "--algo", "greedy", belady_file)
        assert code == 0
        fields = report_fields(out)
        assert fields["solution.spilled"] == "a"
        assert fields["solution.cost"] == "10"
        assert fields["solver.algo"] == "greedy"

    def test_auto_picks_flow_for_weighted(self, belady_file):
        code, out, _ = cli("solve", "--target", "r=1", "--mode", "noholes",
                           belady_file)
        assert code == 0
        fields = report_fields(out)
        assert fields["solver.algo"] == "flow"
        assert fields["solution.cost"] == "2"

    def test_json_matches_text(self, belady_file, tmp_path):
        jpath = str(tmp_path / "rep.json")
        code, out, _ = cli("solve", "--target", "r=1", "--mode", "noholes",
                           "--json", jpath, belady_file)
        assert code == 0
        fields = report_fields(out)
        rep = json.loads(Path(jpath).read_text())
        assert ",".join(rep["solution"]["spilled"]) == fields["solution.spilled"]
        assert rep["solution"]["cost"] == fields["solution.cost"]
        assert str(rep["solution"]["omega_prime"]) == fields["solution.omega_prime"]
        assert rep["solver"]["algo"] == fields["solver.algo"]
        assert str(rep["solver"]["steps"]) == fields["solver.steps"]
        assert rep["instance"]["omega"] == 2

    def test_infeasible_exit_code(self, tmp_path):
        f = tmp_path / "inf.spill"
        f.write_text(INFEASIBLE)
        code, _, err = cli("solve", "--target", "r=1", "--mode", "holes",
                           "--algo", "brute", str(f))
        assert code == 2

    @pytest.mark.parametrize("text, argv, code, report, err", [
        (BELADY_W.replace("weight 1 span 1..5", "weight 3/2 span 1..5"),
         ("--target", "r=1", "--mode", "noholes", "--algo", "flow"), 0,
         "instance: shape=linear m=10 n=3 omega=2 h=0\n"
         "solution: spilled=b,c cost=5/2 omega_prime=1 feasible=yes "
         "proven_optimal=yes\n"
         "solver: algo=flow steps=3 budget_hit=no\n", ""),
        (INFEASIBLE, ("--target", "r=1", "--mode", "holes", "--algo", "brute"),
         2,
         "instance: shape=linear m=1 n=2 omega=2 h=2\n"
         "solution: spilled=- cost=- omega_prime=- feasible=no "
         "proven_optimal=yes\n"
         "solver: algo=brute steps=1 budget_hit=no\n", ""),
        (INFEASIBLE, ("--target", "r=1", "--mode", "holes",
                      "--algo", "dp-fit-holes"), 2,
         "instance: shape=linear m=1 n=2 omega=2 h=2\n"
         "solution: spilled=- cost=- omega_prime=- feasible=no "
         "proven_optimal=yes\n"
         "solver: algo=dp-fit-holes steps=0 budget_hit=no\n",
         "infeasible: even the full spill leaves pressure 2 > 1 at point 1 "
         "(use moment)\n"),
        (WIDE, ("--target", "r=15", "--mode", "noholes", "--algo", "dp-fit"),
         3,
         "instance: shape=linear m=1 n=30 omega=30 h=0\n"
         "solution: spilled=- cost=- omega_prime=- feasible=no "
         "proven_optimal=no\n"
         "solver: algo=dp-fit steps=0 budget_hit=yes\n",
         "budget exceeded: fitting-set DP exceeded its budget of 10000000 "
         "candidate sets; use weighted_optimal for linear instances or the "
         "exact oracle\n"),
    ], ids=["feasible", "infeasible", "dp-infeasible", "dp-over-budget"])
    def test_text_report_is_pinned(self, text, argv, code, report, err,
                                   tmp_path):
        """Every outcome writes one report, as text and as JSON, and the
        exit code follows it; a DP's reason goes to stderr."""
        f = tmp_path / "code.spill"
        f.write_text(text)
        jpath = tmp_path / "rep.json"
        assert cli("solve", *argv, "--json", str(jpath), str(f)) == (
            code, report, err)
        rep = json.loads(jpath.read_text())
        assert {f"{section}.{k}" for section in rep for k in rep[section]} \
            == report_fields(report).keys()
        assert rep["solution"]["feasible"] == (code == 0)
        assert rep["solver"]["budget_hit"] == (code == 3)

    def test_usage_errors(self, belady_file):
        code, _, err = cli("solve", "--target", "bogus", "--mode", "noholes",
                           belady_file)
        assert code == 1
        code, _, err = cli("solve", "--target", "r=1", "--mode", "holes",
                           belady_file)
        assert (code, err) == (
            1, "error: hole semantics need a code-backed instance\n")

    def test_argparse_output_goes_to_the_given_streams(self, capsys):
        code, out, err = cli("solve", "--mode", "holes")
        assert code == 1 and out == ""
        assert "usage: spillkit solve" in err and "--target" in err
        code, out, err = cli("solve", "--help")
        assert code == 0 and "--target" in out and err == ""
        code, _, err = cli("solve", "--target", "r=1", "--mode", "noholes",
                           "--hmax", "3", "x.spill")
        assert code == 1 and "unrecognized arguments: --hmax" in err
        assert capsys.readouterr() == ("", "")

    def test_parse_error_exit(self, tmp_path):
        f = tmp_path / "bad.spill"
        f.write_text("format spill-v1\nkind linear\npoint 1\nnonsense\n")
        code, _, err = cli("solve", "--target", "r=1", "--mode", "noholes",
                           str(f))
        assert code == 1 and "nonsense" in err

    def test_trivial_target(self, tmp_path):
        # omega is 3, so r=5 needs no spill
        f = tmp_path / "code.spill"
        f.write_text(THREE)
        code, out, _ = cli("solve", "--target", "r=5", "--mode", "holes",
                           "--algo", "dp-extra", str(f))
        assert code == 0
        assert report_fields(out)["solution.spilled"] == "-"


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("target", ["r=-1", "few=-1", "omega-5"])
def test_negative_target_is_a_usage_error(algo, target, tmp_path):
    # omega is 3, so omega-5 resolves to r = -2
    f = tmp_path / "code.spill"
    f.write_text(THREE)
    mode = "holes" if algo in ("dp-fit-holes", "dp-extra") else "noholes"
    code, out, err = cli("solve", "--target", target, "--mode", mode,
                         "--algo", algo, str(f))
    assert code == 1 and out == ""
    assert err.startswith("error: target resolves to r = -")


@pytest.mark.parametrize("algo, mode, target, message", [
    ("dp-cover", "holes", "omega-1", "dp-cover is defined without holes"),
    ("dp-fit", "holes", "r=1", "dp-fit is the without-holes DP; "
                               "use dp-fit-holes"),
    # omega is 3: the mode is checked before the r >= omega shortcut
    ("dp-fit", "holes", "r=5", "dp-fit is the without-holes DP; "
                               "use dp-fit-holes"),
    ("dp-fit-holes", "noholes", "r=1", "dp-fit-holes needs --mode holes"),
    ("dp-extra", "noholes", "omega-1", "dp-extra needs --mode holes"),
    ("auto", "noholes", "omega-0", "omega-k needs k >= 1"),
])
def test_refused_requests_are_usage_errors(algo, mode, target, message,
                                           tmp_path):
    f = tmp_path / "code.spill"
    f.write_text(THREE)
    assert cli("solve", "--target", target, "--mode", mode, "--algo", algo,
               str(f)) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("target", ["r=1_0", "few=٢", "omega-+1", "r= 2",
                                    "r=", "few=1.0"])
def test_targets_take_the_formats_integers_only(target, tmp_path):
    # N and K are -?[0-9]+ as in a spill-v1 file: int() would read r=1_0
    # as 10, few=٢ as 2, omega-+1 as 1 and r= 2 as 2
    f, sol = tmp_path / "code.spill", tmp_path / "sol.json"
    f.write_text(THREE)
    sol.write_text('{"solution": {"spilled": []}}')
    message = f"error: bad target {target!r}; use r=<N>, omega-<k> or few=<k>\n"
    assert cli("solve", "--target", target, "--mode", "noholes",
               str(f)) == (1, "", message)
    code, _, err = cli("check", "--solution", str(sol), "--target", target,
                       "--mode", "noholes", str(f))
    assert (code, err) == (1, message)


class TestAutoDispatch:
    def test_unweighted_linear_goes_greedy(self, tmp_path):
        f = tmp_path / "u.spill"
        f.write_text(BELADY_W.replace("weight 10", "weight 1"))
        _, out, _ = cli("solve", "--target", "r=1", "--mode", "noholes", str(f))
        assert report_fields(out)["solver.algo"] == "greedy"

    def test_tree_few_goes_dp_fit(self, tmp_path):
        f = tmp_path / "t.spill"
        f.write_text("""format spill-v1
kind ranges
point 1
point 2 parent 1
var a weight 2 points 1,2
var b weight 1 points 1,2
""")
        _, out, _ = cli("solve", "--target", "few=1", "--mode", "noholes", str(f))
        assert report_fields(out)["solver.algo"] == "dp-fit"

    def test_tree_general_r_goes_bnb(self, tmp_path):
        f = tmp_path / "t.spill"
        f.write_text("""format spill-v1
kind ranges
point 1
point 2 parent 1
var a weight 2 points 1,2
var b weight 1 points 1,2
""")
        _, out, _ = cli("solve", "--target", "r=1", "--mode", "noholes", str(f))
        assert report_fields(out)["solver.algo"] == "bnb"

    def test_holes_small_h_goes_dp_extra(self, tmp_path):
        f = tmp_path / "h.spill"
        f.write_text("""format spill-v1
kind linear
point 1
point 2
livein a,b
liveout a,b
instr 1 uses a defs -
instr 2 uses b defs -
var a weight 1
var b weight 2
""")
        _, out, _ = cli("solve", "--target", "omega-1", "--mode", "holes", str(f))
        assert report_fields(out)["solver.algo"] == "dp-extra"

    def test_holes_r_and_omega_targets_agree(self, tmp_path):
        # r=k and omega-(omega-k) are one target: same algorithm, same answer
        rng = seeded(41)
        f = tmp_path / "c.spill"
        seen = set()
        for _ in range(12):
            inst = random_linear_code(rng, rng.choice((1, 2)), n_max=8, m_max=10)
            f.write_text(serialize(inst))
            for k in range(inst.omega):
                got = []
                for target in (f"r={k}", f"omega-{inst.omega - k}"):
                    code, out, _ = cli("solve", "--target", target,
                                       "--mode", "holes", str(f))
                    fields = report_fields(out)
                    got.append((code, fields["solver.algo"],
                                fields["solution.cost"],
                                fields["solution.proven_optimal"]))
                assert got[0] == got[1]
                assert got[0][1] == "dp-extra"
                seen.add(got[0][0])
        assert seen == {0, 2}  # feasible and infeasible targets both met

    def test_holes_unbounded_h_goes_bnb(self, tmp_path):
        # a cover-style instance with h = 3 exceeds cli.HMAX, 2
        src = tmp_path / "cov.src"
        src.write_text("source mincover\nground b1,b2\nmember b1\nmember b1\n"
                       "member b1\nmember b1,b2\nbound 1\n")
        inst_path = str(tmp_path / "cov.spill")
        cli("gen", "--reduction", "mincover", "--out", inst_path, str(src))
        assert parse(Path(inst_path).read_text()).h == 3
        _, out, _ = cli("solve", "--target", "omega-1", "--mode", "holes",
                        inst_path)
        assert report_fields(out)["solver.algo"] == "bnb"

    def test_holes_few_goes_dp_fit_holes(self, tmp_path):
        f = tmp_path / "h.spill"
        f.write_text("""format spill-v1
kind linear
point 1
point 2
instr 1 uses - defs a
instr 2 uses a defs -
var a weight 1
""")
        _, out, _ = cli("solve", "--target", "few=1", "--mode", "holes", str(f))
        assert report_fields(out)["solver.algo"] == "dp-fit-holes"


def test_every_algo_report_reverifies(tmp_path):
    # every solver-producible report re-verifies through `check --solution`
    code_file = tmp_path / "code.spill"
    code_file.write_text("""format spill-v1
kind linear
point 1
point 2
point 3
livein a,b,c
liveout a,b,c
instr 2 uses a defs -
var a weight 1
var b weight 1
var c weight 5
""")
    cases = [("greedy", "r=2", "noholes"), ("flow", "r=2", "noholes"),
             ("dp-cover", "omega-1", "noholes"), ("dp-fit", "few=2", "noholes"),
             ("dp-fit-holes", "few=2", "holes"), ("dp-extra", "omega-1", "holes"),
             ("bnb", "r=2", "noholes"), ("brute", "r=2", "holes")]
    for algo, target, mode in cases:
        jpath = str(tmp_path / f"{algo}.json")
        code, out, err = cli("solve", "--target", target, "--mode", mode,
                             "--algo", algo, "--json", jpath, str(code_file))
        assert code == 0, (algo, err)
        code, out, _ = cli("check", "--solution", jpath, "--target", target,
                           "--mode", mode, str(code_file))
        assert code == 0 and "solution-ok" in out, algo


class TestCheck:
    def test_clean_instance(self, belady_file):
        code, out, _ = cli("check", belady_file)
        assert code == 0
        _, solve_out, _ = cli("solve", "--target", "r=1", "--mode", "noholes",
                              belady_file)
        assert out == solve_out.splitlines(keepends=True)[0]
        assert out.startswith("instance: shape=linear ")

    def test_broken_instance(self, tmp_path):
        f = tmp_path / "bad.spill"
        f.write_text("""format spill-v1
kind linear
point 1
point 2
instr 1 uses - defs a
instr 2 uses - defs a
var a weight 1
""")
        code, _, err = cli("check", str(f))
        assert code == 1 and "defined at" in err

    def test_solution_verification(self, belady_file, tmp_path):
        jpath = str(tmp_path / "rep.json")
        cli("solve", "--target", "r=1", "--mode", "noholes", "--json", jpath,
            belady_file)
        code, out, _ = cli("check", "--solution", jpath, "--target", "r=1",
                           "--mode", "noholes", belady_file)
        assert code == 0 and "solution-ok" in out
        regs = out.splitlines()[-1].split()
        assert regs[:2] == ["registers:", "1"]
        # same solution fails a tighter target
        code, out, _ = cli("check", "--solution", jpath, "--target", "r=0",
                           "--mode", "noholes", belady_file)
        assert code == 2 and "over-pressure" in out
        assert "registers:" not in out

    @pytest.mark.parametrize("flag,value", [("--target", "r=1"),
                                            ("--mode", "noholes")])
    def test_flag_without_solution(self, belady_file, flag, value):
        code, out, err = cli("check", flag, value, belady_file)
        assert code == 1 and out == ""
        assert err == f"error: {flag} needs --solution\n"

    def test_registers_of_chads(self, tmp_path):
        f = tmp_path / "chad.spill"
        f.write_text("format spill-v1\nkind linear\npoint 1\npoint 2\n"
                     "livein a,b\ninstr 2 uses a,b defs -\n"
                     "var a weight 1\nvar b weight 1\n")
        rep = tmp_path / "rep.json"
        rep.write_text('{"solution": {"spilled": ["a"]}}')
        code, out, _ = cli("check", "--solution", str(rep), "--target", "r=2",
                           "--mode", "holes", str(f))
        assert code == 0
        assert out.splitlines()[-1] == "registers: 2 b=0 a@2:use=1"

    def test_solution_without_target(self, belady_file, tmp_path):
        jpath = str(tmp_path / "rep.json")
        cli("solve", "--target", "r=1", "--mode", "noholes", "--json", jpath,
            belady_file)
        code, _, err = cli("check", "--solution", jpath, belady_file)
        assert code == 1 and err == "error: --solution needs --target\n"

    def test_solution_needs_the_mode(self, tmp_path):
        # spilling a passes without holes, but its use at 2 is a chad
        f = tmp_path / "chad.spill"
        f.write_text("""format spill-v1
kind linear
point 1
point 2
livein a,b
instr 2 uses a,b defs -
var a weight 1
var b weight 1
""")
        rep = tmp_path / "rep.json"
        rep.write_text('{"solution": {"spilled": ["a"]}}')
        args = ("check", "--solution", str(rep), "--target", "r=1")
        code, out, _ = cli(*args, "--mode", "noholes", str(f))
        assert code == 0 and "solution-ok" in out
        code, out, _ = cli(*args, "--mode", "holes", str(f))
        assert code == 2 and "over-pressure: point 2 use-moment" in out
        code, out, err = cli(*args, str(f))
        assert code == 1 and err == "error: --solution needs --mode\n"
        assert out == ""

    def test_report_without_solution(self, belady_file, tmp_path):
        rep = tmp_path / "rep.json"
        rep.write_text('{"solver": {"algo": "greedy"}}')
        code, _, err = cli("check", "--solution", str(rep), "--target", "r=1",
                           "--mode", "noholes", belady_file)
        assert code == 1
        assert err == f"error: {rep} has no solution.spilled list\n"

    @pytest.mark.parametrize("spilled", ['"ab"', '{"a": 1, "b": 1}'],
                             ids=["string", "dict"])
    def test_spilled_must_be_a_list(self, tmp_path, spilled):
        # spilling a and b would pass at r=0; a string or a dict is not
        # read as that list
        f = tmp_path / "two.spill"
        f.write_text("format spill-v1\nkind linear\npoint 1\npoint 2\n"
                     "instr 1 uses - defs a,b\ninstr 2 uses a,b defs -\n"
                     "var a weight 1\nvar b weight 1\n")
        rep = tmp_path / "rep.json"
        args = ("check", "--solution", str(rep), "--target", "r=0",
                "--mode", "noholes", str(f))
        rep.write_text('{"solution": {"spilled": ["a", "b"]}}')
        assert cli(*args)[0] == 0
        rep.write_text('{"solution": {"spilled": %s}}' % spilled)
        code, out, err = cli(*args)
        assert code == 1 and "solution-ok" not in out
        assert err == f"error: {rep} has no solution.spilled list\n"


class TestGen:
    @staticmethod
    def generated(tmp_path, reduction, source, generate):
        """gen's instance and certificate file, checked against what
        `generate` makes of the source."""
        src = tmp_path / "g.src"
        src.write_text(source)
        out_path = str(tmp_path / "g.spill")
        code, out, _ = cli("gen", "--reduction", reduction, "--out",
                           out_path, str(src))
        assert code == 0
        inst = parse(Path(out_path).read_text())
        cert = json.loads(Path(out_path + ".cert.json").read_text())
        expected = generate(parse_source(source)[1])
        assert inst == expected.instance
        assert cert["kind"] == expected.kind and cert["K"] == str(expected.K)
        assert cert["params"] == expected.params
        assert cert["r"] == expected.r and cert["mode"] == expected.mode
        assert cert["roles"] == expected.roles
        return cert

    def test_emits_instance_and_certificate(self, tmp_path):
        cert = self.generated(
            tmp_path, "indepset1",
            "source indepset\nvertices u,v,w\nedge u v\nedge v w\nbound 2\n",
            gen_indepset_h1)
        assert cert["params"]["alpha"] > 0

    def test_emits_an_x3c_instance(self, tmp_path):
        cert = self.generated(
            tmp_path, "x3c",
            "source x3c\nelements e1,e2,e3,e4,e5,e6\ntriple e1,e2,e3\n"
            "triple e4,e5,e6\ntriple e3,e4,e5\n", gen_x3c)
        assert cert["source"]["triples"] == [["e1", "e2", "e3"],
                                             ["e4", "e5", "e6"],
                                             ["e3", "e4", "e5"]]

    def test_source_kind_mismatch(self, tmp_path):
        src = tmp_path / "g.src"
        src.write_text("source indepset\nvertices u\nbound 1\n")
        code, _, err = cli("gen", "--reduction", "x3c", "--out",
                           str(tmp_path / "x.spill"), str(src))
        assert code == 1


class TestPressure:
    def test_prints_samples_and_max(self, belady_file):
        code, out, _ = cli("pressure", belady_file)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "max 2"
        assert len(lines) == 21  # 2 samples per point + max

    def test_spilled_profile(self, belady_file):
        code, out, _ = cli("pressure", "--spill", "a,b,c", belady_file)
        assert out.strip().splitlines()[-1] == "max 0"
