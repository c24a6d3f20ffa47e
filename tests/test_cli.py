import io
import json
from pathlib import Path

import pytest

from spillkit.cli import ALGOS, run
from spillkit.fileformat import parse, serialize
from spillkit.reductions import GraphInstance, gen_indepset_h1

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
        f.write_text("""format spill-v1
kind linear
point 1
livein x,y
instr 1 uses x,y defs -
var x weight 1
var y weight 1
""")
        code, _, err = cli("solve", "--target", "r=1", "--mode", "holes",
                           "--algo", "brute", str(f))
        assert code == 2

    def test_usage_errors(self, belady_file):
        code, _, err = cli("solve", "--target", "bogus", "--mode", "noholes",
                           belady_file)
        assert code == 1
        code, _, err = cli("solve", "--target", "r=1", "--mode", "holes",
                           belady_file)
        assert code == 1 and "code-backed" in err

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

    def test_trivial_target(self, belady_file):
        code, out, _ = cli("solve", "--target", "r=5", "--mode", "noholes",
                           "--algo", "dp-extra", belady_file)
        assert code == 0
        assert report_fields(out)["solution.spilled"] == "-"


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("target", ["r=-1", "few=-1", "omega-5"])
def test_negative_target_is_a_usage_error(algo, target, tmp_path):
    # omega is 3, so omega-5 resolves to r = -2
    f = tmp_path / "code.spill"
    f.write_text("""format spill-v1
kind linear
point 1
point 2
livein a,b,c
instr 2 uses a,b,c defs -
var a weight 1
var b weight 1
var c weight 2
""")
    mode = "holes" if algo in ("dp-fit-holes", "dp-extra") else "noholes"
    code, out, err = cli("solve", "--target", target, "--mode", mode,
                         "--algo", algo, str(f))
    assert code == 1 and out == ""
    assert err.startswith("error: target resolves to r = -")


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
        assert code == 0 and "chordal: yes" in out

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
        # same solution fails a tighter target
        code, out, _ = cli("check", "--solution", jpath, "--target", "r=0",
                           "--mode", "noholes", belady_file)
        assert code == 2 and "over-pressure" in out

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


class TestGen:
    def test_emits_instance_and_certificate(self, tmp_path):
        src = tmp_path / "g.src"
        src.write_text("source indepset\nvertices u,v,w\nedge u v\nedge v w\n"
                       "bound 2\n")
        out_path = str(tmp_path / "g.spill")
        code, out, _ = cli("gen", "--reduction", "indepset1", "--out",
                           out_path, str(src))
        assert code == 0
        inst = parse(Path(out_path).read_text())
        cert = json.loads(Path(out_path + ".cert.json").read_text())
        expected = gen_indepset_h1(
            GraphInstance(("u", "v", "w"), (("u", "v"), ("v", "w")), 2))
        assert inst == expected.instance
        assert cert["params"]["alpha"] == expected.params["alpha"]
        assert cert["r"] == expected.r
        assert set(cert["roles"]) == set(expected.roles)

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
