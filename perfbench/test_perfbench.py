"""Tests of the benchmark itself: its references agree with spillkit, and
a scaled-down run of each workload, untraced and traced, completes with
no failed op and reports the metrics BENCHMARK.json declares.

    python3 -m pytest perfbench -q
"""

import json
import random
import shutil
import subprocess
import sys

import pytest

import run

sk = run.load_spillkit()

import corpus  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from spillkit import reductions, sweeps  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
MOMENT = {"use": reference.USE, "def": reference.DEF}


def codes(n):
    for seed in range(n):
        rng = random.Random(seed)
        yield corpus.linear_block(rng, rng.randint(8, 60), weighted=seed % 2 == 1)
        yield corpus.tree_code(rng, rng.randint(4, 40), wide=seed % 3 == 1)


@pytest.mark.parametrize("holes", [False, True])
def test_liveness_agrees_with_spillkit_pressure(holes):
    rng = random.Random(7)
    mode = "holes" if holes else "noholes"
    for code in codes(20):
        inst = sk.parse(corpus.spill_text(code))
        tables = reference.liveness(code)
        assert reference.omega(code, tables) == inst.omega
        names = sorted(code.weights)
        for size in (0, 1, len(names) // 3, len(names)):
            spilled = rng.sample(names, size)
            prof = sk.pressure(inst, spilled, mode)
            got = {(p, MOMENT[m]): v for (p, m), v in zip(prof.samples, prof.values)}
            assert got == reference.pressures(code, spilled, holes, tables)


def test_flow_reference_agrees_with_weighted_optimal():
    for seed in range(12):
        rng = random.Random(seed)
        code = corpus.linear_block(rng, rng.randint(8, 50), weighted=seed % 2 == 1)
        inst = sk.parse(corpus.spill_text(code))
        for r in range(inst.omega + 1):
            assert reference.linear_optimum(code, r) == sk.weighted_optimal(inst, r).cost


def test_deciders_agree_with_spillkit():
    for x in sweeps.x3c_sources(6, 4):
        assert reference.decide_x3c(x.elements, x.triples) == reductions.decide_x3c(x)
    for c in sweeps.cover_sources(4, 3):
        assert (reference.decide_cover(c.ground, c.family, c.bound)
                == reductions.decide_cover(c))
    for n, edges in sweeps.graphs_upto(5):
        for bound in range(1, n + 1):
            g = sweeps.graph_instance(n, edges, bound)
            assert (reference.decide_indepset(g.vertices, g.edges, g.bound)
                    == reductions.decide_indepset(g))


class TinyLinear(workloads.LinearBlocks):
    CLASSES = ((40, 4, 4, range(100)), (90, 1, 2, range(100)))


class TinyTree(workloads.TreeDP):
    CLASSES = ((30, 4, 4, range(100)), (60, 1, 2, range(100)))
    SMALL = (8, 4, 10, range(100))


class TinySweep(workloads.ReductionSweep):
    SWEEPS = ((9, 3), (4, 3), 5)  # small, yet bnb and dp-extra still run


def declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


@pytest.mark.parametrize("work", [TinyLinear, TinyTree, TinySweep])
def test_tiny_run(work, tmp_path):
    metrics, attempted, failed, _ = run.run_workload(
        work(sk), sk, seed=3, seconds=0.1, trace=0, workdir=str(tmp_path))
    assert failed == 0 and attempted >= run.MIN_OPS
    assert {k: u for k, (_, u) in metrics.items()} == declared("end_to_end")
    assert all(v > 0 for v, _ in metrics.values())


@pytest.mark.parametrize("work", [TinyLinear, TinyTree, TinySweep])
def test_tiny_traced_run(work, tmp_path):
    metrics, attempted, failed, tracer = run.run_workload(
        work(sk), sk, seed=4, seconds=0.1, trace=1, workdir=str(tmp_path))
    assert failed == 0 and attempted >= 2 * run.MIN_OPS
    assert {k: u for k, (_, u) in metrics.items()} == declared("per_layer")
    value = {k: v for k, (v, _) in metrics.items()}
    layers = sum(v for k, v in value.items()
                 if k.endswith(".s") and not k.startswith("sweeps."))
    layers += value["cli.solve.self_s"] + value["bench.other_s"]
    assert layers == pytest.approx(value["bench.op_s"], rel=1e-9)
    assert value["bench.other_s"] >= 0
    if work is TinyLinear:
        for k, v in value.items():
            if k.split(".")[0] in ("kernel", "treedp", "punched"):
                assert v == 0, k
    assert 0 < tracer.calls()["bench.op"] < attempted


def test_traced_run_restores_spillkit(tmp_path):
    before = (sk.cli.parse, sk.reductions._GENERATORS.copy(),
              sk.model.Instance.__dict__["from_code"])
    run.run_workload(TinyLinear(sk), sk, seed=5, seconds=0.05, trace=1,
                     workdir=str(tmp_path))
    after = (sk.cli.parse, sk.reductions._GENERATORS.copy(),
             sk.model.Instance.__dict__["from_code"])
    assert before == after


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree-dp", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
