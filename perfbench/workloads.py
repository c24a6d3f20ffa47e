"""The three closed-loop workloads: one client, one process, no threads.

Each workload turns a seed into a corpus, hands the program only files
(or reduction sources), and checks every answer against references it
computes itself before timing starts. Ops are issued in rounds of fixed
composition so that every run, whatever its seed, mixes the same kinds
of op in the same proportions; a run always ends on a round boundary.
"""

from __future__ import annotations

import gc
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

import corpus
import reference

GOLDEN = (5 ** 0.5 - 1) / 2


def pick(make, omegas):
    """The first code make(attempt) whose omega lies in `omegas`. Solver
    cost grows with omega, so fixing it per size class keeps the cost of
    a class alike from seed to seed."""
    for attempt in range(500):
        code = make(attempt)
        if reference.omega(code) in omegas:
            return code
    raise RuntimeError(f"no code with omega in {omegas} after 500 tries")


def interleave(classes, r):
    """Round r: `count` consecutive items of each class, cycling through
    the class's item list, spread evenly through the round."""
    ops = []
    for items, count in classes:
        for j in range(count):
            ops.append(((j + 0.5) / count, items[(r * count + j) % len(items)]))
    ops.sort(key=lambda x: x[0])
    return [item for _, item in ops]


# ---------------------------------------------------------------------
# spillkit solve --algo auto through the in-process CLI
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class SolveItem:
    path: str
    code: corpus.Code
    mode: str  # "noholes" | "holes"
    target: str  # as passed to --target
    r: int
    feasible: bool  # by the benchmark's own reference
    optimum: object  # reference cost (Fraction), None when not computed

    def __str__(self):
        return (f"solve {os.path.basename(self.path)} --mode {self.mode} "
                f"--target {self.target}")


@dataclass(frozen=True)
class SolveRecord:
    exit: int
    report: dict  # the --json report, None when none was written


class CliWorkload:
    """Shared op, collection and checks of the two `solve` workloads."""

    def __init__(self, sk):
        self.sk = sk
        self.classes = []
        self._tables = {}
        self._verified = {}

    def setup(self, repeats=1):
        return [0.0]

    def round(self, r):
        return interleave(self.classes, r)

    def start(self, workdir):
        self.report = os.path.join(workdir, "report.json")

    def run(self, item):
        return self.sk.cli.run(
            ["solve", "--algo", "auto", "--mode", item.mode, "--json",
             self.report, "--target", item.target, item.path],
            io.StringIO(), io.StringIO())

    def collect(self, item, exit_code):
        report = None
        if os.path.exists(self.report):
            with open(self.report) as fh:
                report = json.load(fh)
            os.remove(self.report)
        return SolveRecord(exit_code, report)

    def write_code(self, workdir, name, code):
        path = os.path.join(workdir, name + ".spill")
        with open(path, "w") as fh:
            fh.write(corpus.spill_text(code))
        return path

    def tables(self, code):
        key = id(code)
        if key not in self._tables:
            self._tables[key] = reference.liveness(code)
        return self._tables[key]

    def check_one(self, item, rec):
        """A reason the op is wrong, or None."""
        if isinstance(rec, Exception):
            return f"raised {rec!r}"
        if not item.feasible:
            return None if rec.exit == 2 else f"exit {rec.exit}, want infeasible (2)"
        if rec.exit != 0 or rec.report is None:
            return f"exit {rec.exit}, want a solution"
        sol = rec.report["solution"]
        if not (sol["feasible"] and sol["proven_optimal"]):
            return "not a proven feasible solution"
        cost = Fraction(sol["cost"])
        spilled = frozenset(sol["spilled"])
        if spilled - set(item.code.weights):
            return "unknown variables spilled"
        if cost != sum(item.code.weights[v] for v in spilled):
            return f"reported cost {cost} is not the spilled weight"
        if item.optimum is not None and cost != item.optimum:
            return f"cost {cost}, reference {item.optimum}"
        tables = self.tables(item.code)
        if rec.report["instance"]["omega"] != reference.omega(item.code, tables):
            return "omega differs from the benchmark's liveness"
        key = (item.path, item.mode, spilled)
        if key not in self._verified:
            got = max(reference.pressures(item.code, spilled,
                                          item.mode == "holes", tables).values())
            self._verified[key] = got
        got = self._verified[key]
        if got > item.r:
            return f"pressure {got} > {item.r} after spilling"
        if sol["omega_prime"] != got:
            return f"omega_prime {sol['omega_prime']}, recomputed {got}"
        return None

    def check(self, done):
        """Per-op failure reasons (None = correct), including the
        cross-op rules: repeats of an item agree, and on one code a
        laxer target (no holes, more registers) never costs more."""
        reasons = [self.check_one(item, rec) for item, rec in done]
        cost = {}
        for i, (item, rec) in enumerate(done):
            if reasons[i] is not None:
                continue
            got = Fraction(rec.report["solution"]["cost"]) if item.feasible else None
            key = (item.path, item.mode, item.target)
            if cost.setdefault(key, (got, item))[0] != got:
                reasons[i] = "repeat of an op gave another answer"
        per_code = {}
        for (path, mode, _), (got, item) in cost.items():
            per_code.setdefault(path, []).append((item.r, mode, got))
        bad = set()
        for path, rows in per_code.items():
            for r1, m1, c1 in rows:
                for r2, m2, c2 in rows:
                    laxer = r1 >= r2 and (m1 == m2 or m1 == "noholes")
                    if laxer and c2 is not None and (c1 is None or c1 > c2):
                        bad.add(path)
        for i, (item, _) in enumerate(done):
            if reasons[i] is None and item.path in bad:
                reasons[i] = "a laxer target on the same code cost more"
        return reasons


class LinearBlocks(CliWorkload):
    """Linear SSA blocks, m = n, half unit weights (greedy), half 1-9
    (flow), targets r = floor(omega/2) and omega-1, no holes."""

    name = "linear-blocks"
    # (m = n, ops per round, blocks, omega band); blocks alternate unit
    # and 1-9 weights
    CLASSES = ((300, 16, 16, range(13, 17)), (1000, 4, 4, range(23, 28)),
               (3000, 1, 2, range(44, 51)))
    SPANS = ("cli.solve", "fileformat.parse", "model.from_code",
             "model.validate", "model.pressure", "intervals.greedy",
             "intervals.flow")

    def prepare(self, seed, workdir):
        self.start(workdir)
        for m, count, blocks, omegas in self.CLASSES:
            codes = []  # (path, code)
            for j in range(blocks):
                code = pick(lambda a: corpus.linear_block(
                    corpus.seeded(seed, "linear", m, j, a), m, weighted=j % 2 == 1),
                    omegas)
                codes.append((self.write_code(workdir, f"lin{m}-{j}", code), code))
            items = []
            for path, code in codes:
                tables = self.tables(code)
                om = reference.omega(code, tables)
                for r, target in ((om // 2, f"r={om // 2}"), (om - 1, "omega-1")):
                    want = Fraction(reference.linear_optimum(code, r, tables))
                    items.append(SolveItem(path, code, "noholes", target, r,
                                           True, want))
            self.classes.append((items, count))


class TreeDP(CliWorkload):
    """Dominance-tree codes. Large trees ask few=2 and few=3 in both
    modes (dp-fit / dp-fit-holes); small trees ask each target both as
    few=k and as r=k (bnb), checked against brute_force."""

    name = "tree-dp"
    # (p = n, ops per round, trees, omega); every fourth tree from the
    # second has one wide instruction, so its with-holes targets are
    # infeasible. Per round the small slice has 8 few=k and 8 r=k ops, and
    # the counts put op_p50_ms among the small few=k ops and op_p90_ms
    # among the p=300 no-holes ops rather than between two kinds of op.
    CLASSES = ((100, 4, 8, {6}), (300, 6, 8, {7}), (1000, 1, 4, {8}))
    SMALL = (16, 32, 14, {4})  # ops per round, trees, p = n, omega
    SPANS = ("cli.solve", "fileformat.parse", "model.from_code",
             "model.validate", "model.pressure", "treedp.dp_fit",
             "treedp.dp_fit_holes", "oracle.bnb", "oracle.encode")

    def trees(self, seed, workdir, m, trees, omegas, salt):
        out = []
        for j in range(trees):
            code = pick(lambda a: corpus.tree_code(
                corpus.seeded(seed, salt, m, j, a), m, wide=j % 4 == 1), omegas)
            out.append((self.write_code(workdir, f"{salt}{m}-{j}", code), code))
        return out

    def prepare(self, seed, workdir):
        self.start(workdir)
        for m, count, trees, omegas in self.CLASSES:
            items = []
            for path, code in self.trees(seed, workdir, m, trees, omegas, "tree"):
                floor = reference.holes_floor(code, self.tables(code))
                for k in (2, 3):
                    for mode in ("noholes", "holes"):
                        # large ops: feasibility and pressure, not the optimum
                        items.append(SolveItem(path, code, mode, f"few={k}", k,
                                               mode == "noholes" or floor <= k,
                                               None))
            self.classes.append((items, count))

        count, trees, m, omegas = self.SMALL
        items = []
        for path, code in self.trees(seed, workdir, m, trees, omegas, "small"):
            with open(path) as fh:
                inst = self.sk.parse(fh.read())
            for k in (2, 3):
                for mode in ("noholes", "holes"):
                    want = self.sk.brute_force(inst, k, mode)
                    for target in (f"few={k}", f"r={k}"):
                        items.append(SolveItem(path, code, mode, target, k,
                                               want.feasible, want.cost))
        self.classes.append((items, count))


# ---------------------------------------------------------------------
# check_reduction over a sample of the exhaustive C8 source sweeps
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionItem:
    kind: str
    index: int  # into the size-sorted sources of the kind

    def __str__(self):
        return f"check_reduction {self.kind} source #{self.index}"


class ReductionSweep:
    """check_reduction on sources sampled from x3c_sources(9,5),
    cover_sources(6,5) and graphs_upto(6) (both independent-set
    gadgets). Every CheckResult is kept until the run ends."""

    name = "reduction-sweep"
    # ops per round of each kind, chosen on measured per-source costs so
    # that op_p50_ms falls among the mincover checks and op_p90_ms where
    # the X3C latencies are densest, not in a gap between kinds
    MIX = (("x3c", 5), ("indepset1", 1), ("indepset2", 3), ("mincover", 20))
    SWEEPS = ((9, 5), (6, 5), 6)  # x3c_sources, cover_sources, graphs_upto
    ENUMERATIONS = 2
    JITTER = 16  # a seed shifts each walk by fewer than this many sources
    SPANS = ("sweeps.enumerate", "reductions.gen", "reductions.decide",
             "reductions.solve", "model.from_code", "model.from_ranges",
             "model.pressure", "oracle.brute", "oracle.encode", "kernel.sweep",
             "oracle.bnb", "punched.dp_extra")

    def __init__(self, sk):
        self.sk = sk
        self.sources = None

    def _enumerate(self):
        sweeps = self.sk.sweeps
        x3c_bounds, cover_bounds, graph_max = self.SWEEPS
        x3c = sweeps.x3c_sources(*x3c_bounds)
        cover = sweeps.cover_sources(*cover_bounds)
        graphs = [sweeps.graph_instance(n, edges, bound)
                  for n, edges in sweeps.graphs_upto(graph_max)
                  for bound in range(1, n + 1)]
        return list(x3c), list(cover), graphs

    def setup(self, repeats=ENUMERATIONS):
        """Enumerate the sources `repeats` times, clearing the sweeps
        module's caches first each time; returns the seconds of each."""
        seconds = []
        for _ in range(repeats):
            x3c = cover = graphs = None
            for fn in vars(self.sk.sweeps).values():
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()
            gc.collect()
            t0 = perf_counter()
            x3c, cover, graphs = self._enumerate()
            seconds.append(perf_counter() - t0)
        # sorted by size, which sets the cost of a check, so that the
        # low-discrepancy walk in round() samples cheap and dear sources
        # in the same proportions in every run
        self.sources = {
            "x3c": sorted(x3c, key=lambda x: (len(x.elements), len(x.triples))),
            "mincover": sorted(cover, key=lambda c: (len(c.ground), len(c.family),
                                                     c.bound)),
            "indepset1": sorted(graphs, key=lambda g: (len(g.vertices),
                                                       len(g.edges), g.bound)),
        }
        self.sources["indepset2"] = self.sources["indepset1"]
        return seconds

    def prepare(self, seed, workdir):
        rng = corpus.seeded(seed, "reductions")
        self.shift = {kind: rng.randrange(self.JITTER) for kind, _ in self.MIX}
        self.decided = {}

    def round(self, r):
        """Op j of a kind takes the source at fraction frac(j * golden) of
        the size-sorted list, moved by the seed's shift: every seed draws
        the same mix of sizes, and each its own sources."""
        ops = []
        for kind, count in self.MIX:
            size = len(self.sources[kind])
            for j in range(r * count, (r + 1) * count):
                at = (int(j * GOLDEN % 1.0 * size) + self.shift[kind]) % size
                ops.append(((j % count + 0.5) / count, ReductionItem(kind, at)))
        ops.sort(key=lambda x: x[0])
        return [item for _, item in ops]

    def run(self, item):
        return self.sk.reductions.check_reduction(
            self.sources[item.kind][item.index], item.kind)

    def collect(self, item, result):
        return result

    def decide(self, item):
        key = (item.kind, item.index)
        if key not in self.decided:
            src = self.sources[item.kind][item.index]
            if item.kind == "x3c":
                yes = reference.decide_x3c(src.elements, src.triples)
            elif item.kind == "mincover":
                yes = reference.decide_cover(src.ground, src.family, src.bound)
            else:
                yes = reference.decide_indepset(src.vertices, src.edges, src.bound)
            self.decided[key] = yes
        return self.decided[key]

    def check(self, done):
        reasons = []
        for item, res in done:
            if isinstance(res, Exception):
                reasons.append(f"raised {res!r}")
                continue
            yes = self.decide(item)
            if not res.equivalent:
                reasons.append("reduction not equivalent")
            elif res.source_answer != yes or res.spill_answer != yes:
                reasons.append(f"answers {res.source_answer}/{res.spill_answer}, "
                               f"exhaustive {yes}")
            else:
                reasons.append(None)
        return reasons


WORKLOADS = {w.name: w for w in (LinearBlocks, TreeDP, ReductionSweep)}
