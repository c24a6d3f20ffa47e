"""Command-line surface: solve, check, gen, pressure."""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache

from . import oracle
from .errors import (
    BudgetExceededError,
    InfeasibleError,
    ParseError,
    SpillkitError,
    UnsupportedModeError,
)
from .fileformat import _is_int, parse, parse_source, serialize
from .intervals import greedy_furthest, incremental_cover_dp, weighted_optimal
# validate is unused here, but perfbench/spans.py wraps cli.validate
from .model import (HOLES, LINEAR, NOHOLES, assign, empty_solution,
                    pressure, validate)
from .punched import extra_set_dp
from .reductions import _GENERATORS, INDEPSET1, INDEPSET2, MINCOVER, X3C
from .treedp import fitting_set_dp, fitting_set_dp_holes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3

HMAX = 2  # largest h for which auto picks dp-extra

ALGOS = ("auto", "greedy", "flow", "dp-cover", "dp-fit", "dp-fit-holes",
         "dp-extra", "bnb", "brute")


def _parse_target(text):
    """'r=N' | 'omega-K' | 'few=K' -> (form, value); N and K are
    integers of the format's grammar, -?[0-9]+."""
    for form, prefix in (("r", "r="), ("omega", "omega-"), ("few", "few=")):
        value = text[len(prefix):]
        if text.startswith(prefix) and _is_int(value):
            if form == "omega" and int(value) < 1:
                raise ValueError("omega-k needs k >= 1")
            return form, int(value)
    raise ValueError(f"bad target {text!r}; use r=<N>, omega-<k> or few=<k>")


def _resolve_r(form, value, omega):
    r = omega - value if form == "omega" else value
    if r < 0:
        raise ValueError(f"target resolves to r = {r}; it must be >= 0")
    return r


def _pick_auto(inst, mode, form):
    """Algorithm-selection matrix: the polynomial algorithm of the regime
    when one exists, branch-and-bound otherwise. An r=N and an omega-K
    target that resolve to the same r pick the same algorithm."""
    if mode == NOHOLES:
        if inst.shape == LINEAR:
            return "greedy" if inst.unweighted() else "flow"
        return "dp-fit" if form == "few" else "bnb"
    if form == "few":
        return "dp-fit-holes"
    if inst.shape == LINEAR and inst.h <= HMAX:
        return "dp-extra"
    return "bnb"


# --algo -> the one mode it solves, and its refusal of the other
_ONE_MODE = {
    "dp-cover": (NOHOLES, "dp-cover is defined without holes"),
    "dp-fit": (NOHOLES, "dp-fit is the without-holes DP; use dp-fit-holes"),
    "dp-fit-holes": (HOLES, "dp-fit-holes needs --mode holes"),
    "dp-extra": (HOLES, "dp-extra needs --mode holes"),
}


def _run_algo(algo, inst, mode, r_val):
    if algo in _ONE_MODE and _ONE_MODE[algo][0] != mode:
        raise UnsupportedModeError(_ONE_MODE[algo][1])
    if r_val >= inst.omega:
        return empty_solution(inst, mode, algo)
    if algo == "greedy":
        return greedy_furthest(inst, r_val, mode)
    if algo == "flow":
        return weighted_optimal(inst, r_val, mode)
    if algo == "dp-cover":
        if r_val != inst.omega - 1:
            raise UnsupportedModeError(
                "dp-cover solves exactly the omega-1 target")
        return incremental_cover_dp(inst, mode)
    if algo == "dp-fit":
        return fitting_set_dp(inst, r_val)
    if algo == "dp-fit-holes":
        return fitting_set_dp_holes(inst, r_val)
    if algo == "dp-extra":
        return extra_set_dp(inst, inst.omega - r_val)
    if algo == "bnb":
        return oracle.branch_and_bound(inst, r_val, mode)
    if algo == "brute":
        return oracle.brute_force(inst, r_val, mode)
    raise ValueError(f"unknown algorithm {algo!r}")


def _text(value):
    """A report_json value as the text report shows it."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list):
        return ",".join(value) if value else "-"
    return "-" if value is None else str(value)


def _report(rep, out):
    """The text report: one line per section of report_json."""
    for section, fields in rep.items():
        out.write(f"{section}: " + " ".join(
            f"{k}={_text(v)}" for k, v in fields.items()) + "\n")


def _instance_json(inst):
    return {"shape": inst.shape, "m": inst.n_points, "n": inst.n_vars,
            "omega": inst.omega, "h": inst.h}


def report_json(inst, sol):
    return {
        "instance": _instance_json(inst),
        "solution": {"spilled": sorted(sol.spilled),
                     "cost": None if sol.cost is None else str(sol.cost),
                     "omega_prime": sol.achieved_omega,
                     "feasible": sol.feasible,
                     "proven_optimal": sol.proven_optimal},
        "solver": {"algo": sol.algorithm, "steps": sol.steps,
                   "budget_hit": not sol.proven_optimal},
    }


def _cmd_solve(args, out, err):
    inst = parse(_read(args.file))
    form, value = _parse_target(args.target)
    inst.chads(args.mode)  # no hole semantics on a range instance
    r_val = _resolve_r(form, value, inst.omega)
    algo = args.algo
    if algo == "auto":
        algo = _pick_auto(inst, args.mode, form)
    try:
        sol = _run_algo(algo, inst, args.mode, r_val)
    except (InfeasibleError, BudgetExceededError) as exc:
        # a DP that ends without an answer reports what bnb would
        budget = isinstance(exc, BudgetExceededError)
        err.write(f"{'budget exceeded' if budget else 'infeasible'}: {exc}\n")
        sol = empty_solution(inst, args.mode, algo, feasible=False,
                             proven=not budget)
    rep = report_json(inst, sol)
    _report(rep, out)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rep, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if not sol.feasible and sol.proven_optimal:
        return EXIT_INFEASIBLE
    if not sol.proven_optimal:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_check(args, out, err):
    for flag in ("target", "mode"):
        if (getattr(args, flag) is None) == bool(args.solution):
            raise ValueError(f"--solution needs --{flag}" if args.solution
                             else f"--{flag} needs --solution")
    inst = parse(_read(args.file))  # raises ParseError on any violation
    _report({"instance": _instance_json(inst)}, out)
    if args.solution:
        rep = json.loads(_read(args.solution))
        try:
            spilled = rep["solution"]["spilled"]
        except (KeyError, TypeError):
            spilled = None
        if not (isinstance(spilled, list)
                and all(isinstance(v, str) for v in spilled)):
            raise ValueError(f"{args.solution} has no solution.spilled list")
        r_val = _resolve_r(*_parse_target(args.target), inst.omega)
        bad = oracle.verify(inst, set(spilled), r_val, args.mode)
        if bad:
            for p, m, val in bad:
                out.write(f"over-pressure: point {p} {m}-moment "
                          f"pressure {val} > {r_val}\n")
            return EXIT_INFEASIBLE
        out.write(f"solution-ok: pressure <= {r_val} everywhere\n")
        regs = assign(inst, spilled, args.mode)  # chads as id@point:moment
        out.write(f"registers: {len(set(regs.values()))}" + "".join(
            f" {k if isinstance(k, str) else '%s@%s:%s' % k}={reg}"
            for k, reg in regs.items()) + "\n")
    return EXIT_OK


# --reduction -> the source kind it reads
_SOURCE_KIND = {X3C: "x3c", MINCOVER: "mincover", INDEPSET2: "indepset",
                INDEPSET1: "indepset"}


def _cmd_gen(args, out, err):
    kind, src = parse_source(_read(args.source))
    want = _SOURCE_KIND[args.reduction]
    if kind != want:
        raise ParseError(f"--reduction {args.reduction} needs a {want} "
                         f"source, got {kind}")
    cert = _GENERATORS[args.reduction](src)
    with open(args.out, "w") as fh:
        fh.write(serialize(cert.instance))
    sidecar = args.out + ".cert.json"
    with open(sidecar, "w") as fh:
        json.dump(_cert_json(cert), fh, indent=1, sort_keys=True)
        fh.write("\n")
    out.write(f"instance: {args.out}\n")
    out.write(f"certificate: {sidecar}\n")
    return EXIT_OK


def _cert_json(cert):
    src = cert.source
    if cert.kind == X3C:
        source = {"elements": list(src.elements),
                  "triples": [sorted(t) for t in src.triples]}
    elif cert.kind == MINCOVER:
        source = {"ground": list(src.ground),
                  "family": [sorted(s) for s in src.family],
                  "bound": src.bound}
    else:
        source = {"vertices": list(src.vertices),
                  "edges": [list(e) for e in src.edges], "bound": src.bound}
    return {"kind": cert.kind, "K": str(cert.K), "r": cert.r,
            "mode": cert.mode, "roles": cert.roles,
            "params": cert.params, "source": source}


def _cmd_pressure(args, out, err):
    inst = parse(_read(args.file))
    spilled = set(args.spill.split(",")) - {""} if args.spill else set()
    prof = pressure(inst, spilled, args.mode)
    for (p, m), val in zip(prof.samples, prof.values):
        out.write(f"{p} {m} {val}\n")
    out.write(f"max {prof.max_pressure}\n")
    return EXIT_OK


def _read(path):
    with open(path) as fh:
        return fh.read()


@cache
def build_parser():
    """The argument parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="spillkit",
        description="Spill-everywhere solvers for SSA programs")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve a spill instance")
    sp.add_argument("--target", required=True,
                    help="r=<N> | omega-<k> | few=<k>")
    sp.add_argument("--mode", required=True, choices=(HOLES, NOHOLES))
    sp.add_argument("--algo", default="auto", choices=ALGOS)
    sp.add_argument("--json", help="write a machine-readable report here")
    sp.add_argument("file")

    cp = sub.add_parser("check", help="validate an instance; verify a "
                        "--solution and assign its registers")
    cp.add_argument("--solution", help="JSON report whose spill set to verify")
    cp.add_argument("--target", help="target for --solution verification")
    cp.add_argument("--mode", choices=(HOLES, NOHOLES),
                    help="mode for --solution verification")
    cp.add_argument("file")

    gp = sub.add_parser("gen", help="generate a hardness-reduction instance")
    gp.add_argument("--reduction", required=True,
                    choices=tuple(_GENERATORS))
    gp.add_argument("--out", required=True, help="instance output path")
    gp.add_argument("source")

    pp = sub.add_parser("pressure", help="print per-sample register pressure")
    pp.add_argument("--mode", default=NOHOLES, choices=(HOLES, NOHOLES))
    pp.add_argument("--spill", help="comma-separated spilled variables")
    pp.add_argument("file")
    return ap


_COMMANDS = {"solve": _cmd_solve, "check": _cmd_check, "gen": _cmd_gen,
             "pressure": _cmd_pressure}


def run(argv, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    # argparse writes --help and usage errors to sys.stdout / sys.stderr
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args, out, err)
    except (SpillkitError, ValueError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
