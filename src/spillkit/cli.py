"""Command-line surface: solve, check, gen, pressure."""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import cache

from . import oracle
from .errors import (
    BudgetExceededError,
    InfeasibleError,
    ParseError,
    SizeCapError,
    SpillkitError,
    UnsupportedModeError,
    WrongShapeError,
)
from .fileformat import parse, parse_source, serialize
from .intervals import greedy_furthest, incremental_cover_dp, weighted_optimal
# validate is unused here, but perfbench/spans.py wraps cli.validate
from .model import (HOLES, LINEAR, NOHOLES, empty_solution, is_chordal,
                    pressure, validate)
from .punched import extra_set_dp
from .reductions import (
    INDEPSET1,
    INDEPSET2,
    MINCOVER,
    X3C,
    gen_indepset_h1,
    gen_indepset_h2,
    gen_mincover,
    gen_x3c,
)
from .treedp import fitting_set_dp, fitting_set_dp_holes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3

HMAX = 2  # largest h for which auto picks dp-extra

ALGOS = ("auto", "greedy", "flow", "dp-cover", "dp-fit", "dp-fit-holes",
         "dp-extra", "bnb", "brute")


def _parse_target(text):
    """'r=N' | 'omega-K' | 'few=K' -> (form, value)."""
    if text.startswith("r="):
        return "r", int(text[2:])
    if text.startswith("omega-"):
        k = int(text[len("omega-"):])
        if k < 1:
            raise ValueError("omega-k needs k >= 1")
        return "omega", k
    if text.startswith("few="):
        return "few", int(text[len("few="):])
    raise ValueError(f"bad target {text!r}; use r=<N>, omega-<k> or few=<k>")


def _resolve_r(form, value, omega):
    r = omega - value if form == "omega" else value
    if r < 0:
        raise ValueError(f"target resolves to r = {r}; it must be >= 0")
    return r


def _pick_auto(inst, mode, form, r_val):
    """Algorithm-selection matrix: the polynomial algorithm of the regime
    when one exists, branch-and-bound otherwise."""
    if mode == NOHOLES:
        if inst.shape == LINEAR:
            return "greedy" if inst.unweighted() else "flow"
        return "dp-fit" if form == "few" else "bnb"
    if form == "few":
        return "dp-fit-holes"
    if form == "omega" and inst.shape == LINEAR and inst.code_backed \
            and inst.h <= HMAX:
        return "dp-extra"
    return "bnb"


def _run_algo(algo, inst, mode, form, r_val):
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
        if mode != NOHOLES:
            raise UnsupportedModeError("dp-cover is defined without holes")
        return incremental_cover_dp(inst, mode)
    if algo == "dp-fit":
        if mode != NOHOLES:
            raise UnsupportedModeError("dp-fit is the without-holes DP; "
                                       "use dp-fit-holes")
        return fitting_set_dp(inst, r_val)
    if algo == "dp-fit-holes":
        if mode != HOLES:
            raise UnsupportedModeError("dp-fit-holes needs --mode holes")
        return fitting_set_dp_holes(inst, r_val)
    if algo == "dp-extra":
        if mode != HOLES:
            raise UnsupportedModeError("dp-extra needs --mode holes")
        return extra_set_dp(inst, inst.omega - r_val)
    if algo == "bnb":
        return oracle.branch_and_bound(inst, r_val, mode)
    if algo == "brute":
        return oracle.brute_force(inst, r_val, mode)
    raise ValueError(f"unknown algorithm {algo!r}")


def _fmt_cost(cost):
    if cost is None:
        return "-"
    f = Fraction(cost)
    return str(f.numerator) if f.denominator == 1 else \
        f"{f.numerator}/{f.denominator}"


def _report(inst, sol, out):
    yes = lambda b: "yes" if b else "no"
    budget_hit = not sol.proven_optimal
    out.write(f"instance: shape={inst.shape} m={inst.n_points} "
              f"n={inst.n_vars} omega={inst.omega} h={inst.h}\n")
    spilled = ",".join(sorted(sol.spilled)) if sol.spilled else "-"
    omega_prime = sol.achieved_omega if sol.achieved_omega is not None else "-"
    out.write(f"solution: spilled={spilled} cost={_fmt_cost(sol.cost)} "
              f"omega_prime={omega_prime} feasible={yes(sol.feasible)} "
              f"proven_optimal={yes(sol.proven_optimal)}\n")
    out.write(f"solver: algo={sol.algorithm} steps={sol.steps} "
              f"budget_hit={yes(budget_hit)}\n")


def report_json(inst, sol):
    return {
        "instance": {"shape": inst.shape, "m": inst.n_points,
                     "n": inst.n_vars, "omega": inst.omega, "h": inst.h},
        "solution": {"spilled": sorted(sol.spilled),
                     "cost": _fmt_cost(sol.cost) if sol.cost is not None else None,
                     "omega_prime": sol.achieved_omega,
                     "feasible": sol.feasible,
                     "proven_optimal": sol.proven_optimal},
        "solver": {"algo": sol.algorithm, "steps": sol.steps,
                   "budget_hit": not sol.proven_optimal},
    }


def _cmd_solve(args, out, err):
    inst = parse(_read(args.file))
    form, value = _parse_target(args.target)
    mode = HOLES if args.mode == "holes" else NOHOLES
    if mode == HOLES and not inst.code_backed:
        raise UnsupportedModeError(
            "hole semantics need a code-backed instance")
    r_val = _resolve_r(form, value, inst.omega)
    algo = args.algo
    if algo == "auto":
        algo = _pick_auto(inst, mode, form, r_val)
    sol = _run_algo(algo, inst, mode, form, r_val)  # run() reports errors
    _report(inst, sol, out)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report_json(inst, sol), fh, indent=1, sort_keys=True)
            fh.write("\n")
    if not sol.feasible and sol.proven_optimal:
        return EXIT_INFEASIBLE
    if not sol.proven_optimal:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_check(args, out, err):
    if args.solution and args.target is None:
        raise ValueError("--solution needs --target")
    if args.solution and args.mode is None:
        raise ValueError("--solution needs --mode")
    inst = parse(_read(args.file))  # raises ParseError on any violation
    _, order = is_chordal(inst)
    out.write("chordal: yes\n")
    out.write(f"elimination-order: {','.join(order) if order else '-'}\n")
    if args.solution:
        with open(args.solution) as fh:
            rep = json.load(fh)
        try:
            spilled = set(rep["solution"]["spilled"])
        except (KeyError, TypeError):
            raise ValueError(
                f"{args.solution} has no solution.spilled list") from None
        form, value = _parse_target(args.target)
        mode = HOLES if args.mode == "holes" else NOHOLES
        r_val = _resolve_r(form, value, inst.omega)
        bad = oracle.verify(inst, spilled, r_val, mode)
        if bad:
            for p, m, val in bad:
                out.write(f"over-pressure: point {p} {m}-moment "
                          f"pressure {val} > {r_val}\n")
            return EXIT_INFEASIBLE
        out.write(f"solution-ok: pressure <= {r_val} everywhere\n")
    return EXIT_OK


_GEN = {"x3c": (X3C, gen_x3c), "mincover": (MINCOVER, gen_mincover),
        "indepset2": (INDEPSET2, gen_indepset_h2),
        "indepset1": (INDEPSET1, gen_indepset_h1)}


def _cmd_gen(args, out, err):
    kind, src = parse_source(_read(args.source))
    want, generator = _GEN[args.reduction]
    src_kind = {X3C: "x3c", MINCOVER: "mincover",
                INDEPSET2: "indepset", INDEPSET1: "indepset"}[want]
    if kind != src_kind:
        raise ParseError(f"--reduction {args.reduction} needs a {src_kind} "
                         f"source, got {kind}")
    cert = generator(src)
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
    return {"kind": cert.kind, "K": _fmt_cost(cert.K), "r": cert.r,
            "mode": cert.mode, "roles": cert.roles,
            "params": cert.params, "source": source}


def _cmd_pressure(args, out, err):
    inst = parse(_read(args.file))
    mode = HOLES if args.mode == "holes" else NOHOLES
    spilled = set(args.spill.split(",")) - {""} if args.spill else set()
    prof = pressure(inst, spilled, mode)
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
    sp.add_argument("--mode", required=True, choices=("holes", "noholes"))
    sp.add_argument("--algo", default="auto", choices=ALGOS)
    sp.add_argument("--json", help="write a machine-readable report here")
    sp.add_argument("file")

    cp = sub.add_parser("check", help="validate an instance, test chordality")
    cp.add_argument("--solution", help="JSON report whose spill set to verify")
    cp.add_argument("--target", help="target for --solution verification")
    cp.add_argument("--mode", choices=("holes", "noholes"),
                    help="mode for --solution verification")
    cp.add_argument("file")

    gp = sub.add_parser("gen", help="generate a hardness-reduction instance")
    gp.add_argument("--reduction", required=True,
                    choices=("x3c", "mincover", "indepset2", "indepset1"))
    gp.add_argument("--out", required=True, help="instance output path")
    gp.add_argument("source")

    pp = sub.add_parser("pressure", help="print per-sample register pressure")
    pp.add_argument("--mode", default="noholes", choices=("holes", "noholes"))
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
    except (ParseError, WrongShapeError, UnsupportedModeError, SizeCapError,
            ValueError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE
    except InfeasibleError as exc:
        err.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except BudgetExceededError as exc:
        err.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except SpillkitError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
