"""Span recorder for the traced run.

Spans are recorded around spillkit's public functions by replacing them,
for the duration of the traced run, at the attributes their callers look
up: module globals such as `spillkit.cli.parse`, class attributes such as
`Instance.from_code`, and the entries of `spillkit.reductions._GENERATORS`
and `_DECIDERS`, which `check_reduction` reads instead of module globals.
Nothing under src/ changes. Each span keeps its name, start, end, parent
span and op id in memory; `write` dumps them when the run ends.
"""

from __future__ import annotations

import gc
import inspect
from collections import Counter, defaultdict
from time import perf_counter

OP = "bench.op"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = Counter()
        self.op_id = -1  # of the op running now; -1 outside ops (set-up)
        self._ops = 0
        self._stack = []
        self._patches = []  # (owner, key, original)
        self._gc_start = None

    # -- recording ----------------------------------------------------

    def call(self, name, fn, args=(), kwargs=None, after=None, failed=None):
        """Run fn(*args, **kwargs) inside a span named `name`.

        `after(counts, result, args)` records counts from a result and
        `failed(counts, exc)` from an exception, which is re-raised.
        """
        stack = self._stack
        if name == OP:
            self.op_id = self._ops
            self._ops += 1
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        except Exception as exc:
            if failed is not None:
                failed(self.counts, exc)
            raise
        finally:
            span[2] = perf_counter()
            stack.pop()
            if name == OP:
                self.op_id = -1
        if after is not None:
            after(self.counts, result, args)
        return result

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.counts["gc.pause_s"] += perf_counter() - self._gc_start
            self.counts["gc.collections"] += 1
            self._gc_start = None

    # -- installing ---------------------------------------------------

    def wrap(self, owner, key, name, after=None, failed=None, drain=False):
        """Replace owner.key (owner[key] for a dict) by a recording
        wrapper; `drain` lists a generator's items inside the span."""
        if isinstance(owner, dict):
            original = fn = owner[key]
        else:
            original = inspect.getattr_static(owner, key)
            fn = getattr(owner, key)
        if drain:
            gen = fn

            def fn(*args, **kwargs):
                return list(gen(*args, **kwargs))

        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, after, failed)

        if isinstance(owner, dict):
            owner[key] = wrapper
        else:
            setattr(owner, key,
                    staticmethod(wrapper) if isinstance(owner, type) else wrapper)
        self._patches.append((owner, key, original))

    def watch_gc(self):
        gc.callbacks.append(self._gc_callback)

    def uninstall(self):
        """Stop watching the collector and restore every replaced
        attribute, newest first."""
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- summarizing --------------------------------------------------

    def _select(self, in_ops):
        return [s for s in self.spans
                if in_ops is None or (s[4] >= 0) == in_ops]

    def self_times(self, in_ops=True):
        """name -> summed self time: a span's duration minus the
        durations of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        out = defaultdict(float)
        for s, t in zip(self.spans, own):
            if in_ops is None or (s[4] >= 0) == in_ops:
                out[s[0]] += t
        return out

    def inclusive(self, name, in_ops=True):
        return sum(s[2] - s[1] for s in self._select(in_ops) if s[0] == name)

    def calls(self, in_ops=True):
        return Counter(s[0] for s in self._select(in_ops))

    def write(self, path):
        """Tab-separated spans: op id, index, parent, name, start, end."""
        with open(path, "w") as fh:
            fh.write("op\tspan\tparent\tname\tstart\tend\n")
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(f"{op}\t{i}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\n")


# ---------------------------------------------------------------------
# The layer boundaries of spillkit
# ---------------------------------------------------------------------

def _steps(key):
    def after(counts, sol, args):
        counts[key] += sol.steps
    return after


def _bnb(counts, sol, args):
    counts["oracle.bnb.nodes"] += sol.steps
    counts["oracle.bnb.proven"] += sol.proven_optimal


def _sweep(counts, result, args):
    n, _, live = args[:3]
    counts["kernel.subsets"] += 1 << n
    counts["kernel.rows"] += len(live)


def _solver(counts, result, args):
    counts["reductions.solver." + result[1].replace("-", "_")] += 1


def _parsed(counts, inst, args):
    counts["fileformat.parse.bytes"] += len(args[0])


def _sources(counts, items, args):
    counts["sweeps.sources"] += len(items)


def _treedp_failed(infeasible_error):
    def failed(counts, exc):
        if isinstance(exc, infeasible_error):
            counts["treedp.infeasible"] += 1
    return failed


def install_layers(tracer, sk):
    """Wrap every layer boundary the workloads reach, at the attribute
    each caller looks up."""
    from spillkit import (cli, fileformat, intervals, kernel, model, oracle,
                          punched, reductions, sweeps, treedp)

    w = tracer.wrap
    w(cli, "run", "cli.solve")
    w(cli, "parse", "fileformat.parse", _parsed)
    w(model.Instance, "from_code", "model.from_code")
    w(model.Instance, "from_ranges", "model.from_ranges")
    for mod in (fileformat, cli, model):
        w(mod, "validate", "model.validate")
    for mod in (cli, intervals, treedp, punched, oracle):
        w(mod, "pressure", "model.pressure")
    w(cli, "greedy_furthest", "intervals.greedy")
    w(cli, "weighted_optimal", "intervals.flow", _steps("intervals.flow.pops"))
    dp_failed = _treedp_failed(sk.InfeasibleError)
    w(cli, "fitting_set_dp", "treedp.dp_fit", _steps("treedp.steps"), dp_failed)
    w(cli, "fitting_set_dp_holes", "treedp.dp_fit_holes",
      _steps("treedp.steps"), dp_failed)
    for mod in (cli, reductions):
        w(mod, "extra_set_dp", "punched.dp_extra", _steps("punched.steps"))
    w(oracle, "encode", "oracle.encode")
    w(oracle, "verify", "oracle.verify")
    w(oracle, "brute_force", "oracle.brute")
    w(oracle, "branch_and_bound", "oracle.bnb", _bnb)
    w(kernel, "sweep", "kernel.sweep", _sweep)
    w(reductions, "solve_certificate", "reductions.solve", _solver)
    for kind in list(reductions._GENERATORS):
        w(reductions._GENERATORS, kind, "reductions.gen")
    for kind in list(reductions._DECIDERS):
        w(reductions._DECIDERS, kind, "reductions.decide")
    for name in ("x3c_sources", "cover_sources", "graphs_upto"):
        w(sweeps, name, "sweeps.enumerate", _sources, drain=True)
