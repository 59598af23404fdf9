"""Span tracing for the benchmark's traced repetitions.

The tracer wraps every public function of the six gsblab modules, and the
ModeSet methods that build grids, at every name the function is bound to in
any gsblab module.  A call is therefore recorded whichever module looks it
up: regularity imports resolvent_apply by name, so wrapping only
spectral.resolvent_apply would miss every check's solves.

Spans (name, start, end, parent) live in memory and are written out when the
repetition ends.  Counters ride on the same boundaries: Lanczos steps and CG
iterations come from return values, matvecs from a counting wrapper on each
assembled model's H (charged to the innermost open solve or resolvent span),
and annihilator builds are compared against distinct (basis, mode) pairs.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time

LAYERS = ("cli", "modes", "fock", "model", "spectral", "regularity")
# ModeSet methods that build or slice grids; the other methods are accessors.
MODESET_METHODS = ("with_coupling", "restrict", "head")
SOLVE = "spectral.solve_model"
RESOLVENT = "spectral.resolvent_apply"
ROOT = "bench.rep"

# Per-layer self-time metrics: metric -> the spans whose self time it sums.
SELF_TIME = {
    "spectral.resolvent_s": ("spectral.resolvent_apply", "spectral.batched_resolvent"),
    "spectral.solve_s": ("spectral.solve_model", "spectral.ground_state"),
    "fock.annihilator_s": ("fock.annihilator",),
    "fock.enumerate_basis_s": ("fock.enumerate_basis",),
    "model.assemble_s": ("model.assemble",),
    "regularity.pullthrough_s": ("regularity.pullthrough_check",),
    "regularity.moment_s": ("regularity.moment_identity",),
    "regularity.absence_s": ("regularity.absence_lower_bound",),
    "regularity.higher_s": ("regularity.higher_moment_identity",),
    "regularity.decompositions_s": ("regularity.number_decomposition",
                                    "regularity.factorial_moment_decomposition"),
    "regularity.ccr_s": ("regularity.ccr_and_bound_suite",),
    "regularity.ir_sweep_s": ("regularity.ir_sweep",),
    "cli.load_config_s": ("cli.load_config",),
    "cli.write_reports_s": ("cli.write_report_csv", "cli.write_report_json",
                            "cli.write_sweep_csv"),
    "bench.outside_spans_s": (ROOT,),
}
# Spans of a layer not named above are summed into <layer>.other_s, except
# modes, whose whole self time is modes.grid_s.
# Every public spectral function is named above, so spectral has no other_s.
OTHER_TIME = {"modes": "modes.grid_s", "fock": "fock.other_s", "model": "model.other_s",
              "regularity": "regularity.other_s", "cli": "cli.other_s"}
CALLS = {
    "spectral.resolvent_calls": RESOLVENT,
    "spectral.solve_calls": SOLVE,
    "fock.annihilator_calls": "fock.annihilator",
    "model.assemble_calls": "model.assemble",
}
# Exact counts taken from return values and arguments at the span boundaries.
COUNTERS = ("spectral.cg_iterations", "spectral.lanczos_steps", "fock.basis_states",
            "model.dim_max", "model.H_nnz", "model.matvec_bytes_computed",
            "cli.report_bytes")


class Tracer:
    """In-memory span recorder for one repetition."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.matvecs = {}  # span index -> H matvecs charged to it
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.unowned_matvecs = 0
        self._stack = []
        self._owners = []  # open solve and resolvent spans, innermost last
        self._annihilators = {}  # id(basis) -> (basis, modes built on it)
        self._clock = time.perf_counter

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._clock(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        if name in (SOLVE, RESOLVENT):
            self._owners.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self._clock()
        self._stack.pop()
        if self._owners and self._owners[-1] == idx:
            self._owners.pop()

    def count_matvec(self) -> None:
        if self._owners:
            owner = self._owners[-1]
            self.matvecs[owner] = self.matvecs.get(owner, 0) + 1
        else:
            self.unowned_matvecs += 1

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of the gsblab layers at all their bindings."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "gsblab" or name.startswith("gsblab."))]
        for layer in LAYERS:
            mod = sys.modules[f"gsblab.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for m in modules:
                    for bound, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, bound, wrapper)
        mode_set = sys.modules["gsblab.modes"].ModeSet
        for attr in MODESET_METHODS:
            setattr(mode_set, attr, self._wrap(f"modes.{attr}", getattr(mode_set, attr)))

    def _wrap(self, name: str, fn):
        after = _AFTER.get(name)
        signature = inspect.signature(fn) if after is not None else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, result, signature.bind(*args, **kwargs).arguments)
            return result

        return traced

    # -- output -------------------------------------------------------------

    def to_json(self, rep: int) -> dict:
        distinct = sum(len(modes) for _, modes in self._annihilators.values())
        return {
            "rep": rep,
            "spans": self.spans,
            "matvecs": {str(k): v for k, v in self.matvecs.items()},
            "unowned_matvecs": self.unowned_matvecs,
            "counts": dict(self.counts, **{"fock.annihilator_distinct": distinct}),
        }


# -- hooks run after a wrapped call returns -----------------------------------


def _after_solve(tracer, gs, args):
    tracer.counts["spectral.lanczos_steps"] += int(gs.iterations)


def _after_resolvent(tracer, result, args):
    tracer.counts["spectral.cg_iterations"] += int(result[1])


def _after_annihilator(tracer, op, args):
    basis = args["basis"]
    tracer._annihilators.setdefault(id(basis), (basis, set()))[1].add(int(args["i"]))


def _after_basis(tracer, basis, args):
    tracer.counts["fock.basis_states"] += len(basis)


def _after_assemble(tracer, model, args):
    H = model.H
    if model.dim > tracer.counts["model.dim_max"]:
        tracer.counts["model.dim_max"] = model.dim
        mat = H.mat
        if mat is not None:
            vector_bytes = 2 * model.dim * mat.dtype.itemsize  # read x, write y
            tracer.counts["model.H_nnz"] = int(mat.nnz)
            tracer.counts["model.matvec_bytes_computed"] = int(
                mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes + vector_bytes)
    apply = H.apply

    def counted_apply(v):
        tracer.count_matvec()
        return apply(v)

    H.apply = counted_apply


def _after_write(tracer, result, args):
    tracer.counts["cli.report_bytes"] += os.path.getsize(args["path"])


_AFTER = {
    SOLVE: _after_solve,
    RESOLVENT: _after_resolvent,
    "fock.annihilator": _after_annihilator,
    "fock.enumerate_basis": _after_basis,
    "model.assemble": _after_assemble,
    "cli.write_report_csv": _after_write,
    "cli.write_report_json": _after_write,
    "cli.write_sweep_csv": _after_write,
}


# -- aggregation --------------------------------------------------------------


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if "bytes" in metric:
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def self_times(spans) -> list:
    """Self time of each span: its duration minus its direct children's durations."""
    out = [end - start for _, start, end, _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _has_ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def rep_layer_metrics(trace: dict) -> tuple[dict, dict]:
    """Per-layer (times, counts) of one traced repetition."""
    spans = trace["spans"]
    own = self_times(spans)
    by_name: dict = {}
    calls: dict = {}
    for (name, *_), t in zip(spans, own):
        by_name[name] = by_name.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1

    times = {metric: sum(by_name.get(n, 0.0) for n in names)
             for metric, names in SELF_TIME.items()}
    named = {n for names in SELF_TIME.values() for n in names}
    for layer, metric in OTHER_TIME.items():
        times[metric] = sum((t for n, t in by_name.items()
                             if n.startswith(layer + ".") and n not in named), 0.0)

    counts = dict(trace["counts"])
    for metric, name in CALLS.items():
        counts[metric] = calls.get(name, 0)
    distinct = counts.pop("fock.annihilator_distinct")
    built = counts["fock.annihilator_calls"]
    counts["fock.annihilator_distinct_ratio"] = distinct / built if built else 1.0
    matvecs = {int(k): v for k, v in trace["matvecs"].items()}
    counts["spectral.solve_matvecs"] = sum(v for k, v in matvecs.items() if spans[k][0] == SOLVE)
    counts["spectral.resolvent_matvecs"] = sum(
        v for k, v in matvecs.items() if spans[k][0] == RESOLVENT)
    counts["regularity.higher_solves"] = sum(
        1 for i, s in enumerate(spans)
        if s[0] == RESOLVENT and _has_ancestor(spans, i, "regularity.higher_moment_identity"))
    counts["bench.unowned_matvecs"] = trace["unowned_matvecs"]
    counts["bench.span_count"] = len(spans)
    return times, counts


def layer_metrics(traces) -> tuple[dict, list]:
    """Median per-layer times over traced repetitions, counts from the first.

    Returns (metrics, mismatched) where mismatched lists the repetitions whose
    counts differ from the first one's; counts are exact and must repeat.
    """
    per_rep = [rep_layer_metrics(t) for t in traces]
    first_counts = per_rep[0][1]
    mismatched = [t["rep"] for t, (_, c) in zip(traces, per_rep) if c != first_counts]
    metrics = {name: statistics.median(times[name] for times, _ in per_rep)
               for name in per_rep[0][0]}
    metrics.update(first_counts)
    return metrics, mismatched
