"""gsblab benchmark: time workloads end to end and per layer, check every output.

    python3 benchmark/run.py --workload {identities,large_model,ir_sweep} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  The seed generates the workload's
configs (workloads.py).  Each repetition runs every config of the workload
through the gsblab CLI in a fresh interpreter (rep.py), so nothing carries
over between repetitions.  Repetitions run one after another until S seconds
have passed.  Every output goes through the correctness gate (gate.py).

With --trace 0 the last line holds the end-to-end metrics; with --trace 1,
untraced and traced repetitions alternate and the last line holds the
per-layer metrics of the traced ones (tracing.py).  The last line is one JSON
object with keys correct, attempted, failed and metrics.  The exit code is 0
when every operation passed and 1 when one failed.  When no measurement can
be made, no result is printed: the exit code is 2 when the gsblab sources
are missing or the arguments are invalid, and 1 when set-up fails, no
repetition completes or the run passes its deadline.  The result, the
environment, the CLI's output and the spans also go to benchmark/_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Fresh interpreters timed for set-up besides the one in every repetition;
# one more runs first, untimed, to fill the file cache and write bytecode.
SETUP_SAMPLES = 2
# A repetition of large_model takes about half of a 30 s run; three give a median.
MIN_REPS = 3
TAIL_BEYOND = 10
DEADLINE_S = 170.0
# One BLAS thread: the workloads are sequential, and a fixed thread count
# keeps reduction order, hence iteration counts, the same on every machine.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _environment(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(root),
    }


def tail(samples) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond it.

    With fewer than TAIL_BEYOND + 1 samples no percentile qualifies, and the
    maximum (percentile 100) is reported instead.
    """
    xs = sorted(samples)
    k = len(xs) - TAIL_BEYOND
    if k < 1:
        return xs[-1], 100.0
    return xs[k - 1], 100.0 * k / len(xs)


class Bench:
    def __init__(self, root: Path, args):
        self.root = root
        self.args = args
        self.invocations = workloads.workload(args.workload, args.seed)
        self.work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, **CHILD_ENV)
        self.reference: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.log = self.out_dir() / f"cli-{args.workload}-seed{args.seed}.log"

    def write_manifest(self) -> Path:
        self.work.mkdir(parents=True)
        invs = []
        for inv in self.invocations:
            path = self.work / f"{inv.name}.json"
            path.write_text(json.dumps(inv.config, indent=2))
            invs.append({"name": inv.name, "command": inv.command,
                         "config_path": str(path), "out_dir": str(self.work / "out" / inv.name),
                         "closed_form": inv.closed_form})
        manifest = self.work / "manifest.json"
        manifest.write_text(json.dumps({"src": str(self.root / "src"), "invocations": invs}))
        return manifest

    def spawn(self, manifest: Path, mode: str, rep: int):
        """Run rep.py once; returns (exit code, peak RSS in MB, result or None)."""
        result = self.work / f"result-{mode}-{rep}.json"
        shutil.rmtree(self.work / "out", ignore_errors=True)
        with open(self.log, "a") as log:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "rep.py"), str(manifest), str(result), mode, str(rep)],
                stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=self.root)
            pid = 0
            try:
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.monotonic() > self.deadline:
                        raise RuntimeError(f"a {mode} repetition passed the {DEADLINE_S:.0f} s deadline")
                    time.sleep(0.01)
            finally:
                if not pid:
                    proc.kill()
                    proc.wait()
        proc.returncode = os.waitstatus_to_exitcode(status)
        data = json.loads(result.read_text()) if result.is_file() else None
        return proc.returncode, usage.ru_maxrss / 1024.0, data

    def record(self, outcomes: list, what: str) -> None:
        self.attempted += len(outcomes)
        bad = outcomes.count(False)
        self.failed += bad
        if bad:
            self.failures.append(f"{what}: {bad} of {len(outcomes)} operations failed")

    def gate_rep(self, rep: int, code: int, data) -> None:
        ok = code == 0 and data is not None and all(v == 0 for v in data["codes"].values())
        for inv in self.invocations:
            if not ok:
                self.record([False] * gate.expected_ops(inv), f"rep {rep} {inv.name}")
                continue
            out = self.work / "out" / inv.name
            files = {n: (out / n).read_bytes() if (out / n).is_file() else None
                     for n in ("report.csv", "sweep.csv")}
            outcomes = gate.invocation_outcomes(
                inv, files, data["energies"].get(inv.name), self.reference)
            self.record(outcomes, f"rep {rep} {inv.name}")

    def measure(self) -> dict:
        self.log.write_text("")
        manifest = self.write_manifest()
        self.spawn(manifest, "setup", -1)
        setup = []
        for k in range(SETUP_SAMPLES):
            code, _, data = self.spawn(manifest, "setup", k)
            if code != 0 or data is None:
                raise RuntimeError(f"set-up failed (exit {code}); see {self.log}")
            setup.append(data["setup_s"])

        runs, traced_runs, traces, rss = [], [], [], []
        start = time.monotonic()
        rep = 0
        while True:
            traced = self.args.trace == 1 and rep % 2 == 1
            code, peak, data = self.spawn(manifest, "trace" if traced else "run", rep)
            self.gate_rep(rep, code, data)
            if data is not None and "run_s" in data:
                setup.append(data["setup_s"])
                (traced_runs if traced else runs).append(data["run_s"])
                if traced:
                    traces.append(data["trace"])
                else:
                    rss.append(peak)
            rep += 1
            enough = rep >= MIN_REPS and (self.args.trace == 0 or traced_runs)
            if time.monotonic() - start >= self.args.seconds and enough:
                break
        if not runs or (self.args.trace == 1 and not traces):
            raise RuntimeError(f"no repetition completed; see {self.log}")

        summary = {"reps": len(runs), "setup_samples": len(setup)}
        if self.args.trace == 0:
            value, pct = tail(runs)
            summary["run_s_tail_percentile"] = pct
            metrics = {
                "run_s": (statistics.median(runs), "s"),
                "run_s_tail": (value, "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (max(rss), "MB"),
                "pass_frac": ((self.attempted - self.failed) / self.attempted, "ratio"),
            }
        else:
            layers, mismatched = tracing.layer_metrics(traces)
            self.record([t["rep"] not in mismatched for t in traces], "traced counts repeat")
            layers["bench.tracing_overhead_s"] = (statistics.median(traced_runs)
                                                  - statistics.median(runs))
            summary["traced_reps"] = len(traces)
            metrics = {name: (value, tracing.unit(name)) for name, value in layers.items()}
            traces_path = self.out_dir() / f"spans-{self.args.workload}-seed{self.args.seed}.json"
            traces_path.write_text(json.dumps(traces))
        summary["fail_frac"] = self.failed / self.attempted
        summary["samples_s"] = {"run": runs, "traced_run": traced_runs, "setup": setup}
        return {"metrics": metrics, "summary": summary}

    def out_dir(self) -> Path:
        path = HERE / "_out"
        path.mkdir(exist_ok=True)
        return path


def main(argv=None) -> int:
    args = _args(argv)
    # turn SIGTERM into SystemExit so the finally blocks stop the child and clean up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "gsblab" / "cli.py").is_file():
        print(f"error: no gsblab sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    env = _environment(root)
    bench = Bench(root, args)
    try:
        measured = bench.measure()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())
    summary = measured["summary"]
    for line in bench.failures:
        print(f"FAIL {line}")
    print(f"workload {args.workload} seed {args.seed}: {summary['reps']} untraced reps, "
          f"{summary.get('traced_reps', 0)} traced, {summary['setup_samples']} set-up samples; "
          f"fail_frac = {summary['fail_frac']:g} ({bench.failed} of {bench.attempted} "
          f"operations failed)")
    if "run_s_tail_percentile" in summary:
        pct = summary["run_s_tail_percentile"]
        note = "" if pct < 100 else f" (fewer than {TAIL_BEYOND + 1} samples: the maximum)"
        print(f"run_s_tail is percentile {pct:.4g} of {summary['reps']} samples{note}")
    for name, (value, unit) in measured["metrics"].items():
        print(f"  {name:36s} {value!r} {unit}")
    print("environment " + json.dumps(env, sort_keys=True))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in measured["metrics"].items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, environment=env, summary=summary)
    (bench.out_dir() / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
