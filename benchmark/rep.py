"""One repetition of a workload in a fresh interpreter.

    python3 rep.py MANIFEST RESULT {setup,run,trace} REP_ID

Every mode first imports gsblab.cli and validates the workload's configs,
and times that as set-up.  `setup` stops there.  `run` then times every
invocation through the gsblab CLI, from config load to reports written.
`trace` does the same with spans recorded (see tracing.py).  The result
file gets the timings, the CLI exit codes, the ground energies of
closed-form invocations and, when traced, the spans and counters.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _invoke(cli, inv) -> int:
    args = [inv["command"], "--config", inv["config_path"], "--out", inv["out_dir"]]
    try:
        cli.main(args, prog_name="gsblab")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def main(manifest_path: str, result_path: str, mode: str, rep: int) -> None:
    manifest = json.loads(Path(manifest_path).read_text())
    sys.path.insert(0, manifest["src"])
    from gsblab import cli

    for inv in manifest["invocations"]:
        cli.load_config(inv["config_path"])
    result = {"setup_s": time.perf_counter() - _T0}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            from tracing import ROOT, Tracer

            tracer = Tracer()
            tracer.install()
        energies = []
        if any(inv["closed_form"] for inv in manifest["invocations"]):
            from gsblab import spectral

            solve = spectral.solve_model

            def capture(model, cfg):
                gs = solve(model, cfg)
                energies.append(gs.energy)
                return gs

            spectral.solve_model = capture

        codes, energy = {}, {}
        root = tracer.open(ROOT) if tracer else None
        start = time.perf_counter()
        for inv in manifest["invocations"]:
            energies.clear()
            codes[inv["name"]] = _invoke(cli, inv)
            if inv["closed_form"] and energies:
                energy[inv["name"]] = energies[-1]
        result["run_s"] = time.perf_counter() - start
        if tracer:
            tracer.close(root)
            result["trace"] = tracer.to_json(rep)
        result.update(codes=codes, energies=energy)
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]))
