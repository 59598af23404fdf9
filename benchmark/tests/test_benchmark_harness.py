"""Tests of the benchmark harness: generator, span arithmetic, tracing, gate."""

import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

JITTERED = {("model", "delta"), ("coupling", 0, "rho0"), ("alpha",)}


def _get(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


def _without_jitter(cfg):
    cfg = json.loads(json.dumps(cfg))
    for path in JITTERED:
        try:
            parent = _get(cfg, path[:-1])
        except KeyError:
            continue
        parent.pop(path[-1], None)
    cfg["solver"].pop("seed")
    return cfg


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    assert workloads.workload(name, 5) == workloads.workload(name, 5)
    assert workloads.workload(name, 5) != workloads.workload(name, 6)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_changes_only_jittered_parameters(name):
    base = workloads.workload(name, 0)
    for seed in (1, 17, 123456):
        other = workloads.workload(name, seed)
        assert [i.name for i in other] == [i.name for i in base]
        for a, b in zip(base, other):
            assert b.config["solver"]["seed"] == seed
            assert _without_jitter(a.config) == _without_jitter(b.config)
            for path in JITTERED:
                try:
                    va, vb = _get(a.config, path), _get(b.config, path)
                except KeyError:
                    continue
                assert va != vb
                assert abs(vb / va - 1) <= 2.2 * workloads.JITTER


def test_self_time_on_synthetic_tree():
    spans = [
        ["bench.rep", 0.0, 10.0, -1],
        ["regularity.higher_moment_identity", 1.0, 6.0, 0],
        ["spectral.resolvent_apply", 2.0, 3.5, 1],
        ["spectral.resolvent_apply", 4.0, 4.5, 1],
        ["model.assemble", 7.0, 9.0, 0],
        ["fock.enumerate_basis", 7.5, 8.0, 4],
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 1.5, 0.5, 1.5, 0.5]
    trace = {"spans": spans, "matvecs": {"2": 7, "3": 2}, "unowned_matvecs": 1,
             "counts": dict.fromkeys(tracing.COUNTERS, 0) | {"fock.annihilator_distinct": 0}}
    times, counts = tracing.rep_layer_metrics(trace)
    assert times["bench.outside_spans_s"] == 3.0
    assert times["regularity.higher_s"] == 3.0
    assert times["spectral.resolvent_s"] == 2.0
    assert times["model.assemble_s"] == 1.5
    assert times["fock.enumerate_basis_s"] == 0.5
    assert times["fock.other_s"] == 0.0
    assert counts["spectral.resolvent_calls"] == 2
    assert counts["spectral.resolvent_matvecs"] == 9
    assert counts["regularity.higher_solves"] == 2
    assert counts["bench.unowned_matvecs"] == 1
    assert counts["bench.span_count"] == 6


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail([float(x) for x in range(1, 21)]) == (10.0, 50.0)


def _traced_rep(tmp_path, tag):
    config = {
        "model": {"preset": "spin_boson_2level", "delta": 1.0},
        "grid": {"nu": 3, "sigma": 0.4, "Lambda": 2.0, "n_shells": 2},
        "coupling": [{"rho0": 0.9, "p": 1.0, "uv": 10.0}],
        "alpha": 0.3, "n_max": 3,
        "checks": [{"kind": "pullthrough"}, {"kind": "higher", "n": 2}],
    }
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(config))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"src": str(SRC), "invocations": [{
        "name": "tiny", "command": "run", "config_path": str(cfg_path),
        "out_dir": str(tmp_path / f"out-{tag}"), "closed_form": False}]}))
    result = tmp_path / f"result-{tag}.json"
    subprocess.run([sys.executable, str(BENCH / "rep.py"), str(manifest), str(result),
                    "trace", "0"], check=True, capture_output=True, timeout=120)
    return json.loads(result.read_text())


def test_traced_rep_counts_solves_and_repeats(tmp_path):
    first = _traced_rep(tmp_path, "a")
    assert first["codes"] == {"tiny": 0}
    times, counts = tracing.rep_layer_metrics(first["trace"])
    # regularity looks resolvent_apply up by name; its solves must be seen
    assert counts["spectral.resolvent_calls"] == 2 + 2 + 3
    assert counts["regularity.higher_solves"] == 5
    assert counts["spectral.cg_iterations"] > 0
    assert counts["spectral.resolvent_matvecs"] >= counts["spectral.cg_iterations"]
    assert counts["spectral.solve_calls"] == 1
    assert counts["spectral.lanczos_steps"] > 0
    assert counts["model.dim_max"] == 2 * 10
    assert counts["cli.report_bytes"] > 0
    assert times["bench.outside_spans_s"] > 0
    _, again = tracing.rep_layer_metrics(_traced_rep(tmp_path, "b")["trace"])
    assert again == counts


def _van_hove_config():
    return workloads.workload("large_model", 3)[1]


def test_gate_trips_on_perturbed_energy():
    from gsblab.model import van_hove_oracle

    inv = _van_hove_config()
    g = inv.config["grid"]
    exact = van_hove_oracle(gate._grid(inv.config, g["sigma"], g["n_shells"], g["rule"]),
                            inv.config["alpha"])
    rows = [{"check_name": "moment_identity", "lhs": repr(exact.N_exact)}]
    assert gate.closed_form_outcomes(inv.config, exact.E_exact, rows) == [True, True]
    perturbed = exact.E_exact * (1 + 1e-6)
    assert gate.closed_form_outcomes(inv.config, perturbed, rows) == [False, True]
    assert gate.closed_form_outcomes(inv.config, None, rows) == [False, True]


def _csv(header, rows) -> bytes:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode()


def test_gate_trips_on_failed_report_and_changed_bytes():
    inv = _van_hove_config()
    from gsblab.model import van_hove_oracle

    g = inv.config["grid"]
    exact = van_hove_oracle(gate._grid(inv.config, g["sigma"], g["n_shells"], g["rule"]),
                            inv.config["alpha"])
    header = ["check_name", "lhs", "rhs", "rel_err", "w_top", "pass"]
    good = [["pullthrough", 1e-6, 1.0, 1e-6, 0.0, "true"],
            ["moment_identity", repr(exact.N_exact), repr(exact.N_exact), 0.0, 0.0, "true"],
            ["absence_lower_bound", 1.0, 1.0, 0.0, 0.0, "true"]]
    reference: dict = {}
    files = {"report.csv": _csv(header, good), "sweep.csv": None}
    ok = gate.invocation_outcomes(inv, files, exact.E_exact, reference)
    assert ok == [True] * gate.expected_ops(inv)

    failed = [row[:] for row in good]
    failed[0][-1] = "false"
    outcomes = gate.invocation_outcomes(
        inv, {"report.csv": _csv(header, failed)}, exact.E_exact, reference)
    # the failed row, and the bytes no longer equal the first repetition's
    assert outcomes.count(False) == 2
    assert gate.invocation_outcomes(inv, {"report.csv": None}, exact.E_exact, {}) == \
        [False] * gate.expected_ops(inv)


def test_gate_checks_sweep_rows_against_closed_form():
    from gsblab.model import van_hove_oracle

    inv = workloads.workload("ir_sweep", 0)[3]
    check = inv.config["checks"][0]
    rows = []
    for sigma in check["sigmas"]:
        n = math.ceil(16 * math.log10(inv.config["grid"]["Lambda"] / sigma))
        exact = van_hove_oracle(gate._grid(inv.config, sigma, n, "log-midpoint"),
                                inv.config["alpha"])
        rows.append({"sigma": repr(sigma), "n_shells": str(n), "E": repr(exact.E_exact),
                     "expectation_N": repr(exact.N_exact)})
    assert gate.sweep_row_outcomes(inv.config, rows) == [True] * len(rows)
    rows[1]["E"] = repr(float(rows[1]["E"]) * (1 + 1e-5))
    rows[2]["n_shells"] = "3"
    assert gate.sweep_row_outcomes(inv.config, rows[:-1]) == [True, False, False, False]
