"""Config-driven entry point: schema, exit codes, artifacts, determinism."""

import csv
import json
import math
import re
import subprocess
import sys
import threading
import typing
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from gsblab import cli, modes, regularity, spectral

EXAMPLES = Path(__file__).parent.parent / "examples"


def base_config(**overrides):
    cfg = {
        "model": {"preset": "van_hove"},
        "grid": {"nu": 1, "sigma": 0.5, "Lambda": 1.5, "n_shells": 1,
                 "rule": "midpoint"},
        "coupling": [{"rho0": 1.0, "p": 0.0, "uv": 10.0,
                      "profile": "hard-cutoff"}],
        "alpha": 1.0,
        "n_max": 8,
        "checks": [{"kind": "moment", "G": "ones"}],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def invoke(args):
    return CliRunner().invoke(cli.main, args, catch_exceptions=False,
                              standalone_mode=False)


def run_cli(args):
    runner = CliRunner()
    return runner.invoke(cli.main, args)


class TestSchema:
    def test_valid_config_loads(self, tmp_path):
        path = write_config(tmp_path, base_config())
        cfg = cli.load_config(path)
        assert cfg.alpha == 1.0
        assert cfg.checks[0].kind == "moment"

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, base_config(bogus=1))
        with pytest.raises(cli.ConfigError) as err:
            cli.load_config(path)
        assert "bogus" in str(err.value)

    def test_negative_n_max_rejected_with_field_path(self, tmp_path):
        path = write_config(tmp_path, base_config(n_max=-3))
        with pytest.raises(cli.ConfigError) as err:
            cli.load_config(path)
        assert "n_max" in str(err.value)

    def test_nested_field_path_in_message(self, tmp_path):
        cfg = base_config()
        cfg["grid"]["sigma"] = -0.5
        path = write_config(tmp_path, cfg)
        with pytest.raises(cli.ConfigError) as err:
            cli.load_config(path)
        assert "grid.sigma" in str(err.value)

    def test_sigma_ordering_enforced(self, tmp_path):
        cfg = base_config()
        cfg["grid"]["Lambda"] = 0.1
        path = write_config(tmp_path, cfg)
        with pytest.raises(cli.ConfigError):
            cli.load_config(path)

    def test_increasing_sweep_sigmas_rejected(self, tmp_path):
        cfg = base_config(checks=[
            {"kind": "ir_sweep", "sigmas": [0.01, 0.1], "shells_per_decade": 4}
        ])
        path = write_config(tmp_path, cfg)
        with pytest.raises(cli.ConfigError):
            cli.load_config(path)

    def test_single_sweep_sigma_rejected(self, tmp_path):
        cfg = base_config(checks=[
            {"kind": "ir_sweep", "sigmas": [0.1], "shells_per_decade": 4}
        ])
        path = write_config(tmp_path, cfg)
        with pytest.raises(cli.ConfigError):
            cli.load_config(path)

    def test_channel_count_mismatch_rejected(self, tmp_path):
        cfg = base_config()
        cfg["coupling"].append(cfg["coupling"][0])
        path = write_config(tmp_path, cfg)
        with pytest.raises(cli.ConfigError):
            cli.load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.ConfigError):
            cli.load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(cli.ConfigError):
            cli.load_config(path)

    def test_custom_model_requires_matrices(self, tmp_path):
        cfg = base_config()
        cfg["model"] = {"preset": "gsb_custom"}
        path = write_config(tmp_path, cfg)
        with pytest.raises(cli.ConfigError):
            cli.load_config(path)

    def test_custom_model_accepted(self, tmp_path):
        cfg = base_config()
        cfg["model"] = {
            "preset": "gsb_custom",
            "A": [[0.0, 0.5], [0.5, 1.0]],
            "B": [[[1.0, 0.0], [0.0, -1.0]]],
        }
        path = write_config(tmp_path, cfg)
        loaded = cli.load_config(path)
        A, B = loaded.model.matter()
        np.testing.assert_allclose(A, [[0.0, 0.5], [0.5, 1.0]])
        assert len(B) == 1

    def test_readme_check_table_matches_the_schema(self):
        # README's `| kind | fields |` table has one row per check kind, naming each
        # field of the kind with its default or "(required)", and no other field
        readme = (EXAMPLES.parent / "README.md").read_text(encoding="utf-8")
        table = readme.split("| kind | fields |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
        rows = dict(re.fullmatch(r"\| `(\w+)` \| (.*) \|", line).groups()
                    for line in table.splitlines())
        assert list(rows) == cli._CHECK_KINDS
        for kind, chk in zip(cli._CHECK_KINDS, cli._CHECK_TYPES):
            fields = {k: v for k, v in chk.model_fields.items() if k != "kind"}
            # a field's name, then its text up to the next name; a default in
            # parentheses may be backquoted too
            named = re.findall(r"`(\w+)`((?:[^`(]|\([^)]*\))*)", rows[kind])
            assert [name for name, _ in named] == list(fields), kind
            for name, text in named:
                (note,) = re.findall(r"\((required|default [^)]*)\)", text)
                if fields[name].is_required():
                    assert note == "required", f"{kind}.{name}"
                    continue
                shown, want = note.removeprefix("default ").strip("`"), fields[name].default
                assert (shown if isinstance(want, str) else float(shown)) == want, f"{kind}.{name}"


def huge_alpha_config(alpha, kind):
    """van Hove, nu = 3, p = 1 on two log-midpoint shells of [0.3, 1], n_max = 3."""
    cfg = base_config(alpha=alpha, n_max=3, checks=[{"kind": kind}])
    cfg["grid"] = {"nu": 3, "sigma": 0.3, "Lambda": 1.0, "n_shells": 2,
                   "rule": "log-midpoint"}
    cfg["coupling"][0]["p"] = 1.0
    return cfg


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path):
        path = write_config(tmp_path, base_config(output=str(tmp_path / "out")))
        result = run_cli(["run", "--config", str(path)])
        assert result.exit_code == 0

    def test_schema_violation_is_two(self, tmp_path):
        path = write_config(tmp_path, base_config(n_max=-1))
        result = run_cli(["run", "--config", str(path)])
        assert result.exit_code == 2
        assert "n_max" in result.output

    def test_solver_failure_is_three(self, tmp_path):
        cfg = base_config(output=str(tmp_path / "out"))
        cfg["solver"] = {"eig_tol": 1e-15, "max_lanczos": 1, "cg_tol": 1e-11,
                         "cg_max": 20000, "seed": 7}
        cfg["n_max"] = 12
        path = write_config(tmp_path, cfg)
        result = run_cli(["run", "--config", str(path)])
        assert result.exit_code == 3

    def test_sweep_solver_failure_is_three(self, tmp_path):
        # each stacked single-mode solve counts 13 applications, above the cap
        cfg = json.loads((EXAMPLES / "ir_sweep_nu3_p1.json").read_text())
        cfg["solver"] = {"max_lanczos": 5}
        result = run_cli(["sweep", "--config", str(write_config(tmp_path, cfg)),
                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 3
        assert "max_lanczos=5" in result.output

    @pytest.mark.parametrize("command, check", [
        ("run", {"kind": "moment", "G": "ones"}),
        ("sweep", {"kind": "ir_sweep", "sigmas": [0.3, 0.1], "shells_per_decade": 2}),
    ])
    def test_dense_eigh_failure_is_three(self, tmp_path, command, check):
        # alpha = 1e308 overflows H to inf, so the dense eigh (of one matrix,
        # or of the sweep's stack of single-mode matrices) fails to converge
        cfg = base_config(alpha=1e308, n_max=3, checks=[check])
        cfg["grid"] = {"nu": 3, "sigma": 0.3, "Lambda": 1.0, "n_shells": 2}
        result = run_cli([command, "--config", str(write_config(tmp_path, cfg)),
                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 3, result.output
        assert "solver failure" in result.output
        assert "Traceback" not in result.output

    def test_resolvent_check_cannot_pass_at_rel_err_one(self, tmp_path):
        # alpha = 1e150 truncates hard (w_top 0.25): uncapped, the resolvent
        # tolerance would be 5 and the moment check would pass at rel_err 1
        cfg = huge_alpha_config(1e150, "moment")
        out = tmp_path / "out"
        result = run_cli(["run", "--config", str(write_config(tmp_path, cfg)),
                          "--out", str(out)])
        assert result.exit_code == 1, result.output
        report = json.loads((out / "report.json").read_text())["reports"][0]
        assert report["rel_err"] == pytest.approx(1.0)
        assert report["tol_used"] == 0.5

    @pytest.mark.parametrize("kind", ["moment", "absence"])
    def test_float_overflow_in_check_is_three(self, tmp_path, kind):
        # alpha = 1e160 keeps H finite, but alpha**2 overflows a Python float
        cfg = huge_alpha_config(1e160, kind)
        result = run_cli(["run", "--config", str(write_config(tmp_path, cfg)),
                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 3, result.output
        assert result.stderr.splitlines() == [
            "solver failure: float overflow: (34, 'Numerical result out of range')"]

    def test_overflowing_residual_is_three_without_warning(self, tmp_path):
        # alpha = 1e200: H is finite, but ||H v - E v|| overflows to inf; the
        # error line is the only line on stderr, no RuntimeWarning before it
        cfg = huge_alpha_config(1e200, "moment")
        result = run_cli(["run", "--config", str(write_config(tmp_path, cfg)),
                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 3, result.output
        assert result.stderr.splitlines() == [
            "solver failure: dense missed eig_tol=1e-11 (best residual inf)"]

    def test_truncated_sweep_fails_projection_bound(self, tmp_path):
        # nu = 1, p = 0 at alpha = 0.5 and n_max = 12: the verdict class is
        # right, but at sigma = 1e-6 <N> is far below the closed-form bound
        cfg = json.loads((EXAMPLES / "ir_sweep_nu1_p1.json").read_text())
        cfg["coupling"][0]["p"] = 0.0
        out = tmp_path / "out"
        result = run_cli(["sweep", "--config", str(write_config(tmp_path, cfg)),
                          "--out", str(out)])
        assert result.exit_code == 1
        report = json.loads((out / "report.json").read_text())["reports"][0]
        assert report["metadata"]["verdict"]["kind"] == "diverging"
        assert report["metadata"]["worst_bound_violation"] == pytest.approx(1.0, abs=1e-6)
        assert report["metadata"]["worst_bound_sigma"] == 1e-6

    def test_sweep_without_sweep_check_is_two(self, tmp_path):
        path = write_config(tmp_path, base_config(output=str(tmp_path / "out")))
        result = run_cli(["sweep", "--config", str(path)])
        assert result.exit_code == 2

    def test_dry_run_is_zero_and_writes_resolved_only(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(output=str(out)))
        result = run_cli(["run", "--config", str(path), "--dry-run"])
        assert result.exit_code == 0
        assert (out / "resolved_config.json").exists()
        assert not (out / "report.csv").exists()
        # --dry-run is run's alone: sweep is check ir_sweep, and a flag it lacks is a
        # usage error that writes nothing
        example, out = EXAMPLES / "ir_sweep_nu3_p1.json", tmp_path / "sweep"
        result = run_cli(["sweep", "--config", str(example), "--out", str(out), "--dry-run"])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--dry-run" in result.output
        assert not out.exists()
        # run --dry-run validates a sweep-only config and writes, byte for byte, the one
        # line and the resolved config with every default filled in
        result = run_cli(["run", "--config", str(example), "--out", str(out), "--dry-run"])
        assert result.exit_code == 0
        assert result.output == f"dry run: resolved config written to {out}\n"
        raw = json.loads(example.read_text())
        resolved = {**raw, "output": None, "grid": {**raw["grid"], "mass": 0.0},
                    "coupling": [{**raw["coupling"][0], "profile": "hard-cutoff"}],
                    "checks": [{**raw["checks"][0], "ctol": 0.001}],
                    "solver": {"cg_max": 20000, "cg_tol": 1e-11, "eig_tol": 1e-11,
                               "max_lanczos": 2000, "seed": 7}}
        assert (out / "resolved_config.json").read_text() == json.dumps(
            resolved, indent=2, sort_keys=True) + "\n"
        assert [f.name for f in out.iterdir()] == ["resolved_config.json"]


class TestArtifacts:
    def test_report_files_written(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(output=str(out)))
        result = run_cli(["run", "--config", str(path)])
        assert result.exit_code == 0
        for name in ("resolved_config.json", "report.json", "report.csv"):
            assert (out / name).exists(), name
        with open(out / "report.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["check_name", "lhs", "rhs", "rel_err", "w_top", "pass"]
        assert rows[1][0] == "moment_identity"
        assert rows[1][5] == "true"

    def test_report_json_structure(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(output=str(out)))
        run_cli(["run", "--config", str(path)])
        payload = json.loads((out / "report.json").read_text())
        # the config lives in resolved_config.json only
        assert payload.keys() == {"solve", "reports"}
        rep = payload["reports"][0]
        assert rep["check_name"] == "moment_identity"
        assert rep["pass"] is True
        assert "w_top" in rep

    def test_resolved_config_has_all_defaults(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(output=str(out)))
        run_cli(["run", "--config", str(path), "--dry-run"])
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["solver"]["eig_tol"] == 1e-11
        assert resolved["grid"]["mass"] == 0.0
        # each preset writes only its own fields
        assert resolved["model"] == {"preset": "van_hove"}
        assert "threads" not in resolved
        # each setting has one field: the seed is solver.seed, the mass grid.mass
        assert "seed" not in resolved and "dispersion" not in resolved

    def test_resolved_config_round_trip(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        path = write_config(tmp_path, base_config(output=str(out1)))
        run_cli(["run", "--config", str(path)])
        resolved = json.loads((out1 / "resolved_config.json").read_text())
        resolved["output"] = str(out2)
        path2 = write_config(tmp_path, resolved, name="resolved.json")
        run_cli(["run", "--config", str(path2)])
        a = (out1 / "report.csv").read_text()
        b = (out2 / "report.csv").read_text()
        assert a == b

    def test_determinism_byte_identical(self, tmp_path):
        pairs = []
        for tag in ("x", "y"):
            out = tmp_path / tag
            path = write_config(
                tmp_path,
                base_config(output=str(out), checks=[
                    {"kind": "pullthrough", "f": "coupling"},
                    {"kind": "moment", "G": "ones"},
                    {"kind": "absence", "G": "ones"},
                    {"kind": "ccr", "draws": 50},
                ]),
                name=f"cfg_{tag}.json",
            )
            run_cli(["run", "--config", str(path)])
            pairs.append((out / "report.csv").read_bytes())
        assert pairs[0] == pairs[1]

    def test_seed_override_recorded(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(output=str(out)))
        run_cli(["run", "--config", str(path), "--seed", "123", "--dry-run"])
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["solver"]["seed"] == 123

    @pytest.mark.parametrize("example", sorted(p.name for p in EXAMPLES.glob("*.json")))
    def test_seed_override_reruns_from_resolved_config(self, tmp_path, example):
        # --seed sets solver.seed, so the resolved config alone reproduces the run
        first, second = tmp_path / "first", tmp_path / "second"
        result = run_cli(["run", "--config", str(EXAMPLES / example), "--out", str(first),
                          "--seed", "123"])
        assert json.loads((first / "resolved_config.json").read_text())["solver"]["seed"] == 123
        rerun = run_cli(["run", "--config", str(first / "resolved_config.json"),
                         "--out", str(second)])
        assert rerun.exit_code == result.exit_code
        assert (second / "report.csv").read_bytes() == (first / "report.csv").read_bytes()
        assert ((second / "resolved_config.json").read_bytes()
                == (first / "resolved_config.json").read_bytes())

    def test_sweep_csv_rows_are_the_verdict_report_rows(self, tmp_path):
        out = tmp_path / "out"
        result = run_cli(["sweep", "--config", str(EXAMPLES / "ir_sweep_nu1_p0.json"),
                          "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "report.json").read_text())
        assert "sweeps" not in payload
        sweep = payload["reports"][0]["metadata"]
        with open(out / "sweep.csv") as fh:
            header, *rows = list(csv.reader(fh))
        assert header[-1] == "verdict"
        assert rows == [[cli._fmt(r[k]) for k in header[:-1]] + [sweep["verdict"]["kind"]]
                        for r in sweep["rows"]]

    def test_sweep_csv_written(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            output=str(out),
            checks=[{"kind": "ir_sweep", "sigmas": [0.2, 0.1],
                     "shells_per_decade": 2}],
        )
        path = write_config(tmp_path, cfg)
        result = run_cli(["sweep", "--config", str(path)])
        # n_max = 8 truncates this alpha = 1 sweep (w_top 0.07 at sigma 0.1),
        # so <N> falls below the projection bound and the verdict fails;
        # the artifacts are written all the same
        assert result.exit_code == 1
        with open(out / "sweep.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:5] == ["sigma", "n_shells", "E", "expectation_N",
                               "absence_bound"]
        assert len(rows) == 3

    def test_report_json_entries_hold_no_config_setting(self, tmp_path):
        # one check of every kind: the settings live in resolved_config.json only
        out = tmp_path / "out"
        cfg = base_config(output=str(out), checks=[
            {"kind": "pullthrough"}, {"kind": "moment"}, {"kind": "absence"},
            {"kind": "higher", "n": 2}, {"kind": "appendix", "draws": 2},
            {"kind": "ccr", "draws": 2},
            {"kind": "ir_sweep", "sigmas": [0.2, 0.1], "shells_per_decade": 2}])
        assert {c["kind"] for c in cfg["checks"]} == set(cli._CHECK_KINDS)
        run_cli(["run", "--config", str(write_config(tmp_path, cfg))])
        reports = json.loads((out / "report.json").read_text())["reports"]
        assert len(reports) == 13
        for rep in reports:
            assert rep.keys() == {"check_name", "lhs", "rhs", "rel_err", "w_top", "tol_used",
                                  "pass", "metadata"}
            assert not rep["metadata"].keys() & {"alpha", "n_max", "order", "draws"}

    def test_report_json_metadata_keys_per_check_kind(self, tmp_path):
        # chain solves report one shape of solver stats; metadata holds measured values only
        out = tmp_path / "out"
        cfg = base_config(output=str(out), checks=[
            {"kind": "pullthrough"}, {"kind": "moment"}, {"kind": "absence"},
            {"kind": "higher", "n": 2}, {"kind": "appendix", "draws": 2},
            {"kind": "ccr", "draws": 2},
            {"kind": "ir_sweep", "sigmas": [0.2, 0.1], "shells_per_decade": 2}])
        run_cli(["run", "--config", str(write_config(tmp_path, cfg))])
        reports = json.loads((out / "report.json").read_text())["reports"]
        solves = {"resolvent_solves", "cg_iterations", "worst_cg_relres", "resolvent_dim"}
        assert {r["check_name"]: r["metadata"].keys() for r in reports} == {
            "pullthrough": solves | {"lhs_norm"},
            "moment_identity": solves,
            "absence_lower_bound": {"t_expectations_real"},
            "higher_moment_n2": solves,
            "number_decomposition": set(),
            "factorial_moment_decomposition": set(),
            "ccr_interior": set(),
            "ccr_aa_and_creation": set(),
            "creator_adjoint_pairing": set(),
            "dgamma_leibniz_commutators": set(),
            "relative_bound_annihilator": set(),
            "relative_bound_creator": set(),
            "ir_sweep_verdict": {"verdict", "expected", "worst_bound_violation",
                                 "worst_bound_sigma", "rows"},
        }

    def test_faithful_sweep_passes_and_writes_artifacts(self, tmp_path):
        # van Hove nu = 1, p = 0 with alpha = 0.05 and n_max = 12 stays well
        # inside the truncation, so the sweep passes
        out = tmp_path / "out"
        result = run_cli(["sweep", "--config", str(EXAMPLES / "ir_sweep_nu1_p0.json"),
                          "--out", str(out)])
        assert result.exit_code == 0, result.output
        with open(out / "sweep.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:5] == ["sigma", "n_shells", "E", "expectation_N",
                               "absence_bound"]
        assert [float(r[0]) for r in rows[1:]] == [0.3, 0.15, 0.075, 0.0375]
        assert json.loads((out / "report.json").read_text())["solve"] is None


class TestMultiChannelSweep:
    def test_two_channel_sweep_rungs_carry_every_channel(self, tmp_path):
        # A = diag(0, 1), B = [sigma_x, sigma_z]: not separable, so each rung
        # is one composite solve with both coupling channels on its grid
        out = tmp_path / "out"
        cfg = base_config(output=str(out), alpha=0.3, n_max=3, checks=[
            {"kind": "ir_sweep", "sigmas": [0.1, 0.01, 0.001], "shells_per_decade": 2},
            {"kind": "absence"},
        ])
        cfg["model"] = {"preset": "gsb_custom", "A": [[0.0, 0.0], [0.0, 1.0]],
                        "B": [[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]]}
        cfg["grid"] = {"nu": 3, "sigma": 0.1, "Lambda": 1.0, "n_shells": 2,
                       "rule": "log-midpoint"}
        cfg["coupling"] = [{"rho0": 0.5, "p": 1.0, "uv": 10.0},
                           {"rho0": 0.3, "p": 1.0, "uv": 10.0}]
        result = run_cli(["run", "--config", str(write_config(tmp_path, cfg))])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        sweep = report["reports"][0]["metadata"]
        assert sweep["verdict"]["kind"] == "converging"
        assert [r["n_shells"] for r in sweep["rows"]] == [2, 4, 6]
        # the first rung is the config's grid, so it solves the run's model
        first, absence = sweep["rows"][0], report["reports"][1]
        assert first["E"] == report["solve"]["energy"]
        assert first["expectation_N"] == absence["lhs"]
        assert first["absence_bound"] == absence["rhs"]


class TestLooseEigTol:
    """A sweep row solves no resolvent, so its rungs meet solver.eig_tol alone; the
    identity checks still refuse a ground state above their residual cap."""

    @staticmethod
    def loose(example):
        cfg = json.loads((EXAMPLES / f"{example}.json").read_text())
        cfg["solver"] = {**cfg.get("solver", {}), "eig_tol": 1e-5}
        return cfg

    @pytest.mark.parametrize("example", ["ir_sweep_spin_boson_biased", "ir_sweep_nu3_p1"])
    def test_sweep_rows_hold_at_a_loose_eig_tol(self, tmp_path, example):
        # the composite rungs of the biased spin boson reach residuals near 5e-9,
        # above the identity checks' cap of 1e-10
        rows = []
        for name, cfg in (("default", json.loads((EXAMPLES / f"{example}.json").read_text())),
                          ("loose", self.loose(example))):
            out = tmp_path / name
            result = run_cli(["sweep", "--config", str(write_config(tmp_path, cfg, f"{name}.json")),
                              "--out", str(out)])
            assert result.exit_code == 0, result.output
            with open(out / "sweep.csv") as fh:
                rows.append(list(csv.DictReader(fh)))
        assert len(rows[0]) == len(rows[1]) >= 3
        for default, loose in zip(*rows):
            for key in ("expectation_N", "absence_bound"):
                assert float(loose[key]) == pytest.approx(float(default[key]), rel=1e-6)

    def test_identity_checks_refuse_a_loose_ground_state(self, tmp_path):
        result = run_cli(["run", "--config",
                          str(write_config(tmp_path, self.loose("spin_boson_2level"))),
                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert ("error: ground-state residual 1.653e-10 exceeds 1.000e-10; tighten the "
                "eigensolver before running identity checks") in result.output


class TestSweepExpectation:
    @pytest.mark.parametrize("example, update, kind, expected", [
        # <phi, sigma_x phi> = 0 by parity: the bound is round-off (3.9e-32), and
        # <N> converges to 3.15e-3 although the coupling is infrared singular
        ("ir_sweep_spin_boson_unbiased", {}, "converging", None),
        ("ir_sweep_spin_boson_biased", {}, "diverging", "diverging"),
        # no coupling: <N> and the bound are 0 on every rung, so no increment
        # rises above round-off
        ("ir_sweep_nu3_p0", {"alpha": 0.0}, "converging", None),
    ])
    def test_divergence_expected_only_where_the_bound_forces_it(
            self, tmp_path, example, update, kind, expected):
        cfg = {**json.loads((EXAMPLES / f"{example}.json").read_text()), **update}
        out = tmp_path / "out"
        result = run_cli(["sweep", "--config", str(write_config(tmp_path, cfg)),
                          "--out", str(out)])
        assert result.exit_code == 0, result.output
        sweep = json.loads((out / "report.json").read_text())["reports"][0]["metadata"]
        assert sweep["verdict"]["analytic_ir_class"] == "singular"
        assert (sweep["verdict"]["kind"], sweep["expected"]) == (kind, expected)


class TestCheckSubcommand:
    def test_named_check_runs_only_that_kind(self, tmp_path):
        out = tmp_path / "out"
        # n_max high enough that the saturated bound clears its tolerance
        cfg = base_config(
            output=str(out),
            n_max=24,
            checks=[
                {"kind": "moment", "G": "ones"},
                {"kind": "absence", "G": "ones"},
            ],
        )
        path = write_config(tmp_path, cfg)
        result = run_cli(["check", "absence", "--config", str(path)])
        assert result.exit_code == 0
        with open(out / "report.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2
        assert rows[1][0] == "absence_lower_bound"

    def test_choices_are_the_check_config_kinds(self):
        union = typing.get_args(typing.get_args(cli.CheckConfig)[0])
        kinds = [typing.get_args(t.model_fields["kind"].annotation)[0] for t in union]
        choice = next(p for p in cli.check.params if p.name == "name").type
        assert list(choice.choices) == kinds

    def test_check_kind_not_in_config_is_two(self, tmp_path):
        path = write_config(tmp_path, base_config(output=str(tmp_path / "o")))
        result = run_cli(["check", "higher", "--config", str(path)])
        assert result.exit_code == 2


class TestExecuteRun:
    def test_ccr_only_run_assembles_nothing(self, tmp_path, monkeypatch):
        def no_assemble(*args, **kwargs):
            raise AssertionError("a ccr check must not assemble the model")

        monkeypatch.setattr(cli.model_mod, "assemble", no_assemble)
        cfg = cli.RunConfig.model_validate(base_config(checks=[{"kind": "ccr", "draws": 5}]))
        reports, gs = cli.execute_run(cfg)
        assert gs is None
        assert len(reports) == 6 and all(r.passed for r in reports)

    def test_model_and_ground_state_built_once(self, monkeypatch):
        calls = {"assemble": 0, "solve": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli.model_mod, "assemble", counted("assemble", cli.model_mod.assemble))
        monkeypatch.setattr(cli.spectral, "solve_model", counted("solve", cli.spectral.solve_model))
        cfg = cli.RunConfig.model_validate(base_config(checks=[
            {"kind": "appendix", "draws": 2}, {"kind": "moment"}, {"kind": "pullthrough"}]))
        reports, gs = cli.execute_run(cfg)
        assert calls == {"assemble": 1, "solve": 1}
        assert gs is not None and len(reports) == 4


class TestDump:
    def test_dump_grid(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(output=str(out)))
        result = run_cli(["dump", "grid", "--config", str(path)])
        assert result.exit_code == 0
        with open(out / "grid.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["i", "r", "w", "omega", "lambda_1"]
        assert len(rows) == 2
        assert float(rows[1][1]) == pytest.approx(1.0)
        assert float(rows[1][2]) == pytest.approx(2.0)

    def test_grid_mass_sets_omega_in_runs_and_sweep_rungs(self, tmp_path, monkeypatch):
        # grid.mass gives omega = sqrt(r^2 + m^2) on the run's grid, on every
        # sweep rung, and in the dumped grid
        grids = []
        assemble, ir_sweep = cli.model_mod.assemble, cli.regularity.ir_sweep
        monkeypatch.setattr(cli.model_mod, "assemble",
                            lambda A, B, grid, *a: grids.append(grid) or assemble(A, B, grid, *a))
        monkeypatch.setattr(cli.regularity, "ir_sweep", lambda ladder, *a, **k: (
            grids.extend(g for _, g in ladder) or ir_sweep(ladder, *a, **k)))
        out = tmp_path / "out"
        cfg = base_config(output=str(out), alpha=0.3, checks=[
            {"kind": "moment"},
            {"kind": "ir_sweep", "sigmas": [0.5, 0.05, 0.005, 0.0005], "shells_per_decade": 2,
             "ctol": 0.01}])
        cfg["grid"]["mass"] = 0.5
        path = write_config(tmp_path, cfg)
        # massive, the model is infrared regular and its sweep converges
        result = run_cli(["run", "--config", str(path)])
        assert result.exit_code == 0, result.output
        assert run_cli(["dump", "grid", "--config", str(path)]).exit_code == 0
        with open(out / "grid.csv") as fh:
            dumped = list(csv.DictReader(fh))
        assert len(grids) == 5 and len(dumped) == 1
        for grid in grids:
            assert grid.mass == 0.5
            assert np.array_equal(grid.omega, np.sqrt(grid.points**2 + 0.25))
        assert float(dumped[0]["omega"]) == math.sqrt(float(dumped[0]["r"]) ** 2 + 0.25)

    def test_dump_basis_row_count(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(output=str(out))
        cfg["grid"]["n_shells"] = 3
        cfg["n_max"] = 4
        path = write_config(tmp_path, cfg)
        result = run_cli(["dump", "basis", "--config", str(path)])
        assert result.exit_code == 0
        with open(out / "basis.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == math.comb(3 + 4, 3)

    def test_dump_operator_matrix_market(self, tmp_path):
        import scipy.io

        out = tmp_path / "out"
        cfg = base_config(output=str(out))
        cfg["n_max"] = 4
        path = write_config(tmp_path, cfg)
        result = run_cli(["dump", "operator", "--config", str(path)])
        assert result.exit_code == 0
        mat = scipy.io.mmread(out / "hamiltonian.mtx")
        assert mat.shape == (5, 5)
        dense = mat.toarray()
        np.testing.assert_allclose(dense, dense.conj().T, atol=1e-14)


class TestBundledExamples:
    @pytest.mark.parametrize("name", [
        "van_hove_single_mode.json",
        "spin_boson_higher_moments.json",
    ])
    def test_bundled_config_passes(self, tmp_path, name):
        result = run_cli(["run", "--config", str(EXAMPLES / name),
                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output

    def test_installed_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "gsblab.cli", "--help"]
            if False else ["gsblab", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for sub in ("run", "sweep", "check", "dump"):
            assert sub in proc.stdout


class TestDimGuard:
    def test_env_guard_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GSB_MAX_DIM", "10")
        out = tmp_path / "out"
        cfg = base_config(output=str(out))
        cfg["n_max"] = 20
        path = write_config(tmp_path, cfg)
        result = run_cli(["run", "--config", str(path)])
        assert result.exit_code != 0


def custom_shifted_config(out):
    """Spin-boson shifted by 1000: A = diag(1000, 1001), B = [sigma_x]."""
    cfg = base_config(output=str(out), alpha=0.3, checks=[
        {"kind": "pullthrough", "f": "coupling"},
        {"kind": "moment", "G": "ones"},
    ])
    cfg["model"] = {"preset": "gsb_custom", "A": [[1000.0, 0.0], [0.0, 1001.0]],
                    "B": [[[0.0, 1.0], [1.0, 0.0]]]}
    cfg["grid"]["n_shells"] = 2
    return cfg


class TestFailureExits:
    def assert_one_line_error(self, result):
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert "Traceback" not in result.output

    def test_basis_size_guard_is_two(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GSB_MAX_DIM", "10")
        cfg = base_config(output=str(tmp_path / "out"), n_max=20)
        result = run_cli(["run", "--config", str(write_config(tmp_path, cfg))])
        self.assert_one_line_error(result)
        assert "GSB_MAX_DIM" in result.output

    def test_malformed_max_dim_is_two(self, tmp_path, monkeypatch):
        # the grid rule parses GSB_MAX_DIM before any other rule runs, so its message
        # is the one line, and the config's misfits are never reached
        monkeypatch.setenv("GSB_MAX_DIM", "lots")
        cfg = base_config(output=str(tmp_path / "out"),
                          checks=[{"kind": "higher", "n": 4},
                                  {"kind": "ir_sweep", "sigmas": [0.1]}])
        result = run_cli(["run", "--config", str(write_config(tmp_path, cfg))])
        self.assert_one_line_error(result)
        assert result.stderr.splitlines() == ["error: GSB_MAX_DIM must be an integer, got 'lots'"]

    def test_value_error_is_two(self, tmp_path):
        # an explicit negative moment weight is refused by the schema, before any solve
        cfg = base_config(output=str(tmp_path / "out"),
                          checks=[{"kind": "moment", "G": [-1.0]}])
        result = run_cli(["run", "--config", str(write_config(tmp_path, cfg))])
        self.assert_one_line_error(result)
        assert "checks.0.moment.G: G must be entrywise >= 0" in result.output

    @pytest.mark.parametrize("example, old, new, field", [
        # 1e999 is valid JSON and parses to inf
        ("spin_boson_2level", '"alpha": 0.3', '"alpha": 1e999', "alpha"),
        ("spin_boson_2level", '"G": "ones"', '"G": [1.0, NaN, 1.0, 1.0]', "G.list[float].1"),
        ("van_hove_single_mode", '"Lambda": 1.5', '"Lambda": Infinity', "grid.Lambda"),
    ])
    def test_non_finite_number_is_two(self, tmp_path, example, old, new, field):
        text = (EXAMPLES / f"{example}.json").read_text()
        assert old in text
        path = tmp_path / "config.json"
        path.write_text(text.replace(old, new))
        result = run_cli(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        self.assert_one_line_error(result)
        assert "config schema violation" in result.output
        assert f"{field}: Input should be a finite number" in result.output

    @pytest.mark.parametrize("old, new, line", [
        # finite settings whose grid leaves the float range
        ('"Lambda": 1.0', '"Lambda": 1e300', "error: mode set has a non-finite entry in points"),
        ('"rule": "log-midpoint"', '"rule": "log-midpoint", "mass": 1e300',
         "error: mode set has a non-finite entry in omega"),
    ])
    def test_grid_past_the_float_range_is_two(self, tmp_path, old, new, line):
        text = (EXAMPLES / "van_hove_multimode.json").read_text()
        assert old in text
        path = tmp_path / "config.json"
        path.write_text(text.replace(old, new))
        result = run_cli(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        self.assert_one_line_error(result)
        assert result.stderr.splitlines() == [line]

    def test_gaussian_envelope_below_the_float_range_runs_silently(self, tmp_path):
        # its envelope is exactly 0 on every shell: a decoupled model that passes
        text = (EXAMPLES / "van_hove_multimode.json").read_text()
        path = tmp_path / "config.json"
        path.write_text(text.replace('"uv": 10.0', '"uv": 1e-300, "profile": "gaussian"'))
        result = run_cli(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert (result.exit_code, result.stderr) == (0, "")

    @pytest.mark.parametrize("section, entry, line", [
        ("solver", {"eig_tol": 2}, "solver.eig_tol: Input should be less than 1"),
        ("solver", {"foo": 1}, "solver.foo: Extra inputs are not permitted"),
        ("solver", {"cg_tol": math.nan}, "solver.cg_tol: Input should be a finite number"),
        ("solver", {"seed": "abc"}, "solver.seed: Input should be a valid integer, "
                                    "unable to parse string as an integer"),
        ("solver", {"max_lanczos": 2.5}, "solver.max_lanczos: Input should be a valid "
                                         "integer, got a number with a fractional part"),
        ("coupling", {"rho0": -1}, "coupling.0.rho0: Input should be greater than or equal to 0"),
        ("coupling", {"profile": "box"},
         "coupling.0.profile: Input should be 'hard-cutoff' or 'gaussian'"),
        ("coupling", {"p": math.inf}, "coupling.0.p: Input should be a finite number"),
        ("coupling", {"x": 1}, "coupling.0.x: Extra inputs are not permitted"),
    ])
    def test_solver_and_coupling_errors_are_one_line(self, tmp_path, section, entry, line):
        # the solver and coupling sections are the library's SolverConfig and
        # CouplingFamily, validated by the rules a library caller meets
        cfg = base_config(output=str(tmp_path / "out"))
        if section == "solver":
            cfg["solver"] = entry
        else:
            cfg["coupling"][0].update(entry)
        result = run_cli(["run", "--config", str(write_config(tmp_path, cfg))])
        self.assert_one_line_error(result)
        assert result.stderr.splitlines() == ["error: config schema violation:", f"  {line}"]

    @pytest.mark.parametrize("update, line", [
        # the seed is solver.seed and the mass grid.mass; the old keys are unknown
        ({"seed": 5}, "seed: Extra inputs are not permitted"),
        ({"dispersion": {"law": "massive", "mass": 0.5}},
         "dispersion: Extra inputs are not permitted"),
        # each preset takes only its own fields: one that it would ignore is unknown
        ({"model": {"preset": "spin_boson_2level", "A": [[5.0, 0.0], [0.0, -3.0]]}},
         "model.spin_boson_2level.A: Extra inputs are not permitted"),
        ({"model": {"preset": "van_hove", "B": [[[2.0]]]}},
         "model.van_hove.B: Extra inputs are not permitted"),
        ({"model": {"preset": "van_hove", "delta": 7.0}},
         "model.van_hove.delta: Extra inputs are not permitted"),
        ({"model": {"preset": "gsb_custom", "A": [[0.0, 0.0], [0.0, 1.0]],
                    "B": [[[0.0, 1.0], [1.0, 0.0]]], "delta": 7.0}},
         "model.gsb_custom.delta: Extra inputs are not permitted"),
        ({"model": {"preset": "gsb_custom", "A": [[0.0]]}},
         "model.gsb_custom.B: Field required"),
        # the ccr suite's size is fixed: its first three modes, at most four quanta
        ({"checks": [{"kind": "ccr", "n_modes": 2}]},
         "checks.0.ccr.n_modes: Extra inputs are not permitted"),
        # a sweep runs at the config's n_max
        ({"checks": [{"kind": "ir_sweep", "sigmas": [0.2, 0.1], "n_max": 8}]},
         "checks.0.ir_sweep.n_max: Extra inputs are not permitted"),
    ])
    def test_removed_or_ignored_setting_is_one_line(self, tmp_path, update, line):
        cfg = json.loads((EXAMPLES / "spin_boson_2level.json").read_text())
        cfg.update(update)
        result = run_cli(["run", "--config", str(write_config(tmp_path, cfg)),
                          "--out", str(tmp_path / "out")])
        self.assert_one_line_error(result)
        assert result.stderr.splitlines() == ["error: config schema violation:", f"  {line}"]

    def test_higher_order_above_n_max_is_two(self, tmp_path):
        # <N(N-1)(N-2)> vanishes identically at n_max = 2, so the check could never pass
        cfg = json.loads((EXAMPLES / "van_hove_single_mode.json").read_text())
        cfg.update(n_max=2, checks=[{"kind": "higher", "n": 3}])
        result = run_cli(["run", "--config", str(write_config(tmp_path, cfg)),
                          "--out", str(tmp_path / "out")])
        self.assert_one_line_error(result)
        assert result.stderr.splitlines() == [
            "error: config schema violation:",
            "  checks.0.higher.n: order must lie in [1, n_max=2], got 3"]

    @pytest.mark.parametrize("command", [["run", "--dry-run"], ["run"]])
    def test_appendix_at_n_max_zero_is_two(self, tmp_path, monkeypatch, command):
        # the suite caps its factorial order at n_max, and n_max = 0 leaves no order
        def no_model(*args):
            raise AssertionError("the model was built")

        monkeypatch.setattr(cli, "build_model", no_model)
        cfg = json.loads((EXAMPLES / "spin_boson_2level.json").read_text())
        cfg.update(n_max=0, checks=[{"kind": "appendix", "draws": 2}])
        result = run_cli([*command, "--config", str(write_config(tmp_path, cfg)),
                          "--out", str(tmp_path / "out")])
        self.assert_one_line_error(result)
        assert result.stderr.splitlines() == [
            "error: config schema violation:",
            "  checks.0.appendix.order: the factorial moment order is capped at n_max, "
            "which must be >= 1, got n_max=0"]

    # sweep runs only ir_sweep checks, yet a misfit in any other check still refuses
    # it; None: no command, the config validated in Python, where the same lines are
    # the ConfigError's text
    @pytest.mark.parametrize("command", [["run", "--dry-run"], ["run"], ["check", "higher"],
                                         ["sweep"], None])
    @pytest.mark.parametrize("update, extra, line", [
        ({"n_max": 2}, {"kind": "higher", "n": 3},
         "checks.5.higher.n: order must lie in [1, n_max=2], got 3"),
        ({"grid": {"n_shells": 5}}, {"kind": "higher", "n": 3},
         "checks.5.higher.n: cost guard: order 3 allows at most 4 modes, got 5"),
        # the orders and the ladder length are the library's rules, not schema bounds
        ({}, {"kind": "higher", "n": 0},
         "checks.5.higher.n: order n must be 2 or 3 (order 1 is the moment check), got 0"),
        ({}, {"kind": "higher", "n": 4},
         "checks.5.higher.n: order n must be 2 or 3 (order 1 is the moment check), got 4"),
        # <N> has one check, moment with G = ones
        ({}, {"kind": "higher", "n": 1},
         "checks.5.higher.n: order n must be 2 or 3 (order 1 is the moment check), got 1"),
        ({}, {"kind": "ir_sweep", "sigmas": [0.1]},
         "checks.5.ir_sweep.sigmas: need at least two sigma values"),
        ({}, {"kind": "ir_sweep", "sigmas": [0.1, 0.2]},
         "checks.5.ir_sweep.sigmas: sigmas must be strictly decreasing"),
        ({}, {"kind": "moment", "G": [1.0, 2.0, 3.0]},
         "checks.5.moment.G: explicit column has 3 entries for 1 modes"),
        ({"grid": {"n_shells": 2}}, {"kind": "pullthrough", "f": [1.0]},
         "checks.5.pullthrough.f: explicit column has 1 entries for 2 modes"),
        ({}, {"kind": "moment", "G": [-1.0]}, "checks.5.moment.G: G must be entrywise >= 0"),
        ({}, {"kind": "absence", "G": [-0.5]}, "checks.5.absence.G: G must be entrywise >= 0"),
        # every sweep rung is a grid on [sigma, Lambda], validated like grid itself and
        # refused in the grid rule's own words
        ({}, {"kind": "ir_sweep", "sigmas": [1.5, 0.1]},
         "checks.5.ir_sweep.sigmas: need Lambda > sigma, got Lambda=1.5, sigma=1.5"),
        ({}, {"kind": "ir_sweep", "sigmas": [2.0, 0.1]},
         "checks.5.ir_sweep.sigmas: need Lambda > sigma, got Lambda=1.5, sigma=2.0"),
    ])
    def test_check_that_cannot_run_is_refused_before_any_solve(
            self, tmp_path, monkeypatch, command, update, extra, line):
        def no_model(*args):
            raise AssertionError("the model was built")

        monkeypatch.setattr(cli, "build_model", no_model)
        cfg = json.loads((EXAMPLES / "van_hove_single_mode.json").read_text())
        for key, value in update.items():
            cfg[key] = {**cfg[key], **value} if isinstance(value, dict) else value
        cfg["checks"].append(extra)
        if command is None:
            with pytest.raises(cli.ConfigError) as err:
                cli.RunConfig.model_validate(cfg)
            assert str(err.value).splitlines() == ["config schema violation:", f"  {line}"]
            return
        out = tmp_path / "out"
        result = run_cli([*command, "--config", str(write_config(tmp_path, cfg)),
                          "--out", str(out)])
        self.assert_one_line_error(result)
        assert result.stderr.splitlines() == ["error: config schema violation:", f"  {line}"]
        assert not (out / "report.csv").exists()

    def test_bad_check_entry_reported_under_its_kind(self, tmp_path):
        # checks is discriminated on kind: a NaN in a moment column is
        # reported against the moment check alone, not once per check kind
        text = (EXAMPLES / "spin_boson_2level.json").read_text()
        path = tmp_path / "config.json"
        path.write_text(text.replace('"G": "ones"', '"G": [1.0, NaN, 1.0, 1.0]'))
        result = run_cli(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        self.assert_one_line_error(result)
        fields = [line for line in result.output.splitlines() if line.startswith("  ")]
        assert fields and all(line.strip().startswith("checks.1.moment.") for line in fields)

    @pytest.mark.parametrize("kind", ["bogus", None])
    def test_unknown_or_missing_kind_is_one_line(self, tmp_path, kind):
        cfg = json.loads((EXAMPLES / "spin_boson_2level.json").read_text())
        cfg["checks"][0].pop("kind")
        if kind is not None:
            cfg["checks"][0]["kind"] = kind
        result = run_cli(["run", "--config", str(write_config(tmp_path, cfg)),
                          "--out", str(tmp_path / "out")])
        self.assert_one_line_error(result)
        fields = [line for line in result.output.splitlines() if line.startswith("  ")]
        assert len(fields) == 1 and fields[0].strip().startswith("checks.0:")

    @pytest.mark.parametrize("what", ["basis", "operator"])
    def test_dump_basis_size_guard_is_two(self, tmp_path, what):
        # spin-boson on 4 shells with n_max = 60 has 635,376 Fock states
        cfg = base_config(output=str(tmp_path / "out"), n_max=60)
        cfg["model"] = {"preset": "spin_boson_2level"}
        cfg["grid"]["n_shells"] = 4
        result = run_cli(["dump", what, "--config", str(write_config(tmp_path, cfg))])
        self.assert_one_line_error(result)
        assert "635376 states" in result.output

    @pytest.mark.parametrize("what", ["basis", "operator"])
    def test_dump_malformed_max_dim_is_two(self, tmp_path, monkeypatch, what):
        monkeypatch.setenv("GSB_MAX_DIM", "lots")
        cfg = base_config(output=str(tmp_path / "out"))
        result = run_cli(["dump", what, "--config", str(write_config(tmp_path, cfg))])
        self.assert_one_line_error(result)
        assert "GSB_MAX_DIM" in result.output

    def test_sweep_basis_size_guard_is_two(self, tmp_path, monkeypatch):
        # the single-mode basis of an n_max = 12 sweep has 13 states
        monkeypatch.setenv("GSB_MAX_DIM", "10")
        result = run_cli(["sweep", "--config", str(EXAMPLES / "ir_sweep_nu3_p1.json"),
                          "--out", str(tmp_path / "out")])
        self.assert_one_line_error(result)
        assert "GSB_MAX_DIM" in result.output

    @pytest.mark.parametrize("command", [["run", "--dry-run"], ["run"]])
    @pytest.mark.parametrize("example, env, lines", [
        # the model's 1,820 Fock states, built for the pullthrough to appendix checks
        ("spin_boson_2level", "1000", ["error: config schema violation:",
                                       "  n_max: basis with 1820 states exceeds the guard "
                                       "of 1000; set GSB_MAX_DIM to raise it"]),
        ("spin_boson_2level", "lots", ["error: GSB_MAX_DIM must be an integer, got 'lots'"]),
        # the biased spin boson's sweep (below): its rungs hold 165, 969 and 2,925 Fock states
        (None, "1000", ["error: config schema violation:",
                        "  checks.0.ir_sweep.sigmas: basis with 2925 states exceeds the "
                        "guard of 1000; set GSB_MAX_DIM to raise it"]),
        # a van Hove sweep is solved mode by mode: its last rung stacks 96 one-mode
        # bases of 13 states at n_max = 12
        ("ir_sweep_nu3_p1", "1000", ["error: config schema violation:",
                                     "  checks.0.ir_sweep.sigmas: stack of 96 one-mode bases "
                                     "with 1248 states exceeds the guard of 1000; set "
                                     "GSB_MAX_DIM to raise it"]),
    ])
    def test_basis_over_the_guard_is_refused_before_any_solve(
            self, tmp_path, monkeypatch, command, example, env, lines):
        def no_solve(*args):
            raise AssertionError("a model was solved")

        monkeypatch.setattr(spectral, "solve_model", no_solve)
        monkeypatch.setenv("GSB_MAX_DIM", env)
        if example:
            cfg = json.loads((EXAMPLES / f"{example}.json").read_text())
        else:
            cfg = base_config(
                model={"preset": "gsb_custom", "A": [[1.0, 0.25], [0.25, 0.0]],
                       "B": [[[0.0, 1.0], [1.0, 0.0]]]},
                grid={"nu": 3, "sigma": 0.1, "Lambda": 1.0, "n_shells": 2},
                coupling=[{"rho0": 1.0, "p": 0.0, "uv": 10.0}], alpha=0.05, n_max=3,
                solver={"max_lanczos": 200_000},
                checks=[{"kind": "ir_sweep", "sigmas": [0.1, 0.01, 0.001],
                         "shells_per_decade": 8}])
        result = run_cli([*command, "--config", str(write_config(tmp_path, cfg)),
                          "--out", str(tmp_path / "out")])
        self.assert_one_line_error(result)
        assert result.stderr.splitlines() == lines

    @pytest.mark.parametrize("command", [["run", "--dry-run"], ["sweep"]])
    @pytest.mark.parametrize("example, update, sweep, line", [
        # a separable sweep stacks one 13-state basis per shell: 3,000 on the last rung
        ("van_hove_multimode", {}, {"sigmas": [0.1, 0.01, 0.001], "shells_per_decade": 1000},
         "checks.0.ir_sweep.sigmas: stack of 3000 one-mode bases with 39000 states"),
        # at n_max = 0 every basis has one state, but each grid holds all its shells
        ("van_hove_multimode", {"n_max": 0, "grid": {"n_shells": 51}}, {"sigmas": [0.1, 0.01]},
         "grid.n_shells: grid with 51 shells"),
        ("ir_sweep_spin_boson_biased", {"n_max": 0},
         {"sigmas": [0.1, 0.01, 0.001], "shells_per_decade": 20},
         "checks.0.ir_sweep.sigmas: grid with 60 shells"),
    ])
    def test_sweep_stack_and_shell_count_meet_the_guard(self, tmp_path, monkeypatch, command,
                                                         example, update, sweep, line):
        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(cli, "build_grid", no_grid)
        monkeypatch.setenv("GSB_MAX_DIM", "50")
        cfg = json.loads((EXAMPLES / f"{example}.json").read_text())
        for key, value in update.items():
            cfg[key] = {**cfg[key], **value} if isinstance(value, dict) else value
        cfg["checks"] = [{"kind": "ir_sweep", **sweep}]
        result = run_cli([*command, "--config", str(write_config(tmp_path, cfg)),
                          "--out", str(tmp_path / "out")])
        self.assert_one_line_error(result)
        assert result.stderr.splitlines() == [
            "error: config schema violation:",
            f"  {line} exceeds the guard of 50; set GSB_MAX_DIM to raise it"]

    @pytest.mark.parametrize("command", [["run"], ["dump", "grid"]])
    @pytest.mark.parametrize("unreadable", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_is_two(self, tmp_path, command, unreadable):
        path = tmp_path / "config.json"
        if unreadable == "directory":
            path.mkdir()
        elif unreadable == "not_utf8":
            path.write_bytes(json.dumps(base_config()).encode("utf-16"))
        result = run_cli([*command, "--config", str(path), "--out", str(tmp_path / "out")])
        self.assert_one_line_error(result)
        assert "cannot read config" in result.output

    @pytest.mark.parametrize("command", [["run", "--dry-run"], ["run"]])
    @pytest.mark.parametrize("via", ["config", "flag"])
    def test_negative_seed_is_two(self, tmp_path, command, via):
        # --seed is validated by the schema, like solver.seed
        cfg = json.loads((EXAMPLES / "van_hove_single_mode.json").read_text())
        args = [*command, "--out", str(tmp_path / "out")]
        if via == "config":
            cfg["solver"] = {**cfg.get("solver", {}), "seed": -3}
        else:
            args += ["--seed", "-3"]
        result = run_cli([*args, "--config", str(write_config(tmp_path, cfg))])
        self.assert_one_line_error(result)
        assert result.stderr.splitlines() == [
            "error: config schema violation:",
            "  solver.seed: Input should be greater than or equal to 0"]
        assert not (tmp_path / "out" / "resolved_config.json").exists()

    @pytest.mark.parametrize("command", [["run"], ["dump", "grid"]])
    @pytest.mark.parametrize("case", ["out_is_file", "out_under_file", "report_is_dir"])
    def test_unwritable_output_is_two(self, tmp_path, command, case):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = {"out_is_file": blocker, "out_under_file": blocker / "sub",
               "report_is_dir": tmp_path / "out"}[case]
        if case == "report_is_dir":
            # the output directory exists, and its first artifact path is a directory
            for name in ("report.csv", "grid.csv"):
                (out / name).mkdir(parents=True)
        result = run_cli([*command, "--config", str(EXAMPLES / "van_hove_single_mode.json"),
                          "--out", str(out)])
        self.assert_one_line_error(result)
        assert len(result.stderr.splitlines()) == 1

    def test_shifted_matter_energy_passes(self, tmp_path):
        path = write_config(tmp_path, custom_shifted_config(tmp_path / "out"))
        result = run_cli(["run", "--config", str(path)])
        assert result.exit_code == 0, result.output


    @pytest.mark.parametrize("matter, line", [
        ({"A": [[0.0, 1.0], [0.0, 0.0]], "B": [[[0.0, 1.0], [1.0, 0.0]]]},
         "A is not hermitian within 1e-12"),
        ({"A": [[0.0, 0.0], [0.0, 1.0]], "B": [[[1.0]]]},
         "B[0] has shape (1, 1), expected (2, 2)"),
        ({"A": [[0.0, 1.0], [1.0]], "B": [[[0.0, 1.0], [1.0, 0.0]]]},
         "A must be a square matrix, got ragged rows"),
    ])
    def test_bad_custom_matter_fails_dry_run(self, tmp_path, matter, line):
        # the matter rule of assemble, applied when the config is loaded
        cfg = base_config(output=str(tmp_path / "out"))
        cfg["model"] = {"preset": "gsb_custom", **matter}
        result = run_cli(["run", "--dry-run", "--config", str(write_config(tmp_path, cfg))])
        self.assert_one_line_error(result)
        assert result.stderr.splitlines() == [
            "error: config schema violation:", f"  model.gsb_custom: Value error, {line}"]


class TestSolveBlock:
    def test_report_json_solve_block(self, tmp_path):
        blocks = []
        for tag in ("x", "y"):
            out = tmp_path / tag
            path = write_config(tmp_path, base_config(output=str(out)), name=f"{tag}.json")
            assert run_cli(["run", "--config", str(path)]).exit_code == 0
            blocks.append(json.loads((out / "report.json").read_text())["solve"])
        solve = blocks[0]
        assert set(solve) == {"energy", "residual", "gap", "near_degenerate",
                              "iterations", "method"}
        # one mode with n_max = 8: dimension 9, solved dense
        assert (solve["method"], solve["iterations"]) == ("dense", 9)
        assert solve["residual"] <= 1e-11 * max(1.0, abs(solve["energy"]))
        assert solve["gap"] > 0 and solve["near_degenerate"] is False
        assert blocks[0] == blocks[1]

    def test_solve_block_records_lanczos(self, tmp_path):
        out = tmp_path / "out"
        cfg = custom_shifted_config(out)
        cfg["n_max"] = 12  # dimension 182, above the dense cut-off
        path = write_config(tmp_path, cfg)
        assert run_cli(["run", "--config", str(path)]).exit_code == 0
        solve = json.loads((out / "report.json").read_text())["solve"]
        assert solve["method"] == "lanczos" and solve["iterations"] > 2
        assert solve["energy"] == pytest.approx(1000.0, abs=1.0)

    def test_sweep_has_no_solve_block(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(output=str(out), checks=[
            {"kind": "ir_sweep", "sigmas": [0.2, 0.1], "shells_per_decade": 2}])
        # truncated like test_sweep_csv_written, so the verdict fails
        assert run_cli(["sweep", "--config", str(write_config(tmp_path, cfg))]).exit_code == 1
        assert json.loads((out / "report.json").read_text())["solve"] is None


class TestChainThreads:
    """Chain levels run on threads only above the size rule, and fail as the serial loop does."""

    def test_failed_level_exits_three_on_any_core_count(self, tmp_path, chain_cores, monkeypatch):
        # spin boson M=8, n_max=7: 108,965 stored entries, above the size rule
        cfg = {
            "model": {"preset": "spin_boson_2level", "delta": 1.0},
            "grid": {"nu": 3, "sigma": 0.4, "Lambda": 2.0, "n_shells": 8, "rule": "midpoint"},
            "coupling": [{"rho0": 0.9, "p": 1.0, "uv": 10.0}],
            "alpha": 0.3,
            "n_max": 7,
            "solver": {"cg_max": 2},
            "checks": [{"kind": "pullthrough"}],
        }
        path = write_config(tmp_path, cfg)
        pool = spectral._pool
        used = []
        monkeypatch.setattr(spectral, "_pool", lambda: used.append(1) or pool())
        errors = []
        for cores in (1, 2):
            chain_cores(cores)
            used.clear()
            result = run_cli(["run", "--config", str(path), "--out", str(tmp_path / "out")])
            assert result.exit_code == 3
            assert bool(used) == (cores > 1)
            errors.append(result.stderr)
        assert errors[0] == errors[1]
        assert errors[0].startswith("solver failure: CG did not reach cg_tol")
        assert errors[0].count("\n") == 1 and "Traceback" not in errors[0]

    @pytest.mark.parametrize("command, example", [
        ("run", "spin_boson_2level.json"),
        ("sweep", "ir_sweep_nu3_p1.json"),
    ])
    def test_small_runs_start_no_thread(self, tmp_path, chain_cores, command, example):
        # the benchmark's small configs stay serial whatever the core count:
        # its traced counts and the sweep's memory rest on that
        chain_cores(8)
        before = threading.active_count()
        result = run_cli([command, "--config", str(EXAMPLES / example),
                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert threading.active_count() == before


class TestColumnSelectors:
    @pytest.mark.parametrize("name", ["ones", "omega", "omega_sq", "coupling"])
    def test_named_column_gives_the_row_of_its_explicit_list(self, name):
        # the spin boson of spin_boson_2level.json at n_max = 6: four shells
        raw = json.loads((EXAMPLES / "spin_boson_2level.json").read_text())
        grid = cli.build_grid(modes.RadialGrid(**raw["grid"]),
                              [modes.CouplingFamily(**c) for c in raw["coupling"]])
        explicit = {"ones": np.ones(grid.n_modes), "omega": grid.omega,
                    "omega_sq": grid.omega ** 2, "coupling": grid.channel(0)}[name]
        raw.update(n_max=6, checks=[{"kind": "moment", "G": name},
                                    {"kind": "moment", "G": explicit.tolist()}])
        named, listed = cli.execute_run(cli.RunConfig.model_validate(raw))[0]
        assert named.lhs > 0 and named.passed
        assert vars(named) == vars(listed)
