"""Configuration-driven entry point.

One JSON config describes a model, a solver and a list of checks.  Each
check kind is one config class whose `reports(run)` method returns its
report rows; `run` calls it once per configured check, building the model
and its ground state on first use, and writes resolved_config.json,
report.json, report.csv (and sweep.csv, read from the ir_sweep_verdict
reports) into the output directory.  Exit codes: 0 all checks passed, 1 a
check failed, 2 config/schema violation or an output path that cannot be
written, 3 solver failure (a solve that does not converge, or a float
overflow in H or in a check's arithmetic).

Reports are written with deterministic formatting, so identical configs and
seeds produce byte-identical report.csv files.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from contextlib import contextmanager
from functools import cached_property
from pathlib import Path
from typing import Annotated, List, Literal, Optional, Union, get_args

import click
import numpy as np
from pydantic import (BaseModel, ConfigDict, Field, PositiveFloat, ValidationError,
                      model_validator)

from . import fock, model as model_mod, modes, regularity, spectral

__all__ = ["main", "RunConfig", "load_config", "execute_run"]


# ---------------------------------------------------------------------------
# Configuration schema


class ConfigError(Exception):
    """Invalid configuration; mapped to exit code 2."""


def _schema_violation(errors) -> ConfigError:
    """The error of a config the schema refuses: one `  loc: msg` line per (loc, msg)."""
    return ConfigError("config schema violation:\n" + "\n".join(
        f"  {'.'.join(map(str, loc)) or '<root>'}: {msg}" for loc, msg in errors))


class _Strict(BaseModel):
    model_config = ConfigDict(extra="forbid", allow_inf_nan=False)


class VanHoveMatter(_Strict):
    """One level, A = 0 and B = 1: the exactly solvable van Hove model."""

    preset: Literal["van_hove"]

    def matter(self):
        return model_mod.preset_van_hove()


class SpinBosonMatter(_Strict):
    """A two-level atom with level splitting delta, coupled through sigma_x."""

    preset: Literal["spin_boson_2level"]
    delta: float = Field(default=1.0, ge=0)

    def matter(self):
        return model_mod.preset_spin_boson(self.delta)


class CustomMatter(_Strict):
    """Explicit matter matrices: A and one B_j per coupling channel."""

    preset: Literal["gsb_custom"]
    A: List[List[float]]
    B: List[List[List[float]]]

    @model_validator(mode="after")
    def _valid_matter(self):
        self.matter()
        return self

    def matter(self):
        return model_mod.check_matter(self.A, self.B)


# discriminated on preset: each preset takes only its own fields
ModelConfig = Annotated[Union[VanHoveMatter, SpinBosonMatter, CustomMatter],
                        Field(discriminator="preset")]


ColumnSpec = Union[Literal["ones", "omega", "omega_sq", "coupling"], List[float]]


class PullthroughCheck(_Strict):
    kind: Literal["pullthrough"]
    f: ColumnSpec = "coupling"

    def reports(self, run: _Run) -> list:
        return [regularity.pullthrough_check(run.model, run.gs, run.column(self.f),
                                             run.cfg.solver)]


class MomentCheck(_Strict):
    kind: Literal["moment"]
    G: ColumnSpec = "ones"

    def reports(self, run: _Run) -> list:
        return [regularity.moment_identity(run.model, run.gs, run.column(self.G), run.cfg.solver)]


class AbsenceCheck(_Strict):
    kind: Literal["absence"]
    G: ColumnSpec = "ones"

    def reports(self, run: _Run) -> list:
        return [regularity.absence_lower_bound(run.model, run.gs, run.column(self.G))]


class HigherCheck(_Strict):
    kind: Literal["higher"]
    # the orders regularity.check_higher_order allows, which RunConfig applies
    n: int

    def reports(self, run: _Run) -> list:
        return [regularity.higher_moment_identity(run.model, run.gs, self.n, run.cfg.solver)]


class AppendixCheck(_Strict):
    kind: Literal["appendix"]
    draws: int = Field(default=50, ge=1)
    order: int = Field(default=2, ge=1)

    def reports(self, run: _Run) -> list:
        return regularity.appendix_suite(run.model, self.draws, self.order, run.cfg.solver.seed)


class CcrCheck(_Strict):
    kind: Literal["ccr"]
    draws: int = Field(default=200, ge=1)

    def reports(self, run: _Run) -> list:
        # the suite runs on the first three modes with at most four quanta
        k = min(run.grid.n_modes, 3)
        basis = fock.enumerate_basis(k, max(min(run.cfg.n_max, 4), 1))
        return regularity.ccr_and_bound_suite(basis, run.grid.head(k),
                                              seed=run.cfg.solver.seed, n_draws=self.draws)


class IrSweepCheck(_Strict):
    kind: Literal["ir_sweep"]
    sigmas: List[PositiveFloat]
    shells_per_decade: int = Field(default=16, ge=1)
    ctol: float = Field(default=1e-3, gt=0)

    def rungs(self, grid: modes.RadialGrid) -> list:
        """(sigma, grid) per rung: the run's grid on [sigma, Lambda], log-midpoint,
        each validated, so a rung at or above Lambda raises the grid rule's ValueError."""
        out, base = [], {**grid.model_dump(exclude={"sigma", "n_shells"}), "rule": "log-midpoint"}
        for sigma in self.sigmas:
            n_shells = max(1, math.ceil(self.shells_per_decade * math.log10(grid.Lambda / sigma)))
            try:
                out.append((sigma, modes.RadialGrid(**base, sigma=sigma, n_shells=n_shells)))
            except ValidationError as exc:  # Lambda > sigma, the one rule a rung can break
                raise ValueError(str(exc.errors()[0]["ctx"]["error"])) from None
        return out

    def check_fit(self, cfg: RunConfig) -> None:
        """Refuse the ladder (check_sigma_ladder), a rung or the largest rung's size."""
        regularity.check_sigma_ladder(self.sigmas)
        largest = max(grid.n_shells for _, grid in self.rungs(cfg.grid))
        regularity.check_sweep_size(*cfg.model.matter(), cfg.n_max, largest)

    def reports(self, run: _Run) -> list:
        cfg = run.cfg
        # every coupling channel on every rung
        ladder = [(sigma, build_grid(grid, cfg.coupling)) for sigma, grid in self.rungs(cfg.grid)]
        A, B = cfg.model.matter()
        return [regularity.ir_sweep(ladder, A, B, cfg.alpha, cfg.n_max, cfg.solver, self.ctol)]


# each check kind is one class, and its reports method is what the kind runs;
# discriminated on kind: a bad entry is reported against its own kind only
_CHECK_TYPES = (PullthroughCheck, MomentCheck, AbsenceCheck, HigherCheck,
                AppendixCheck, CcrCheck, IrSweepCheck)
_CHECK_KINDS = [get_args(t.model_fields["kind"].annotation)[0] for t in _CHECK_TYPES]
CheckConfig = Annotated[Union[_CHECK_TYPES], Field(discriminator="kind")]


class RunConfig(_Strict):
    model: ModelConfig
    grid: modes.RadialGrid
    coupling: List[modes.CouplingFamily] = Field(min_length=1)
    alpha: float
    n_max: int = Field(ge=0)
    solver: spectral.SolverConfig = spectral.SolverConfig()
    checks: List[CheckConfig] = Field(default_factory=list)
    output: Optional[str] = None

    @model_validator(mode="after")
    def _channels_match(self):
        model_mod.check_matter(*self.model.matter(), len(self.coupling))
        return self

    @model_validator(mode="after")
    def _checks_fit_the_model(self):
        """Refuse, before any solve, a check this model cannot run: a higher order
        check_higher_order refuses, an appendix at n_max = 0, an explicit column
        of the wrong length, an explicit G with a negative entry, a sweep that
        IrSweepCheck.check_fit refuses, or a size over the guard: the run's grid
        and the model's basis when a check builds it.  The misfits are raised as
        one schema-violation ConfigError, which pydantic passes through."""
        n_modes, misfits = self.grid.n_shells, []
        # every run builds its grid; this rule, run first, is where a bad GSB_MAX_DIM surfaces
        try:
            fock.check_size(n_modes, f"grid with {n_modes} shells")
        except fock.BasisSizeError as exc:
            misfits.append((("grid", "n_shells"), str(exc)))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

        def fit(loc, rule, *args):  # any later rule's ValueError, in its words, at its field
            try:
                rule(*args)
            except ValueError as exc:
                misfits.append((loc, str(exc)))

        # every check kind but ccr and ir_sweep builds the model
        if any(not isinstance(chk, (CcrCheck, IrSweepCheck)) for chk in self.checks):
            fit(("n_max",), fock.check_basis_size, n_modes, self.n_max)
        for i, chk in enumerate(self.checks):
            at = ("checks", i, chk.kind)
            if isinstance(chk, HigherCheck):
                fit(at + ("n",), regularity.check_higher_order, chk.n, self.n_max, n_modes)
            if isinstance(chk, IrSweepCheck):
                fit(at + ("sigmas",), chk.check_fit, self)
            if isinstance(chk, AppendixCheck) and self.n_max == 0:
                # the suite caps its order at n_max, and no order fits below 1
                misfits.append((at + ("order",), "the factorial moment order is capped at "
                                "n_max, which must be >= 1, got n_max=0"))
            for field in ("f", "G"):
                col = getattr(chk, field, None)
                if isinstance(col, list) and len(col) != n_modes:
                    misfits.append((at + (field,), f"explicit column has {len(col)} "
                                                   f"entries for {n_modes} modes"))
                elif field == "G" and isinstance(col, list) and min(col) < 0:
                    misfits.append((at + (field,), "G must be entrywise >= 0"))
        if misfits:
            raise _schema_violation(misfits)
        return self


def load_config(path) -> RunConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        # a missing file, a directory, an unreadable file or bytes that are not UTF-8
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return _validate(raw)


def _validate(raw) -> RunConfig:
    try:
        return RunConfig.model_validate(raw)
    except ValidationError as exc:
        raise _schema_violation((err["loc"], err["msg"]) for err in exc.errors()) from exc


# ---------------------------------------------------------------------------
# Building and running


def build_grid(g: modes.RadialGrid, coupling) -> modes.ModeSet:
    """The grid g describes, with one coupling column per family."""
    grid = modes.build_radial_grid(**g.model_dump())
    for fam in coupling:
        grid = grid.with_coupling(modes.eval_coupling(fam, grid), fam)
    return grid


def build_model(cfg: RunConfig, grid: modes.ModeSet) -> model_mod.GsbModel:
    A, B = cfg.model.matter()
    return model_mod.assemble(A, B, grid, cfg.alpha, cfg.n_max)


class _Run:
    """What the checks of one run share: the config, its grid, and the model
    and its ground state, each built on first use, once per run."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.grid = build_grid(cfg.grid, cfg.coupling)

    @cached_property
    def model(self) -> model_mod.GsbModel:
        return build_model(self.cfg, self.grid)

    @cached_property
    def gs(self):
        return spectral.solve_model(self.model, self.cfg.solver)

    def column(self, selector) -> np.ndarray:
        """The column a check's f or G names; RunConfig has checked an explicit one's length."""
        if isinstance(selector, list):
            return np.asarray(selector, dtype=float)
        omega = self.grid.omega
        return {"ones": np.ones(self.grid.n_modes), "omega": omega, "omega_sq": omega**2,
                "coupling": self.grid.channel(0)}[selector]


def execute_run(cfg: RunConfig, selected_kinds=None):
    """Run the configured checks; returns (reports, ground_state).

    selected_kinds filters config.checks by kind; None runs everything.
    ground_state is None when no check needed the model's ground state.
    """
    run = _Run(cfg)
    checks = cfg.checks
    if selected_kinds is not None:
        checks = [c for c in checks if c.kind in selected_kinds]
        if not checks:
            raise ConfigError(f"no checks of kind {sorted(selected_kinds)} in the config")
    reports = [r for chk in checks for r in chk.reports(run)]
    # a cached_property lives in the instance dict once it has been computed
    return reports, vars(run).get("gs")


# ---------------------------------------------------------------------------
# Artifact writers (deterministic formatting)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([_fmt(v) for v in row] for row in rows)


def _write_json(payload, path) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_report_csv(reports, path) -> None:
    _write_csv(path, ["check_name", "lhs", "rhs", "rel_err", "w_top", "pass"],
               ([r.check_name, r.lhs, r.rhs, r.rel_err, r.w_top, r.passed] for r in reports))


def write_sweep_csv(reports, path) -> None:
    """One row per rung of each ir_sweep_verdict report, read from its metadata."""
    _write_csv(path, [*reports[0].metadata["rows"][0], "verdict"],
               ([*row.values(), r.metadata["verdict"]["kind"]]
                for r in reports for row in r.metadata["rows"]))


def _solve_json(gs) -> dict | None:
    """Ground-state diagnostics of the run's model, None when none was solved."""
    if gs is None:
        return None
    return {
        "energy": gs.energy, "residual": gs.residual,
        "gap": gs.gap if math.isfinite(gs.gap) else None,
        "near_degenerate": gs.near_degenerate, "iterations": gs.iterations,
        "method": gs.method,
    }


def write_report_json(reports, path, gs=None) -> None:
    # each report's fields, passed written as pass; vars, not dataclasses.asdict,
    # which would deep-copy metadata (the sweep rows of an ir_sweep report)
    entries = [{"pass" if k == "passed" else k: v for k, v in vars(r).items()} for r in reports]
    _write_json({"solve": _solve_json(gs), "reports": entries}, path)


# ---------------------------------------------------------------------------
# Command-line interface


@contextmanager
def _exit_on_failure():
    """Turn a failure into one line on stderr and its exit code: 2 for a config
    or input error, 3 for a solver failure."""
    try:
        yield
    except (ConfigError, ValueError, OSError) as exc:
        # ValueError covers BasisSizeError, a malformed GSB_MAX_DIM and inputs
        # the schema cannot see; OSError an output path that cannot be written
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except spectral.NonConverged as exc:
        click.echo(f"solver failure: {exc}", err=True)
        sys.exit(3)
    except OverflowError as exc:
        # a Python float power (alpha**2 and up) past the float range while H is finite
        click.echo(f"solver failure: float overflow: {exc}", err=True)
        sys.exit(3)


def _load(config, out, seed=None):
    """The config with --seed applied, and its output directory, created."""
    cfg = load_config(config)
    if seed is not None:
        # through the schema, so --seed meets the bounds of solver.seed
        cfg = _validate({**cfg.model_dump(), "solver": {**cfg.solver.model_dump(), "seed": seed}})
    out_dir = Path(out or cfg.output or "gsblab_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, out_dir


def _common_run(config, out, seed, selected=None, dry_run=False):
    with _exit_on_failure():
        cfg, out_dir = _load(config, out, seed)
        _write_json(cfg.model_dump(mode="json"), out_dir / "resolved_config.json")
        if dry_run:
            click.echo(f"dry run: resolved config written to {out_dir}")
            return
        reports, gs = execute_run(cfg, selected_kinds=selected)
        write_report_csv(reports, out_dir / "report.csv")
        write_report_json(reports, out_dir / "report.json", gs)
        sweeps = [r for r in reports if r.check_name == "ir_sweep_verdict"]
        if sweeps:
            write_sweep_csv(sweeps, out_dir / "sweep.csv")
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        click.echo(f"[{status}] {r.check_name}: lhs={r.lhs:.12g} rhs={r.rhs:.12g} "
                   f"rel_err={r.rel_err:.3g} w_top={r.w_top:.3g}")
    failed = sum(1 for r in reports if not r.passed)
    if failed:
        click.echo(f"{failed} of {len(reports)} checks failed", err=True)
        sys.exit(1)
    click.echo(f"all {len(reports)} checks passed")


@click.group()
def main():
    """Ground-state regularity laboratory for generalized spin-boson models."""


def _run_options(fn):
    """The options of run, sweep and check: --config, --out and --seed."""
    fn = click.option("--seed", default=None, type=int, help="Override the solver seed.")(fn)
    fn = click.option("--out", default=None, type=click.Path(), help="Output directory.")(fn)
    return click.option("--config", required=True, type=click.Path(),
                        help="JSON run configuration.")(fn)


@main.command()
@_run_options
@click.option("--dry-run", is_flag=True, help="Validate and write the resolved config only.")
def run(config, out, seed, dry_run):
    """Build the model, solve, run every configured check."""
    _common_run(config, out, seed, dry_run=dry_run)


@main.command()
@_run_options
def sweep(config, out, seed):
    """Run only the infrared sweep checks from the config: check ir_sweep."""
    _common_run(config, out, seed, selected={"ir_sweep"})


@main.command()
@click.argument("name", type=click.Choice(_CHECK_KINDS))
@_run_options
def check(name, config, out, seed):
    """Run only the named check from the config."""
    _common_run(config, out, seed, selected={name})


@main.command()
@click.argument("what", type=click.Choice(["basis", "operator", "grid"]))
@click.option("--config", required=True, type=click.Path())
@click.option("--out", default=None, type=click.Path())
def dump(what, config, out):
    """Dump the basis, the Hamiltonian (MatrixMarket), or the grid."""
    with _exit_on_failure():
        cfg, out_dir = _load(config, out)
        grid = build_grid(cfg.grid, cfg.coupling)
        if what == "grid":
            path = out_dir / "grid.csv"
            channels = range(grid.n_channels)
            _write_csv(path, ["i", "r", "w", "omega"] + [f"lambda_{j + 1}" for j in channels],
                       zip(range(grid.n_modes), grid.points, grid.weights, grid.omega,
                           *(grid.channel(j) for j in channels)))
            click.echo(f"wrote {path}")
        elif what == "basis":
            basis = fock.enumerate_basis(grid.n_modes, cfg.n_max)
            path = out_dir / "basis.csv"
            _write_csv(path, ["index"] + [f"n_{i + 1}" for i in range(grid.n_modes)]
                       + ["total"],
                       ([t, *occ, sum(occ)] for t, occ in enumerate(basis.occupations.tolist())))
            click.echo(f"wrote {path} ({len(basis)} states)")
        else:
            # imported here: no other command needs scipy.io
            from scipy.io import mmwrite

            path = out_dir / "hamiltonian.mtx"
            mmwrite(str(path), build_model(cfg, grid).H.mat)
            click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
