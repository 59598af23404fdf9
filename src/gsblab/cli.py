"""Configuration-driven entry point.

One JSON config describes a model, a solver and a list of checks.  Each
check kind is one config class whose `reports(run)` method returns its
report rows; `run` calls it once per configured check, building the model
and its ground state on first use, and writes resolved_config.json,
report.json, report.csv (and sweep.csv, read from the ir_sweep_verdict
reports) into the output directory.  Exit codes: 0 all checks passed, 1 a
check failed, 2 config/schema violation, 3 solver failure.

Reports are written with deterministic formatting, so identical configs and
seeds produce byte-identical report.csv files.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from functools import cached_property
from pathlib import Path
from typing import Annotated, List, Literal, Optional, Union, get_args

import click
import numpy as np
from pydantic import BaseModel, ConfigDict, Field, ValidationError, model_validator

from . import fock, model as model_mod, modes, regularity, spectral

__all__ = ["main", "RunConfig", "load_config", "execute_run"]


# ---------------------------------------------------------------------------
# Configuration schema


class _Strict(BaseModel):
    model_config = ConfigDict(extra="forbid", allow_inf_nan=False)


class GridConfig(_Strict):
    nu: int = Field(ge=1, le=3)
    sigma: float = Field(gt=0)
    Lambda: float = Field(gt=0)
    n_shells: int = Field(ge=1)
    rule: Literal["midpoint", "log-midpoint"] = "midpoint"

    @model_validator(mode="after")
    def _ordered(self):
        if self.Lambda <= self.sigma:
            raise ValueError("Lambda must exceed sigma")
        return self


class CouplingConfig(_Strict):
    rho0: float = Field(ge=0)
    p: float = 0.0
    uv: float = Field(gt=0)
    profile: Literal["hard-cutoff", "gaussian"] = "hard-cutoff"

    def family(self) -> modes.CouplingFamily:
        return modes.CouplingFamily(rho0=self.rho0, p=self.p, uv=self.uv, profile=self.profile)


class DispersionConfig(_Strict):
    law: Literal["massless", "massive"] = "massless"
    mass: float = Field(default=0.0, ge=0)

    @model_validator(mode="after")
    def _mass_consistent(self):
        if self.law == "massive" and self.mass <= 0:
            raise ValueError("massive dispersion requires mass > 0")
        if self.law == "massless" and self.mass != 0:
            raise ValueError("massless dispersion requires mass = 0")
        return self


class ModelConfig(_Strict):
    preset: Literal["van_hove", "spin_boson_2level", "gsb_custom"]
    delta: float = Field(default=1.0, ge=0)
    A: Optional[List[List[float]]] = None
    B: Optional[List[List[List[float]]]] = None

    @model_validator(mode="after")
    def _custom_needs_matrices(self):
        if self.preset == "gsb_custom" and (self.A is None or self.B is None):
            raise ValueError("gsb_custom requires explicit A and B matrices")
        return self

    def matter(self):
        if self.preset == "van_hove":
            return model_mod.preset_van_hove()
        if self.preset == "spin_boson_2level":
            return model_mod.preset_spin_boson(self.delta)
        return np.asarray(self.A, dtype=float), [np.asarray(b, dtype=float) for b in self.B]


class SolverSection(_Strict):
    eig_tol: float = Field(default=1e-11, gt=0, lt=1)
    max_lanczos: int = Field(default=2000, ge=1)
    cg_tol: float = Field(default=1e-11, gt=0, lt=1)
    cg_max: int = Field(default=20000, ge=1)
    seed: int = 7

    def to_solver(self, seed_override: Optional[int] = None) -> spectral.SolverConfig:
        return spectral.SolverConfig(
            eig_tol=self.eig_tol, max_lanczos=self.max_lanczos,
            cg_tol=self.cg_tol, cg_max=self.cg_max,
            seed=self.seed if seed_override is None else seed_override,
        )


ColumnSpec = Union[Literal["ones", "omega", "omega_sq", "coupling"], List[float]]


class PullthroughCheck(_Strict):
    kind: Literal["pullthrough"]
    f: ColumnSpec = "coupling"

    def reports(self, run: _Run) -> list:
        return [regularity.pullthrough_check(run.model, run.gs, run.column(self.f), run.solver)]


class MomentCheck(_Strict):
    kind: Literal["moment"]
    G: ColumnSpec = "ones"

    def reports(self, run: _Run) -> list:
        return [regularity.moment_identity(run.model, run.gs, run.column(self.G), run.solver)]


class AbsenceCheck(_Strict):
    kind: Literal["absence"]
    G: ColumnSpec = "ones"

    def reports(self, run: _Run) -> list:
        return [regularity.absence_lower_bound(run.model, run.gs, run.column(self.G),
                                               run.solver)]


class HigherCheck(_Strict):
    kind: Literal["higher"]
    n: int = Field(ge=1, le=3)

    def reports(self, run: _Run) -> list:
        return [regularity.higher_moment_identity(run.model, run.gs, self.n, run.solver)]


class AppendixCheck(_Strict):
    kind: Literal["appendix"]
    draws: int = Field(default=50, ge=1)
    order: int = Field(default=2, ge=1)

    def reports(self, run: _Run) -> list:
        return regularity.appendix_suite(run.model, self.draws, self.order, run.solver.seed)


class CcrCheck(_Strict):
    kind: Literal["ccr"]
    draws: int = Field(default=200, ge=1)
    n_modes: Optional[int] = Field(default=None, ge=1)
    n_max: Optional[int] = Field(default=None, ge=1)

    def reports(self, run: _Run) -> list:
        k = self.n_modes or min(run.grid.n_modes, 3)
        small_grid = run.grid.head(k)
        small_basis = fock.enumerate_basis(k, max(self.n_max or min(run.cfg.n_max, 4), 1))
        return regularity.ccr_and_bound_suite(small_basis, small_grid,
                                              seed=run.solver.seed, n_draws=self.draws)


class IrSweepCheck(_Strict):
    kind: Literal["ir_sweep"]
    sigmas: List[float] = Field(min_length=2)
    shells_per_decade: int = Field(default=16, ge=1)
    ctol: float = Field(default=1e-3, gt=0)
    n_max: Optional[int] = Field(default=None, ge=0)

    @model_validator(mode="after")
    def _decreasing(self):
        if any(b >= a for a, b in zip(self.sigmas, self.sigmas[1:])):
            raise ValueError("sigmas must be strictly decreasing")
        if self.sigmas[0] <= 0 or self.sigmas[-1] <= 0:
            raise ValueError("sigmas must be positive")
        return self

    def reports(self, run: _Run) -> list:
        cfg = run.cfg
        A, B = cfg.model.matter()
        template = regularity.SweepTemplate(
            nu=cfg.grid.nu, Lambda=cfg.grid.Lambda, A=A, B=tuple(B),
            n_max=self.n_max if self.n_max is not None else cfg.n_max,
            mass=cfg.dispersion.mass,
        )
        rows, verdict = regularity.ir_sweep(
            cfg.coupling[0].family(), template, self.sigmas, self.shells_per_decade,
            cfg.alpha, run.solver, ctol=self.ctol,
        )
        return [regularity.sweep_verdict_report(rows, verdict, self.ctol)]


# each check kind is one class, and its reports method is what the kind runs;
# discriminated on kind: a bad entry is reported against its own kind only
_CHECK_TYPES = (PullthroughCheck, MomentCheck, AbsenceCheck, HigherCheck,
                AppendixCheck, CcrCheck, IrSweepCheck)
_CHECK_KINDS = [get_args(t.model_fields["kind"].annotation)[0] for t in _CHECK_TYPES]
CheckConfig = Annotated[Union[_CHECK_TYPES], Field(discriminator="kind")]


class RunConfig(_Strict):
    model: ModelConfig
    grid: GridConfig
    coupling: List[CouplingConfig] = Field(min_length=1)
    dispersion: DispersionConfig = DispersionConfig()
    alpha: float
    n_max: int = Field(ge=0)
    solver: SolverSection = SolverSection()
    checks: List[CheckConfig] = Field(default_factory=list)
    output: Optional[str] = None
    seed: Optional[int] = None

    @model_validator(mode="after")
    def _channels_match(self):
        d = {"van_hove": 1, "spin_boson_2level": 1}.get(self.model.preset)
        expected = d if d is not None else (len(self.model.B) if self.model.B else None)
        if expected is not None and len(self.coupling) != expected:
            raise ValueError(
                f"model has {expected} coupling channel(s) but {len(self.coupling)} were given"
            )
        return self


class ConfigError(Exception):
    """Invalid configuration; mapped to exit code 2."""


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        # a directory, an unreadable file or bytes that are not UTF-8
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    try:
        return RunConfig.model_validate(raw)
    except ValidationError as exc:
        lines = []
        for err in exc.errors():
            loc = ".".join(str(x) for x in err["loc"]) or "<root>"
            lines.append(f"  {loc}: {err['msg']}")
        raise ConfigError("config schema violation:\n" + "\n".join(lines)) from exc


# ---------------------------------------------------------------------------
# Building and running


def build_grid(cfg: RunConfig) -> modes.ModeSet:
    g = cfg.grid
    grid = modes.build_radial_grid(
        g.nu, g.sigma, g.Lambda, g.n_shells, rule=g.rule, mass=cfg.dispersion.mass
    )
    for c in cfg.coupling:
        fam = c.family()
        grid = grid.with_coupling(modes.eval_coupling(fam, grid), fam)
    return grid


def build_model(cfg: RunConfig, grid: modes.ModeSet) -> model_mod.GsbModel:
    A, B = cfg.model.matter()
    return model_mod.assemble(A, B, grid, cfg.alpha, cfg.n_max)


class _Run:
    """What the checks of one run share: the config, its grid, its solver config,
    and the model and its ground state, each built on first use, once per run."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.grid = build_grid(cfg)
        self.solver = cfg.solver.to_solver(cfg.seed)

    @cached_property
    def model(self) -> model_mod.GsbModel:
        return build_model(self.cfg, self.grid)

    @cached_property
    def gs(self):
        return spectral.solve_model(self.model, self.solver)

    def column(self, selector) -> np.ndarray:
        grid = self.grid
        if isinstance(selector, list):
            col = np.asarray(selector, dtype=float)
            if len(col) != grid.n_modes:
                raise ConfigError(
                    f"explicit column has {len(col)} entries for {grid.n_modes} modes"
                )
            return col
        omega = np.asarray(grid.omega)
        return {"ones": np.ones(grid.n_modes), "omega": omega, "omega_sq": omega**2,
                "coupling": np.asarray(grid.channel(0))}[selector]


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
            raise ConfigError(
                f"no checks of kind {sorted(selected_kinds)} in the config"
            )
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


def write_report_csv(reports, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["check_name", "lhs", "rhs", "rel_err", "w_top", "pass"])
        for r in reports:
            w.writerow([_fmt(v) for v in r.to_row()])


def write_sweep_csv(sweeps, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["sigma", "n_shells", "E", "expectation_N", "absence_bound",
                    "lam_over_w_norm", "max_w_top", "verdict"])
        for sweep in sweeps:
            # a row dict holds the IrSweepRow fields in the header's order
            for r in sweep["rows"]:
                w.writerow([_fmt(v) for v in [*r.values(), sweep["verdict"]["kind"]]])


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


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


def write_report_json(reports, sweeps, meta, path, gs=None) -> None:
    payload = {
        "metadata": meta,
        "solve": _solve_json(gs),
        "reports": [r.to_json() for r in reports],
        "sweeps": [{"verdict": s["verdict"], "rows": s["rows"]} for s in sweeps],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _resolved_config(cfg: RunConfig) -> dict:
    resolved = cfg.model_dump(mode="json")
    if resolved["seed"] is not None:
        resolved["solver"]["seed"] = resolved["seed"]
    return resolved


# ---------------------------------------------------------------------------
# Command-line interface


def _common_run(config, out, seed, dry_run, selected=None):
    try:
        cfg = load_config(config)
    except ConfigError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    if seed is not None:
        cfg = cfg.model_copy(update={"seed": seed})
    out_dir = Path(out or cfg.output or "gsblab_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = _resolved_config(cfg)
    with open(out_dir / "resolved_config.json", "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if dry_run:
        click.echo(f"dry run: resolved config written to {out_dir}")
        sys.exit(0)
    try:
        reports, gs = execute_run(cfg, selected_kinds=selected)
    except (ConfigError, ValueError) as exc:
        # ValueError covers BasisSizeError and inputs the schema cannot see
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except spectral.NonConverged as exc:
        click.echo(f"solver failure: {exc}", err=True)
        sys.exit(3)
    # the verdict reports carry their sweeps' verdict and rows in the metadata
    sweeps = [r.metadata for r in reports if r.check_name == "ir_sweep_verdict"]
    meta = {"seed": resolved["solver"]["seed"], "config": resolved}
    write_report_csv(reports, out_dir / "report.csv")
    write_report_json(reports, sweeps, meta, out_dir / "report.json", gs)
    if sweeps:
        write_sweep_csv(sweeps, out_dir / "sweep.csv")
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        click.echo(f"[{status}] {r.check_name}: lhs={r.lhs:.12g} rhs={r.rhs:.12g} "
                   f"rel_err={r.rel_err:.3g} w_top={r.w_top:.3g}")
    if all(r.passed for r in reports):
        click.echo(f"all {len(reports)} checks passed")
        sys.exit(0)
    failed = sum(1 for r in reports if not r.passed)
    click.echo(f"{failed} of {len(reports)} checks failed", err=True)
    sys.exit(1)


@click.group()
def main():
    """Ground-state regularity laboratory for generalized spin-boson models."""


def _run_options(dry_run: bool = True):
    """The options of run, sweep and check: --config, --out, --seed and --dry-run."""
    def decorate(fn):
        if dry_run:
            fn = click.option("--dry-run", is_flag=True,
                              help="Validate and write the resolved config only.")(fn)
        fn = click.option("--seed", default=None, type=int, help="Override the solver seed.")(fn)
        fn = click.option("--out", default=None, type=click.Path(), help="Output directory.")(fn)
        return click.option("--config", required=True, type=click.Path(),
                            help="JSON run configuration.")(fn)
    return decorate


@main.command()
@_run_options()
def run(config, out, seed, dry_run):
    """Build the model, solve, run every configured check."""
    _common_run(config, out, seed, dry_run)


@main.command()
@_run_options()
def sweep(config, out, seed, dry_run):
    """Run only the infrared sweep checks from the config."""
    _common_run(config, out, seed, dry_run, selected={"ir_sweep"})


@main.command()
@click.argument("name", type=click.Choice(_CHECK_KINDS))
@_run_options(dry_run=False)
def check(name, config, out, seed):
    """Run only the named check from the config."""
    _common_run(config, out, seed, False, selected={name})


@main.command()
@click.argument("what", type=click.Choice(["basis", "operator", "grid"]))
@click.option("--config", required=True, type=click.Path())
@click.option("--out", default=None, type=click.Path())
def dump(what, config, out):
    """Dump the basis, the Hamiltonian (MatrixMarket), or the grid."""
    try:
        cfg = load_config(config)
    except ConfigError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    try:
        grid = build_grid(cfg)
        if what == "basis":
            basis = fock.enumerate_basis(grid.n_modes, cfg.n_max)
        elif what == "operator":
            gsb = build_model(cfg, grid)
    except ValueError as exc:
        # BasisSizeError, a malformed GSB_MAX_DIM, inputs the schema cannot see
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    out_dir = Path(out or cfg.output or "gsblab_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    if what == "grid":
        path = out_dir / "grid.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["i", "r", "w", "omega"]
                       + [f"lambda_{j + 1}" for j in range(grid.n_channels)])
            for i in range(grid.n_modes):
                row = [i, grid.points[i], grid.weights[i], grid.omega[i]]
                row += [grid.channel(j)[i] for j in range(grid.n_channels)]
                w.writerow([_fmt(v) for v in row])
        click.echo(f"wrote {path}")
    elif what == "basis":
        path = out_dir / "basis.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["index"] + [f"n_{i + 1}" for i in range(grid.n_modes)] + ["total"])
            for t, occ in enumerate(basis.occupations.tolist()):
                w.writerow([t, *occ, sum(occ)])
        click.echo(f"wrote {path} ({len(basis)} states)")
    else:
        path = out_dir / "hamiltonian.mtx"
        fock.write_matrix_market(gsb.H, path)
        click.echo(f"wrote {path}")
    sys.exit(0)


if __name__ == "__main__":
    main()
