"""Correctness gate: turns one repetition's outputs into pass/fail operations.

An operation is one report row (one configured check; `appendix` and `ccr`
report 2 and 6 rows) or one benchmark output check:

- report.csv, and sweep.csv for sweeps, byte-identical to the first
  repetition of the same seed;
- every sweep row's E and expectation_N equal to the van Hove closed form on
  the same grid to 1e-6 relative, with the shell count the ladder implies;
- the ground energy and <N> of a closed-form invocation equal to the closed
  form to 1e-7 relative.

A repetition that raises or exits non-zero fails all of its operations.
"""

from __future__ import annotations

import csv
import io
import math

ROWS_PER_CHECK = {"appendix": 2, "ccr": 6}
SWEEP_REL_TOL = 1e-6
CLOSED_FORM_REL_TOL = 1e-7


def _rows(blob: bytes) -> list:
    return list(csv.DictReader(io.StringIO(blob.decode())))


def _close(value: float, exact: float, rel_tol: float) -> bool:
    return abs(value - exact) <= rel_tol * abs(exact)


def expected_rows(config: dict) -> int:
    return sum(ROWS_PER_CHECK.get(c["kind"], 1) for c in config["checks"])


def _sweep_check(config: dict) -> dict:
    return next(c for c in config["checks"] if c["kind"] == "ir_sweep")


def expected_ops(inv) -> int:
    n = expected_rows(inv.config) + 1
    if inv.command == "sweep":
        n += 1 + len(_sweep_check(inv.config)["sigmas"])
    if inv.closed_form:
        n += 2
    return n


def _grid(config: dict, sigma: float, n_shells: int, rule: str):
    from gsblab.modes import CouplingFamily, build_radial_grid, eval_coupling

    c = config["coupling"][0]
    family = CouplingFamily(rho0=c["rho0"], p=c["p"], uv=c["uv"],
                            profile=c.get("profile", "hard-cutoff"))
    grid = build_radial_grid(config["grid"]["nu"], sigma, config["grid"]["Lambda"],
                             n_shells, rule=rule)
    return grid.with_coupling(eval_coupling(family, grid), family)


def sweep_row_outcomes(config: dict, rows: list) -> list:
    """One outcome per configured sigma: the row exists and matches the closed form."""
    from gsblab.model import van_hove_oracle

    check = _sweep_check(config)
    Lambda = config["grid"]["Lambda"]
    out = []
    for k, sigma in enumerate(check["sigmas"]):
        if k >= len(rows) or float(rows[k]["sigma"]) != sigma:
            out.append(False)
            continue
        row = rows[k]
        n_shells = max(1, math.ceil(check["shells_per_decade"] * math.log10(Lambda / sigma)))
        if int(row["n_shells"]) != n_shells:
            out.append(False)
            continue
        exact = van_hove_oracle(_grid(config, sigma, n_shells, "log-midpoint"), config["alpha"])
        out.append(_close(float(row["E"]), exact.E_exact, SWEEP_REL_TOL)
                   and _close(float(row["expectation_N"]), exact.N_exact, SWEEP_REL_TOL))
    return out


def closed_form_outcomes(config: dict, energy, report_rows: list) -> list:
    """[energy matches, <N> from the moment check matches] against the closed form."""
    from gsblab.model import van_hove_oracle

    g = config["grid"]
    exact = van_hove_oracle(_grid(config, g["sigma"], g["n_shells"], g["rule"]),
                            config["alpha"])
    moments = [r for r in report_rows if r["check_name"] == "moment_identity"]
    return [
        energy is not None and _close(energy, exact.E_exact, CLOSED_FORM_REL_TOL),
        bool(moments) and _close(float(moments[0]["lhs"]), exact.N_exact, CLOSED_FORM_REL_TOL),
    ]


def _same(reference: dict, key: str, blob: bytes) -> bool:
    return reference.setdefault(key, blob) == blob


def invocation_outcomes(inv, files: dict, energy, reference: dict) -> list:
    """Outcomes, one per operation, of one invocation in one repetition.

    files maps "report.csv" and "sweep.csv" to their bytes (None when
    missing); energy is the captured ground energy of a closed-form
    invocation; reference keeps the first repetition's bytes per file.
    """
    n_ops = expected_ops(inv)
    report = files.get("report.csv")
    if report is None:
        return [False] * n_ops
    rows = _rows(report)
    if len(rows) != expected_rows(inv.config):
        return [False] * n_ops
    out = [r["pass"] == "true" for r in rows]
    out.append(_same(reference, f"{inv.name}/report.csv", report))
    if inv.command == "sweep":
        sweep = files.get("sweep.csv")
        if sweep is None:
            return [False] * n_ops
        out.append(_same(reference, f"{inv.name}/sweep.csv", sweep))
        out.extend(sweep_row_outcomes(inv.config, _rows(sweep)))
    if inv.closed_form:
        out.extend(closed_form_outcomes(inv.config, energy, rows))
    return out
