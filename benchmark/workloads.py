"""Seeded workload definitions for the gsblab benchmark.

A workload is a list of `gsblab run` / `gsblab sweep` invocations, each with
the JSON config it is given.  The seed sets the solver seed and scales alpha,
delta and rho0 by factors drawn from [0.97, 1.03].  It never changes the mode
count M, n_max, the sigma ladders or (nu, p), so every seed does the same
structural work and has a known verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

JITTER = 0.03

# Why each workload is in the benchmark: the layer it loads, and the layers
# it leaves flat so that a change aimed elsewhere shows up as no change.
WHY = {
    "identities": "resolvent solves do about half the work (68 CG solves in the "
                  "M=8 config); spin-boson checks at dims 25,740 and 3,640",
    "large_model": "assembly and the ground solve at dim 100,776, annihilator "
                   "rebuilds on a 50,388-state basis; a van Hove model checked "
                   "against its closed form",
    "ir_sweep": "1,072 assemble and solve calls on dim-13 models across four "
                "infrared classes, where per-call overhead dominates",
}
WORKLOADS = tuple(WHY)


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a workload: `gsblab <command> --config <name>.json`."""

    name: str
    command: str
    config: dict
    # van Hove model whose ground energy and <N> have a closed form
    closed_form: bool = False


class _Jitter:
    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def __call__(self, value: float) -> float:
        return value * self._rng.uniform(1.0 - JITTER, 1.0 + JITTER)


def _spin_boson(j: _Jitter, seed: int, n_modes: int, n_max: int, checks) -> dict:
    return {
        "model": {"preset": "spin_boson_2level", "delta": j(1.0)},
        "grid": {"nu": 3, "sigma": 0.4, "Lambda": 2.0, "n_shells": n_modes,
                 "rule": "midpoint"},
        "coupling": [{"rho0": j(0.9), "p": 1.0, "uv": 10.0}],
        "alpha": j(0.3),
        "n_max": n_max,
        "solver": {"seed": seed},
        "checks": checks,
    }


def _van_hove(j: _Jitter, seed: int, nu: int, p: float, alpha: float, grid: dict,
              n_max: int, checks) -> dict:
    return {
        "model": {"preset": "van_hove"},
        "grid": {"nu": nu, **grid},
        "coupling": [{"rho0": j(1.0), "p": p, "uv": 10.0}],
        "alpha": j(alpha),
        "n_max": n_max,
        "solver": {"seed": seed},
        "checks": checks,
    }


def _identities(j, seed):
    return [
        Invocation("spin_boson_m8", "run", _spin_boson(j, seed, 8, 8, [
            {"kind": "pullthrough"},
            {"kind": "moment", "G": "ones"},
            {"kind": "moment", "G": "omega"},
            {"kind": "absence"},
            {"kind": "higher", "n": 2},
        ])),
        Invocation("spin_boson_m4", "run", _spin_boson(j, seed, 4, 12, [
            {"kind": "pullthrough"},
            {"kind": "higher", "n": 3},
        ])),
    ]


def _large_model(j, seed):
    return [
        Invocation("spin_boson_m12", "run", _spin_boson(j, seed, 12, 7, [
            {"kind": "absence"},
            {"kind": "appendix", "draws": 4},
            {"kind": "ccr"},
        ])),
        Invocation("van_hove_m6", "run", _van_hove(
            j, seed, 3, 1.0, 0.5,
            {"sigma": 0.3, "Lambda": 1.0, "n_shells": 6, "rule": "log-midpoint"}, 12, [
                {"kind": "pullthrough"},
                {"kind": "moment"},
                {"kind": "absence"},
            ]), closed_form=True),
    ]


_DECADES = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]


def _ir_sweep(j, seed):
    out = []
    for nu, p, alpha, sigmas in [
        (3, 0.0, 0.5, _DECADES),
        (3, 1.0, 0.5, _DECADES),
        (1, 1.0, 0.5, _DECADES),
        (1, 0.0, 0.05, [0.3, 0.15, 0.075, 0.0375]),
    ]:
        grid = {"sigma": sigmas[0], "Lambda": 1.0, "n_shells": 16, "rule": "log-midpoint"}
        check = {"kind": "ir_sweep", "sigmas": sigmas, "shells_per_decade": 16}
        out.append(Invocation(f"sweep_nu{nu}_p{int(p)}", "sweep",
                              _van_hove(j, seed, nu, p, alpha, grid, 12, [check])))
    return out


_BUILDERS = {"identities": _identities, "large_model": _large_model, "ir_sweep": _ir_sweep}


def workload(name: str, seed: int) -> list[Invocation]:
    """The invocations of a workload for one seed; equal seeds give equal configs."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[name](_Jitter(seed), seed)
