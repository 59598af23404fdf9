"""Discrete mode sets for rotation-invariant boson fields.

A mode set is a radial quadrature rule approximating the measure space
(R^nu, dk): shell midpoints r_i, cell weights w_i (angular factor included),
dispersion values omega_i, and one coupling column per interaction channel.
The infrared cutoff sigma is mandatory and strictly positive, so omega = 0 is
never represented on a grid.

Convention: the discrete mode e_i stands for the normalized indicator of
cell i.  A smeared function f therefore enters annihilators with coefficient
f(r_i) * sqrt(w_i), which makes discrete sums converge to the corresponding
integrals under grid refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np
from pydantic import BaseModel, ConfigDict, Field, model_validator

__all__ = [
    "CouplingFamily",
    "ModeSet",
    "RadialGrid",
    "L2Criteria",
    "build_radial_grid",
    "eval_coupling",
    "ir_class_of",
    "l2_criteria",
]


def _readonly(a) -> np.ndarray:
    out = np.asarray(a, dtype=float).copy()
    out.flags.writeable = False
    return out


class CouplingFamily(BaseModel):
    """Radial coupling profile rho(r) = rho0 * r^p * envelope(r).

    The coupling column on a grid is lambda_i = rho(r_i) / sqrt(omega_i);
    p is the infrared exponent of rho and uv the ultraviolet cutoff used by
    the envelope.  profile selects the envelope: "hard-cutoff" is the
    indicator of r <= uv, "gaussian" is exp(-r^2 / (2 uv^2)).  This is one
    entry of a run config's `coupling` list: construction (by keyword)
    validates every field and raises ValueError on an unknown field, a
    non-finite value, rho0 < 0, uv <= 0 or an unknown profile.
    """

    model_config = ConfigDict(frozen=True, extra="forbid", allow_inf_nan=False)

    rho0: float = Field(ge=0)
    p: float = 0.0
    uv: float = Field(gt=0)
    profile: Literal["hard-cutoff", "gaussian"] = "hard-cutoff"

    def envelope(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.profile == "gaussian":
            return np.exp(-(r * r) / (2.0 * self.uv * self.uv))
        return (r <= self.uv).astype(float)

    def rho(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return self.rho0 * r**self.p * self.envelope(r)


@dataclass(frozen=True, eq=False)
class ModeSet:
    """Quadrature discretization of (R^nu, dk) restricted to radial data.

    points are strictly increasing shell radii, weights the cell measures
    (angular factor included), omega the dispersion values.  couplings holds
    one real column per channel; families keeps the generating
    CouplingFamily of each column when known (None otherwise), which is what
    the analytic infrared classification reads.  mass > 0 marks a massive
    dispersion omega = sqrt(r^2 + m^2).
    """

    nu: int
    points: np.ndarray
    weights: np.ndarray
    omega: np.ndarray
    couplings: tuple = ()
    families: tuple = ()
    mass: float = 0.0

    def __post_init__(self):
        pts = _readonly(self.points)
        wts = _readonly(self.weights)
        om = _readonly(self.omega)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "couplings", tuple(_readonly(c) for c in self.couplings))
        fams = tuple(self.families) if self.families else (None,) * len(self.couplings)
        object.__setattr__(self, "families", fams)
        if not (len(pts) == len(wts) == len(om)):
            raise ValueError("points, weights, omega must have equal length")
        if len(pts) == 0:
            raise ValueError("mode set must contain at least one mode")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("points must be strictly increasing")
        if np.any(wts <= 0):
            raise ValueError("all weights must be positive")
        if np.any(om <= 0):
            raise ValueError("all omega must be positive (keep the IR cutoff > 0)")
        for c in self.couplings:
            if len(c) != len(pts):
                raise ValueError("coupling column length does not match grid")
        if len(fams) != len(self.couplings):
            raise ValueError("families must align with coupling columns")

    @property
    def n_modes(self) -> int:
        return len(self.points)

    @property
    def n_channels(self) -> int:
        return len(self.couplings)

    def channel(self, j: int = 0) -> np.ndarray:
        return self.couplings[j]

    def with_coupling(self, column, family: CouplingFamily | None = None) -> "ModeSet":
        """Return a new ModeSet with one more coupling channel."""
        return replace(
            self,
            couplings=self.couplings + (_readonly(column),),
            families=self.families + (family,),
        )

    def _slice(self, sl: slice) -> "ModeSet":
        return replace(
            self,
            points=self.points[sl],
            weights=self.weights[sl],
            omega=self.omega[sl],
            couplings=tuple(c[sl] for c in self.couplings),
        )

    def restrict(self, i: int) -> "ModeSet":
        """Single-mode slice: mode i alone, with its coupling entries."""
        return self._slice(slice(i, i + 1))

    def head(self, k: int) -> "ModeSet":
        """First k modes, used to run exactness suites on small subspaces."""
        if not 1 <= k <= self.n_modes:
            raise ValueError(f"k must lie in [1, {self.n_modes}], got {k}")
        return self._slice(slice(0, k))


class RadialGrid(BaseModel):
    """The radial grid build_radial_grid builds: the `grid` section of a run config.

    Construction (by keyword) validates every field and raises ValueError on an
    unknown field, a non-finite value, nu outside 1..3, sigma <= 0, Lambda <= sigma,
    n_shells < 1, an unknown rule or mass < 0.
    """

    model_config = ConfigDict(frozen=True, extra="forbid", allow_inf_nan=False)

    nu: int = Field(ge=1, le=3)
    sigma: float = Field(gt=0)
    Lambda: float = Field(gt=0)
    n_shells: int = Field(ge=1)
    rule: Literal["midpoint", "log-midpoint"] = "midpoint"
    mass: float = Field(default=0.0, ge=0)

    @model_validator(mode="after")
    def _ordered(self):
        if self.Lambda <= self.sigma:
            raise ValueError(f"need Lambda > sigma, got Lambda={self.Lambda}, "
                             f"sigma={self.sigma}")
        return self


def build_radial_grid(nu: int, sigma: float, Lambda: float, n_shells: int,
                      rule: str = "midpoint", mass: float = 0.0) -> ModeSet:
    """Build a radial quadrature grid on [sigma, Lambda].

    rule "midpoint" places r_i = sigma + (i - 1/2) * dr with uniform dr;
    rule "log-midpoint" places shells geometrically (constant ratio
    r_{i+1}/r_i), which is what resolves logarithmically divergent infrared
    sweeps.  Weights are w_i = surface(nu) * r_i^(nu-1) * dr_i.  The
    dispersion is omega = r for mass 0 and omega = sqrt(r^2 + mass^2)
    otherwise.  The arguments are validated as a RadialGrid.
    """
    g = RadialGrid(nu=nu, sigma=sigma, Lambda=Lambda, n_shells=n_shells, rule=rule, mass=mass)
    nu, sigma, Lambda, n_shells, mass = g.nu, g.sigma, g.Lambda, g.n_shells, g.mass
    s = 2.0 * math.pi ** (nu / 2.0) / math.gamma(nu / 2.0)  # area of the unit sphere
    if g.rule == "midpoint":
        dr = (Lambda - sigma) / n_shells
        r = sigma + (np.arange(1, n_shells + 1) - 0.5) * dr
        widths = np.full(n_shells, dr)
    else:
        edges = sigma * (Lambda / sigma) ** (np.arange(n_shells + 1) / n_shells)
        r = np.sqrt(edges[:-1] * edges[1:])
        widths = np.diff(edges)
    w = s * r ** (nu - 1) * widths
    omega = r if mass == 0.0 else np.sqrt(r * r + mass * mass)
    return ModeSet(nu=nu, points=r, weights=w, omega=omega, mass=mass)


def eval_coupling(family: CouplingFamily, grid: ModeSet) -> np.ndarray:
    """The coupling column lambda_i = rho(r_i) / sqrt(omega_i), omega from the grid."""
    return family.rho(grid.points) / np.sqrt(grid.omega)


@dataclass(frozen=True)
class L2Criteria:
    """Discrete infrared norm of a grid's couplings and its IR classification.

    norm_lam_over_w is sum_j sum_i w_i (lambda_ji / omega_i)^2 over channels
    j.  ir_class is decided analytically from each generating family (a
    channel is singular iff 2p <= 3 - nu for a massless dispersion), never
    from the finite sums: "singular" if any channel is, else "unknown" if a
    column has no family, else "regular".
    """

    norm_lam_over_w: float
    ir_class: str


def ir_class_of(family: CouplingFamily | None, nu: int, mass: float = 0.0) -> str:
    if family is None:
        return "unknown"
    if mass > 0:
        return "regular"
    return "singular" if 2.0 * family.p <= 3.0 - nu else "regular"


def l2_criteria(grid: ModeSet) -> L2Criteria:
    """The L2Criteria of all of grid's coupling channels together."""
    w, om = grid.weights, grid.omega
    norm = sum(np.sum(w * lam * lam / (om * om)) for lam in grid.couplings)
    classes = {ir_class_of(fam, grid.nu, grid.mass) for fam in grid.families}
    ir_class = next((c for c in ("singular", "unknown") if c in classes), "regular")
    return L2Criteria(norm_lam_over_w=float(norm), ir_class=ir_class)
