"""Radial grids, coupling families, and infrared classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsblab import (
    CouplingFamily,
    ModeSet,
    RadialGrid,
    build_radial_grid,
    eval_coupling,
    ir_class_of,
    l2_criteria,
)

import oracle


def hard_family(rho0=1.0, p=0.0, uv=10.0):
    return CouplingFamily(rho0=rho0, p=p, uv=uv, profile="hard-cutoff")


class TestRadialGrid:
    def test_midpoint_matches_reference(self):
        grid = build_radial_grid(3, 0.1, 1.1, 5, rule="midpoint")
        pts, wts = oracle.midpoint_grid(3, 0.1, 1.1, 5)
        np.testing.assert_allclose(grid.points, pts, rtol=1e-14)
        np.testing.assert_allclose(grid.weights, wts, rtol=1e-14)

    def test_surface_constants(self):
        # nu=1: two half-lines; nu=3: 4 pi r^2
        g1 = build_radial_grid(1, 1.0, 2.0, 1, rule="midpoint")
        assert g1.weights[0] == pytest.approx(2.0 * 1.0)
        g3 = build_radial_grid(3, 1.0, 2.0, 1, rule="midpoint")
        assert g3.weights[0] == pytest.approx(4.0 * math.pi * 1.5**2 * 1.0)

    def test_log_midpoint_geometric(self):
        grid = build_radial_grid(3, 1e-2, 1.0, 8, rule="log-midpoint")
        ratios = grid.points[1:] / grid.points[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
        assert grid.points[0] > 1e-2
        assert grid.points[-1] < 1.0

    def test_weights_cover_measure(self):
        # total weight approximates the volume of the shell sigma..Lambda
        grid = build_radial_grid(3, 0.2, 1.0, 4000, rule="midpoint")
        vol = 4.0 / 3.0 * math.pi * (1.0**3 - 0.2**3)
        assert sum(grid.weights) == pytest.approx(vol, rel=1e-6)

    def test_massless_dispersion_is_radius(self):
        grid = build_radial_grid(2, 0.3, 0.9, 7)
        np.testing.assert_allclose(grid.omega, grid.points, rtol=0, atol=0)

    def test_massive_dispersion(self):
        grid = build_radial_grid(2, 0.3, 0.9, 7, mass=0.5)
        np.testing.assert_allclose(grid.omega, np.sqrt(grid.points**2 + 0.25),
                                   rtol=1e-14)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            build_radial_grid(3, 0.0, 1.0, 4)
        with pytest.raises(ValueError):
            build_radial_grid(3, -0.1, 1.0, 4)

    def test_ordering_violation_rejected(self):
        with pytest.raises(ValueError):
            build_radial_grid(3, 1.0, 0.5, 4)

    @pytest.mark.parametrize("args, kwargs, field", [
        ((4, 0.1, 1.0, 4), {}, "nu"),
        ((3, math.nan, 1.0, 4), {}, "sigma"),
        ((3, 0.1, math.inf, 4), {}, "Lambda"),
        ((3, 0.1, 1.0, 0), {}, "n_shells"),
        ((3, 0.1, 1.0, 4), {"mass": math.nan}, "mass"),
        ((3, 0.1, 1.0, 4), {"rule": "trapezoid"}, "rule"),
    ])
    def test_refuses_every_grid_the_config_refuses(self, args, kwargs, field):
        # the arguments are validated as the config's grid section, a RadialGrid
        with pytest.raises(ValueError, match=field):
            build_radial_grid(*args, **kwargs)
        nu, sigma, Lambda, n_shells = args
        with pytest.raises(ValueError, match=field):
            RadialGrid(nu=nu, sigma=sigma, Lambda=Lambda, n_shells=n_shells, **kwargs)

    @given(
        nu=st.sampled_from([1, 2, 3]),
        sigma=st.floats(1e-4, 0.5),
        n_shells=st.integers(1, 40),
        rule=st.sampled_from(["midpoint", "log-midpoint"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_grid_invariants(self, nu, sigma, n_shells, rule):
        grid = build_radial_grid(nu, sigma, sigma + 1.0, n_shells, rule=rule)
        assert grid.n_modes == n_shells
        assert np.all(np.diff(grid.points) > 0)
        assert np.all(grid.weights > 0)
        assert np.all(grid.omega > 0)
        assert grid.points[0] >= sigma
        assert grid.points[-1] <= sigma + 1.0


class TestCouplingFamily:
    def test_power_law(self):
        fam = hard_family(rho0=2.0, p=1.5)
        r = np.array([0.25, 1.0, 4.0])
        np.testing.assert_allclose(fam.rho(r), 2.0 * r**1.5, rtol=1e-14)

    def test_hard_cutoff_envelope(self):
        fam = hard_family(uv=1.0)
        r = np.array([0.5, 1.0, 1.5])
        np.testing.assert_allclose(fam.envelope(r), [1.0, 1.0, 0.0])

    def test_gaussian_envelope(self):
        fam = CouplingFamily(rho0=1.0, p=0.0, uv=2.0, profile="gaussian")
        r = np.array([0.0, 2.0])
        np.testing.assert_allclose(fam.envelope(r), [1.0, math.exp(-0.5)],
                                   rtol=1e-14)

    def test_eval_divides_by_sqrt_omega(self):
        grid = build_radial_grid(3, 0.5, 1.5, 3)
        fam = hard_family(rho0=1.0, p=1.0)
        lam = eval_coupling(fam, grid)
        np.testing.assert_allclose(lam, grid.points / np.sqrt(grid.omega),
                                   rtol=1e-14)

    def test_eval_massive_override(self):
        # the column follows the grid's dispersion omega = sqrt(r^2 + m^2)
        grid = build_radial_grid(3, 0.5, 1.5, 3, mass=2.0)
        fam = hard_family()
        lam = eval_coupling(fam, grid)
        np.testing.assert_allclose(
            lam, 1.0 / (grid.points**2 + 4.0) ** 0.25, rtol=1e-14
        )

    def test_negative_rho0_rejected(self):
        with pytest.raises(ValueError):
            CouplingFamily(rho0=-1.0, p=0.0, uv=1.0, profile="hard-cutoff")

    @pytest.mark.parametrize("field", [{"rho0": math.inf}, {"p": math.inf}, {"uv": math.nan},
                                       {"profile": "box"}, {"x": 1.0}])
    def test_rejects_what_the_run_config_rejects(self, field):
        with pytest.raises(ValueError):
            CouplingFamily(**{"rho0": 1.0, "uv": 1.0, **field})

    def test_p_defaults_to_zero(self):
        assert CouplingFamily(rho0=1.0, uv=1.0).p == 0.0


class TestModeSet:
    def test_channel_round_trip(self):
        grid = build_radial_grid(1, 0.2, 1.2, 4)
        fam = hard_family()
        lam = eval_coupling(fam, grid)
        grid = grid.with_coupling(lam, fam)
        assert grid.n_channels == 1
        np.testing.assert_allclose(grid.channel(0), lam)
        assert grid.families[0] is fam

    def test_length_mismatch_rejected(self):
        grid = build_radial_grid(1, 0.2, 1.2, 4)
        with pytest.raises(ValueError):
            grid.with_coupling(np.ones(3), hard_family())

    def test_restrict_singleton(self):
        grid = build_radial_grid(3, 0.2, 1.2, 5)
        grid = grid.with_coupling(eval_coupling(hard_family(), grid), hard_family())
        sub = grid.restrict(2)
        assert sub.n_modes == 1
        assert sub.points[0] == grid.points[2]
        assert sub.weights[0] == grid.weights[2]
        assert sub.channel(0)[0] == grid.channel(0)[2]

    def test_head_prefix(self):
        grid = build_radial_grid(3, 0.2, 1.2, 5)
        grid = grid.with_coupling(eval_coupling(hard_family(), grid), hard_family())
        sub = grid.head(3)
        assert sub.n_modes == 3
        np.testing.assert_allclose(sub.points, grid.points[:3])
        np.testing.assert_allclose(sub.channel(0), grid.channel(0)[:3])

    def test_arrays_read_only(self):
        grid = build_radial_grid(3, 0.2, 1.2, 5)
        with pytest.raises((ValueError, RuntimeError)):
            grid.points[0] = 99.0

    @pytest.mark.parametrize("field", ["points", "weights", "omega", "couplings"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, field, bad):
        # a nan passes every `<= 0` test, so finiteness is checked on its own
        grid = build_radial_grid(1, 0.2, 1.2, 4)
        arrays = {"points": grid.points, "weights": grid.weights, "omega": grid.omega,
                  "couplings": np.ones(4)}
        values = arrays[field].copy()
        values[-1] = bad
        arrays[field] = values
        couplings = (arrays.pop("couplings"),)
        with pytest.raises(ValueError, match=f"non-finite entry in {field}"):
            ModeSet(nu=1, couplings=couplings, **arrays)

    @pytest.mark.parametrize("kwargs, field", [
        # the log-midpoint edges' products overflow, and so does the massive dispersion
        ({"Lambda": 1e300, "rule": "log-midpoint"}, "points"),
        ({"Lambda": 1.0, "mass": 1e300}, "omega"),
    ])
    def test_grid_past_the_float_range_is_refused_without_a_warning(self, kwargs, field):
        # a RuntimeWarning would fail this test: tier-1 turns warnings into errors
        with pytest.raises(ValueError, match=f"non-finite entry in {field}"):
            build_radial_grid(3, 0.3, n_shells=4, **kwargs)

    def test_gaussian_below_the_float_range_is_zero_without_a_warning(self):
        grid = build_radial_grid(3, 0.3, 1.0, 4)
        fam = CouplingFamily(rho0=1.0, p=1.0, uv=1e-300, profile="gaussian")
        assert not eval_coupling(fam, grid).any()


class TestIrClassification:
    @pytest.mark.parametrize(
        "nu,p,expected",
        [
            (3, 0.0, "singular"),
            (3, 1.0, "regular"),
            (1, 0.0, "singular"),
            (1, 1.0, "singular"),
            (1, 1.5, "regular"),
            (2, 0.5, "singular"),
            (2, 0.6, "regular"),
        ],
    )
    def test_massless_rule(self, nu, p, expected):
        fam = hard_family(p=p)
        assert ir_class_of(fam, nu, mass=0.0) == expected

    def test_massive_always_regular(self):
        fam = hard_family(p=0.0)
        assert ir_class_of(fam, 1, mass=0.3) == "regular"

    def test_l2_norms_single_mode(self):
        # one shell at r=1 with w=2: lam=1 and omega=1, so the norm equals 2
        grid = build_radial_grid(1, 0.5, 1.5, 1)
        grid = grid.with_coupling(eval_coupling(hard_family(), grid), hard_family())
        crit = l2_criteria(grid)
        assert crit.norm_lam_over_w == pytest.approx(2.0)
        assert crit.ir_class == "singular"

    @pytest.mark.parametrize("p0, p1, expected", [
        (1.0, 0.0, "singular"), (1.0, None, "unknown"),
        (0.0, None, "singular"), (1.0, 1.0, "regular"),
    ])
    def test_l2_criteria_cover_every_channel(self, p0, p1, expected):
        # singular when any channel is, unknown when a column has no family
        grid = build_radial_grid(3, 0.1, 1.0, 4, rule="log-midpoint")
        lam = eval_coupling(hard_family(), grid)
        one = grid.with_coupling(lam, hard_family(p=p0))
        two = one.with_coupling(lam, None if p1 is None else hard_family(p=p1))
        crit = l2_criteria(two)
        assert crit.ir_class == expected
        assert crit.norm_lam_over_w == pytest.approx(2 * l2_criteria(one).norm_lam_over_w,
                                                     rel=1e-15)

    def test_l2_norm_values_match_sums(self):
        grid = build_radial_grid(3, 0.1, 1.0, 9, rule="log-midpoint")
        fam = hard_family(p=1.0)
        grid = grid.with_coupling(eval_coupling(fam, grid), fam)
        lam = np.asarray(grid.channel(0))
        w = np.asarray(grid.weights)
        om = np.asarray(grid.omega)
        crit = l2_criteria(grid)
        assert crit.norm_lam_over_w == pytest.approx(
            float(np.sum(w * lam**2 / om**2)), rel=1e-13
        )
