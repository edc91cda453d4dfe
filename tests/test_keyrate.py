"""Key-rate formulas, distance sweeps, and the k-grid detection optimizer."""

import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvmdi import kernels
from cvmdi.gaussian import block_cm
from cvmdi.keyrate import (
    K_GRID_POINTS,
    K_GRID_SPAN,
    KeyRatePoint,
    analytic_k,
    default_k_grid,
    holevo_bound_reverse_generic,
    key_rate_at,
    key_rate_vs_k,
    max_distance_asymmetric,
    max_total_distance_symmetric,
    min_detector_efficiency,
    mutual_information_generic,
    optimize_k_detection_scheme,
    secret_key_rate,
    sweep_asymmetric,
    sweep_symmetric,
)
from cvmdi.protocol import (
    ChannelParams,
    Scenario,
    compose_eb_simulated,
    gain_from_k,
    optimal_gain,
    scenario_block_params,
)
from conftest import make_scenario, random_scenario


class TestMutualInformation:
    def test_known_value(self):
        # a = b = 40, c = sqrt(1599): maximally correlated two-mode block
        a = b = 40.0
        c = math.sqrt(a * a - 1.0)
        expected = math.log2((a + 1.0) / (a + 1.0 - c * c / (b + 1.0)))
        assert kernels.block_mutual_information(a, b, c) == pytest.approx(expected)
        assert expected == pytest.approx(math.log2(41.0 / (41.0 - 1599.0 / 41.0)))

    def test_uncorrelated_is_zero(self):
        assert kernels.block_mutual_information(5.0, 5.0, 0.0) == pytest.approx(0.0)

    def test_matches_generic_determinant_form(self, rng):
        for _ in range(200):
            a, b = rng.uniform(1.0, 80.0, 2)
            c = rng.uniform(0.0, 0.99) * math.sqrt((a * a - 1.0) * (b * b - 1.0)) ** 0.5
            assert kernels.block_mutual_information(a, b, c) == pytest.approx(
                mutual_information_generic(block_cm(a, b, c)), abs=1e-10)


class TestHolevoBound:
    def test_matches_generic_entropy_path(self, rng):
        """Closed-form spectrum vs explicit conditioning, to 1e-10."""
        for _ in range(100):
            s = random_scenario(rng)
            g = s.resolved_gain()
            a, b, c = scenario_block_params(s, g)
            assert kernels.block_holevo_reverse(a, b, c) == pytest.approx(
                holevo_bound_reverse_generic(block_cm(a, b, c)), abs=1e-10)

    def test_pure_loss_has_positive_bound(self):
        s = make_scenario(20.0, 0.0, eps=0.0)
        assert kernels.block_holevo_reverse(*scenario_block_params(s, s.resolved_gain())) > 0.0


class TestSecretKeyRate:
    def test_decomposition(self):
        s = make_scenario(2.0, 2.0)
        pt = secret_key_rate(s)
        assert pt.k == pytest.approx(s.beta_r * pt.i_ab - pt.chi_be)
        assert pt.scenario.gain_mode == "optimal"
        assert pt.positive

    def test_fixed_gain_at_optimal_value_matches(self, rng):
        for _ in range(30):
            s = random_scenario(rng)
            s_fixed = replace(s, gain_mode="fixed", gain=float(optimal_gain(s)))
            pt_opt, pt_fix = secret_key_rate(s), secret_key_rate(s_fixed)
            assert pt_fix.k == pytest.approx(pt_opt.k, abs=1e-12)
            assert pt_fix.scenario.gain_mode == "fixed"

    def test_detector_penalty_reduces_rate(self):
        ideal = secret_key_rate(make_scenario(5.0, 5.0)).k
        lossy = secret_key_rate(make_scenario(5.0, 5.0, eta_d=0.95)).k
        assert lossy < ideal

    def test_rate_decreases_with_distance(self):
        s = make_scenario()
        rates = [key_rate_at(s, l, l) for l in (0.0, 1.0, 2.0, 3.0)]
        assert all(r1 > r2 for r1, r2 in zip(rates, rates[1:]))

    def test_block_params_match_composition(self, rng):
        for _ in range(50):
            s = random_scenario(rng)
            g = s.resolved_gain()
            a, b, c = scenario_block_params(s, g)
            assert np.allclose(block_cm(a, b, c).entries, compose_eb_simulated(s, g).entries,
                               rtol=0.0, atol=1e-12)


class TestDistanceSearch:
    # eta_d = 0.852 leaves both ranges under 1 km, where the search bisects
    # its first doubling bracket [0, 1] km
    @pytest.mark.parametrize("eta_d", [1.0, 0.852])
    def test_refinement_tolerance(self, eta_d):
        s = make_scenario(eta_d=eta_d)
        total = max_total_distance_symmetric(s)
        # rate is positive just inside and nonpositive just outside
        assert key_rate_at(s, total / 2 - 0.02, total / 2 - 0.02) > 0.0
        assert key_rate_at(s, total / 2 + 0.02, total / 2 + 0.02) <= 0.0
        one_sided = max_distance_asymmetric(s, 0.0)
        assert key_rate_at(s, max(one_sided - 0.02, 0.0), 0.0) > 0.0
        assert key_rate_at(s, one_sided + 0.02, 0.0) <= 0.0

    def test_asymmetric_ordering(self):
        s = make_scenario()
        d = [max_distance_asymmetric(s, l_bc) for l_bc in (0.0, 1.0, 3.0)]
        assert d[0] > d[1] > d[2]

    def test_zero_at_origin_when_dead(self):
        s = make_scenario(eta_d=0.5)  # far below the efficiency threshold
        assert max_total_distance_symmetric(s) == 0.0


class TestSweeps:
    def test_symmetric_shapes_and_axis(self):
        s = make_scenario()
        res = sweep_symmetric(s, np.linspace(0.0, 3.0, 7))
        assert res.axis_name == "L_total_km"
        (curve,) = res.curves
        assert np.allclose(curve.axis_km, 2.0 * np.linspace(0.0, 3.0, 7))
        assert len(curve.points) == 7

    def test_asymmetric_curves(self):
        s = make_scenario()
        res = sweep_asymmetric(s, np.linspace(0.0, 5.0, 6), [0.0, 2.0])
        assert len(res.curves) == 2
        assert res.curves[0].label == "l_bc=0km"
        assert res.curves[1].points[0].k < res.curves[0].points[0].k

    def test_curve_labels_tell_lengths_apart(self):
        # `:g` where it reads back as the same length, repr where it does not
        s = make_scenario()
        labels = [c.label for c in sweep_asymmetric(s, [0.0], [0.0, 1.0, 3.0, 2.5e-3]).curves]
        assert labels == ["l_bc=0km", "l_bc=1km", "l_bc=3km", "l_bc=0.0025km"]
        lengths = [1.0, 1.0000001, 1.0000002, 1234.567, 1234.568]
        labels = [c.label for c in sweep_asymmetric(s, [0.0], lengths).curves]
        assert labels[:3] == ["l_bc=1km", "l_bc=1.0000001km", "l_bc=1.0000002km"]
        assert len(set(labels)) == len(lengths)

    def test_points_are_the_secret_key_rates(self, rng):
        # each point is, field by field, the key rate of the scenario at its lengths
        axis = np.linspace(0.0, 10.0, 11)
        for s in (make_scenario(eta_d=0.9, v_el=0.01, beta=0.95), random_scenario(rng)):
            pairs = [(l, l) for l in axis.tolist()]
            (sym,) = sweep_symmetric(s, axis).curves
            curves = sweep_asymmetric(s, axis, [0.0, 1.0, 3.0]).curves
            pairs += [(l, l_bc) for l_bc in (0.0, 1.0, 3.0) for l in axis.tolist()]
            points = sym.points + tuple(p for c in curves for p in c.points)
            assert len(points) == len(pairs)
            for point, (l_ac, l_bc) in zip(points, pairs):
                expected = secret_key_rate(s.with_lengths(l_ac, l_bc))
                for f in fields(KeyRatePoint):
                    assert getattr(point, f.name) == getattr(expected, f.name), f.name

    def test_rejects_bad_grid(self):
        s = make_scenario()
        for grid in ([], [-1.0], (0.0, -0.5), np.array([])):
            with pytest.raises(ValueError) as exc:
                sweep_symmetric(s, grid)
            assert str(exc.value) == "grid must be nonempty and nonnegative"
        for l_ac, l_bc in (([0.0, 1.0], []), ([], [0.0]), ([-1.0], [0.0]), ([0.0], -1.0),
                           (np.array([0.0]), np.array([0.0, -2.0]))):
            with pytest.raises(ValueError) as exc:
                sweep_asymmetric(s, l_ac, l_bc)
            assert str(exc.value) == "grids must be nonempty and nonnegative"
        # a NaN length passes the sign check, and its leg rejects it
        for call in (lambda: sweep_symmetric(s, [0.0, math.nan]),
                     lambda: sweep_asymmetric(s, [math.nan], [0.0]),
                     lambda: sweep_asymmetric(s, [0.0], math.nan)):
            with pytest.raises(ValueError, match="must be finite"):
                call()

    def test_any_float_sequence(self):
        """A list, a tuple or an array grid, and one or several second legs,
        give the same curves; the axis is a tuple of floats."""
        s = make_scenario(eps=0.01)
        grid = [0.0, 0.25, 1.5, 3.0, 7.75]
        (ref_sym,) = sweep_symmetric(s, grid).curves
        (ref_asym,) = sweep_asymmetric(s, grid, [1.0]).curves
        assert ref_sym.axis_km == tuple(2.0 * l for l in grid) and ref_asym.axis_km == tuple(grid)
        for curve in (ref_sym, ref_asym):
            assert all(type(x) is float for x in curve.axis_km)
        for make in (list, tuple, np.array):
            (sym,) = sweep_symmetric(s, make(grid)).curves
            assert (sym.axis_km, sym.points) == (ref_sym.axis_km, ref_sym.points)
            for l_bc in (1.0, 1, [1.0], (1,), np.float64(1.0), np.array(1.0), np.array([1.0])):
                (asym,) = sweep_asymmetric(s, make(grid), l_bc).curves
                assert (asym.axis_km, asym.points, asym.label) == (
                    ref_asym.axis_km, ref_asym.points, ref_asym.label)


class TestDetectionSchemeOptimizer:
    def test_analytic_k_is_near_grid_optimum(self):
        s = make_scenario(10.0, 0.0, beta=0.95)
        k_star, rate_star = optimize_k_detection_scheme(s)
        assert k_star == pytest.approx(analytic_k(s), rel=0.02)
        # the grid optimum dominates the analytic point up to grid resolution
        rate_analytic = float(key_rate_vs_k(s, [analytic_k(s)])[0])
        assert rate_star >= rate_analytic - 1e-9

    def test_scan_matches_secret_key_rate(self, rng):
        # the grid kernel over the k array and the scalar kernel at each
        # gain, through the one (a, b, c) assembly
        for s in (make_scenario(10.0, 3.0, beta=0.95, eta_d=0.95, v_el=0.01),
                  *(random_scenario(rng) for _ in range(3))):
            ks = analytic_k(s) * np.logspace(-1, 1, 300)
            rates = key_rate_vs_k(s, ks)
            assert rates.shape == ks.shape
            for k, rate in zip(ks.tolist(), rates.tolist()):
                fixed = replace(s, gain_mode="fixed", gain=gain_from_k(k, s.v_b))
                assert rate == pytest.approx(secret_key_rate(fixed).k, abs=1e-12)

    def test_grid_rate_matches_block_path(self):
        s = make_scenario(10.0, 0.0, beta=0.95)
        k0 = analytic_k(s)
        rate = float(key_rate_vs_k(s, [k0])[0])
        assert rate == pytest.approx(secret_key_rate(s).k, abs=1e-10)

    def test_default_grid_spans_the_optimum(self):
        s = make_scenario(10.0, 0.0)
        grid = default_k_grid(s)
        assert grid[0] < analytic_k(s) < grid[-1]

    def test_default_grid_is_k0_times_the_span(self, rng):
        for s in (make_scenario(10.0, 0.0), random_scenario(rng)):
            unit = np.logspace(np.log10(K_GRID_SPAN[0]), np.log10(K_GRID_SPAN[1]), K_GRID_POINTS)
            assert np.array_equal(default_k_grid(s), analytic_k(s) * unit)

    def test_optimum_is_the_argmax_of_the_default_scan(self, rng):
        for s in (make_scenario(10.0, 0.0, beta=0.95), random_scenario(rng)):
            grid = default_k_grid(s)
            rates = key_rate_vs_k(s, grid)
            i = int(np.argmax(rates))
            assert optimize_k_detection_scheme(s) == (float(grid[i]), float(rates[i]))

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            key_rate_vs_k(make_scenario(), [0.0])

    @pytest.mark.parametrize("bad", [[math.nan], [1.0, math.nan], [math.inf], [-math.inf]])
    def test_rejects_non_finite_k(self, bad):
        # rejected before any arithmetic: no NaN result and no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite and positive"):
                key_rate_vs_k(make_scenario(), bad)

    @pytest.mark.filterwarnings("error")
    def test_k_whose_key_rate_overflows_is_named(self):
        # k = 1e100 overflows the kernels and k = 1e300 the equivalent
        # channel: once [nan, nan] and seven RuntimeWarnings
        s = Scenario(10.0, 10.0, ChannelParams(1.0), ChannelParams(1.0))
        with pytest.raises(ValueError, match=r"k = 1e\+100 is not finite"):
            key_rate_vs_k(s, [1e100, 1e300])
        with pytest.raises(ValueError, match=r"k = 1e\+300 is not finite"):
            key_rate_vs_k(s, [1.0, 1e300])

    def test_scaled_grid_invariance(self):
        # evaluating on a rescaled grid shifts the argmax, not the maximum
        s = make_scenario(10.0, 0.0, beta=0.95)
        grid = analytic_k(s) * np.logspace(-1.0, 1.0, 2001)
        r1 = key_rate_vs_k(s, grid)
        r2 = key_rate_vs_k(s, grid * 1.25)
        assert abs(float(np.max(r1)) - float(np.max(r2))) < 1e-4


class TestDetectorThreshold:
    def test_threshold_is_sharp(self):
        s = make_scenario()
        eta = min_detector_efficiency(s)
        from cvmdi.protocol import DetectorParams
        above = replace(s, detector=DetectorParams(eta + 1e-4, 0.0))
        below = replace(s, detector=DetectorParams(eta - 1e-4, 0.0))
        assert key_rate_at(above, 0.0, 0.0) > 0.0
        assert key_rate_at(below, 0.0, 0.0) <= 0.0


@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=2, unique=True))
def test_property_curve_labels_read_back_as_their_lengths(lengths):
    curves = sweep_asymmetric(make_scenario(), [0.0], lengths).curves
    assert [float(c.label.removeprefix("l_bc=").removesuffix("km")) for c in curves] == lengths
