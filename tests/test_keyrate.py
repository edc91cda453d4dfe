"""Key-rate formulas, distance sweeps, and the detection scheme's k maximum."""

import math
import statistics
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvmdi import kernels
from cvmdi.gaussian import block_cm
from cvmdi.keyrate import (
    BISECT_MAX_ITER,
    BISECT_TOL_KM,
    DETECTOR_EFFICIENCY_TOL,
    _evaluate,
    K_GRID_SPAN,
    K_XTOL,
    KeyRatePoint,
    analytic_k,
    holevo_bound_reverse_generic,
    key_rate_at,
    _maximize,
    _root,
    max_distance_asymmetric,
    max_distance_detection_scheme,
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
    DetectorParams,
    Scenario,
    compose_eb_simulated,
    gain_free_terms,
    optimal_gain,
)
from conftest import gain_from_k, make_scenario, random_scenario, reduced_block


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
            a, b, c = reduced_block(s, g)
            assert kernels.block_holevo_reverse(a, b, c) == pytest.approx(
                holevo_bound_reverse_generic(block_cm(a, b, c)), abs=1e-10)

    def test_pure_loss_has_positive_bound(self):
        s = make_scenario(20.0, 0.0, eps=0.0)
        assert kernels.block_holevo_reverse(*reduced_block(s, s.resolved_gain())) > 0.0


class TestSecretKeyRate:
    def test_decomposition(self):
        s = make_scenario(2.0, 2.0)
        pt = secret_key_rate(s)
        assert pt.k == pytest.approx(s.beta_r * pt.i_ab - pt.chi_be)
        assert pt.scenario.gain_mode == "optimal"
        assert pt.positive
        # the point is the one its constructor builds from the same fields
        built = KeyRatePoint(*(getattr(pt, f.name) for f in fields(KeyRatePoint)))
        assert pt == built and hash(pt) == hash(built) and repr(pt) == repr(built)
        with pytest.raises(FrozenInstanceError):
            pt.k = 0.0

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
            a, b, c = reduced_block(s, g)
            assert np.allclose(block_cm(a, b, c).entries, compose_eb_simulated(s, g).entries,
                               rtol=0.0, atol=1e-12)


class TestDistanceSearch:
    # eta_d = 0.852 leaves both ranges under 1 km, where the root search
    # starts from the first doubling bracket [0, 1] km
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
    def test_maximum_is_near_analytic_k(self):
        s = make_scenario(10.0, 0.0, beta=0.95)
        k_star, rate_star = optimize_k_detection_scheme(s)
        assert k_star == pytest.approx(analytic_k(s), rel=0.02)
        # the search starts at k0: no slack for a grid's resolution
        assert rate_star >= secret_key_rate(s).k

    @pytest.mark.parametrize("factor, end", [(1.0, None), (20.0, 0), (0.05, 1)],
                             ids=["optimal_gain", "peak_below_span", "peak_above_span"])
    def test_maximum_stays_in_k0_times_the_span(self, factor, end):
        # a fixed gain far from the optimal one puts the peak of K beyond an
        # end of the span: the maximum is then that end (within K_XTOL)
        s = make_scenario(10.0, 0.0)
        s = replace(s, gain_mode="fixed", gain=factor * optimal_gain(s))
        k, rate = optimize_k_detection_scheme(s)
        lo, hi = (analytic_k(s) * f for f in K_GRID_SPAN)
        assert lo * (1.0 - 1e-12) <= k <= hi * (1.0 + 1e-12)
        if end is not None:
            assert k == pytest.approx((lo, hi)[end], rel=1e-7)
        assert rate >= secret_key_rate(s).k

    def test_maximum_is_the_key_rate_at_its_k(self, rng):
        # the returned K is the scalar key rate at the returned k, and no
        # neighbour of k is higher beyond rounding
        for s in (make_scenario(10.0, 0.0, beta=0.95), random_scenario(rng)):
            k, rate = optimize_k_detection_scheme(s)

            def at(kk):
                return secret_key_rate(replace(s, gain_mode="fixed",
                                               gain=gain_from_k(kk, s.v_b))).k

            assert rate == pytest.approx(at(k), abs=1e-12)
            for step in (1e-6, 1e-3):
                assert at(k * (1.0 - step)) <= rate + 1e-12
                assert at(k * (1.0 + step)) <= rate + 1e-12

    @pytest.mark.parametrize("f, peak", [
        (lambda u: -(u - 0.3) ** 2, 0.3),
        (lambda u: -(u + 1.7) ** 2, -1.7),
        (lambda u: -((u - 1e-3) / 1e-4) ** 2, 1e-3),  # narrower than the first step
        (lambda u: -u * u, 0.0),
        (lambda u: -(u - 2.2) ** 2, 2.2),
        (lambda u: u, math.log(10.0)),  # monotone: the maximum is an end
        (lambda u: -(u + 3.0) ** 2, math.log(0.1)),  # the peak lies beyond an end
    ], ids=["interior", "interior_below", "narrow", "at_zero", "near_end", "monotone",
            "beyond_end"])
    def test_maximize_finds_known_peaks(self, f, peak):
        calls = []
        x, fx = _maximize(lambda u: calls.append(u) or f(u), math.log(0.1), math.log(10.0))
        assert abs(x - peak) <= 2.0 * K_XTOL and fx == f(x)
        assert len(calls) <= 30

    def test_about_a_dozen_evaluations_per_maximum(self, rng, monkeypatch):
        calls = []
        kernel = kernels.block_mutual_information
        monkeypatch.setattr(kernels, "block_mutual_information",
                            lambda *args: calls.append(1) or kernel(*args))
        counts = []
        for _ in range(200):
            calls.clear()
            optimize_k_detection_scheme(random_scenario(rng))
            counts.append(len(calls))
        # both ends, k0 and at least two more points go through the kernel
        assert min(counts) >= 5
        assert statistics.median(counts) <= 14 and max(counts) <= 30

    @pytest.mark.parametrize("beta", [1.0, 0.95])
    def test_detection_scheme_reaches_the_one_sided_range(self, beta):
        # K maximised over k is at least K at k0 point by point, so its
        # endpoint is at least the one-sided range at L_BC = 0
        s = make_scenario(beta=beta)
        assert max_distance_detection_scheme(s) >= max_distance_asymmetric(s, 0.0) - BISECT_TOL_KM


# At V = 6.1e4, 0.5 km and beta = 0.95 the 400-point grid's maximum was
# K = -2.658, while K at k0 is +0.514: the peak is narrower than the grid step
@settings(max_examples=150, deadline=None)
@given(v_exp=st.floats(0.7, 5.0), l_ac=st.floats(0.0, 50.0), l_bc=st.floats(0.0, 10.0),
       eps=st.floats(0.0, 0.05), beta=st.floats(0.9, 1.0), eta_d=st.floats(0.5, 1.0),
       v_el=st.floats(0.0, 0.1), gain_factor=st.none() | st.floats(0.2, 5.0))
@example(v_exp=math.log10(6.1e4), l_ac=0.5, l_bc=0.0, eps=0.002, beta=0.95, eta_d=0.9458,
         v_el=0.0, gain_factor=None)
def test_property_k_maximum_dominates_k0_and_the_grid(v_exp, l_ac, l_bc, eps, beta, eta_d,
                                                       v_el, gain_factor):
    s = make_scenario(l_ac, l_bc, v=10.0 ** v_exp, eps=eps, beta=beta, eta_d=eta_d, v_el=v_el)
    if gain_factor is not None:
        s = replace(s, gain_mode="fixed", gain=gain_factor * optimal_gain(s))
    _, rate = optimize_k_detection_scheme(s)
    assert rate >= secret_key_rate(s).k
    grid = analytic_k(s) * np.logspace(np.log10(K_GRID_SPAN[0]), np.log10(K_GRID_SPAN[1]), 400)
    on_grid = max(secret_key_rate(replace(s, gain_mode="fixed", gain=gain_from_k(k, s.v_b))).k
                  for k in grid.tolist())
    assert rate >= on_grid - 1e-12 * max(1.0, abs(rate))


def test_range_search_stops_before_a_leg_whose_transmittance_underflows():
    # at 10 dB/km and a 16 km second leg K is still positive at 256 km (where
    # the kernels give chi_BE < 0), and a 512 km leg underflows to
    # transmittance 0: the range is inf, as at the search cap
    s = Scenario(40.0, 40.0, ChannelParams(0.0, 10.0, 0.002), ChannelParams(0.0, 10.0, 0.002))
    assert key_rate_at(s, 256.0, 16.0) > 0.0
    assert max_distance_asymmetric(s, 16.0) == math.inf


def _fine_root(f, lo: float, hi: float) -> float:
    """Bisection of f from lo (f > 0) to hi (f <= 0) down to adjacent floats."""
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if f(mid) > 0.0 else (lo, mid)
    return mid


class TestRoot:
    # each falls from f > 0 to f <= 0 at 0.3 as x rises: smooth, with a triple
    # root, steep, exactly 0 past the root, and a step that no interpolation fits
    FALLING = {
        "line": lambda x: 0.3 - x,
        "cubic": lambda x: (0.3 - x) ** 3,
        "exponential": lambda x: math.expm1(40.0 * (0.3 - x)),
        "clamped": lambda x: max(0.3 - x, 0.0),
        "step": lambda x: 1.0 if x < 0.3 else -1.0,
    }

    @staticmethod
    def _probed(f):
        probes = []
        return probes, lambda x: probes.append((x, f(x))) or probes[-1][1]

    @pytest.mark.parametrize("rising", [False, True])
    @pytest.mark.parametrize("positive_first", [True, False])
    @pytest.mark.parametrize("name", FALLING)
    def test_final_bracket_holds_the_sign_change(self, name, positive_first, rising):
        fall = self.FALLING[name]
        # rising: the sign change at 0.3 from the other side, as eta_min's rate
        f = (lambda x: fall(0.6 - x)) if rising else fall
        tol = 1e-6
        ends = [(0.0, f(0.0)), (1.0, f(1.0))]
        if (ends[0][1] > 0.0) != positive_first:
            ends.reverse()
        probes, probe = self._probed(f)
        x = _root(probe, *ends[0], *ends[1], tol)
        assert abs(x - 0.3) <= 0.5 * tol
        assert len(probes) <= BISECT_MAX_ITER and all(0.0 < p < 1.0 for p, _ in probes)
        # x is the midpoint of two evaluated points at most tol apart, f > 0 at
        # one and f <= 0 at the other
        points = ends + probes
        assert any(x == 0.5 * (p + q) and abs(p - q) <= tol
                   for p, fp in points if fp > 0.0 for q, fq in points if fq <= 0.0)

    @pytest.mark.parametrize("name", ["exponential", "step"])
    def test_stops_after_bisect_max_iter_evaluations(self, name):
        # at tol = 0 no bracket is narrow enough
        f = self.FALLING[name]
        probes, probe = self._probed(f)
        x = _root(probe, 0.0, f(0.0), 1.0, f(1.0), 0.0)
        assert len(probes) == BISECT_MAX_ITER
        assert abs(x - 0.3) <= 1e-15

    @pytest.mark.parametrize("params", [{}, dict(beta=0.95, eta_d=0.97, v_el=0.001),
                                        dict(v=1e5, eps=0.005)])
    def test_searches_agree_with_a_fine_bisection_of_the_key_rate(self, params):
        s = make_scenario(**params)
        for l_bc in (0.0, 1.0, 3.0):
            def rate(l):
                return key_rate_at(s, l, l_bc)
            hi = 1.0
            while rate(hi) > 0.0:
                hi *= 2.0
            found = max_distance_asymmetric(s, l_bc)
            assert abs(found - _fine_root(rate, 0.0, hi)) <= 0.5 * BISECT_TOL_KM, l_bc
        leg = _fine_root(lambda l: key_rate_at(s, l, l), 0.0, 64.0)
        assert abs(max_total_distance_symmetric(s) - 2.0 * leg) <= BISECT_TOL_KM

        def eta_rate(eta):
            return key_rate_at(replace(s, detector=DetectorParams(eta, s.detector.electronic_noise)),
                               0.0, 0.0)
        assert abs(min_detector_efficiency(s) - _fine_root(eta_rate, 0.999999, 0.2)) \
            <= 0.5 * DETECTOR_EFFICIENCY_TOL


class TestDetectorThreshold:
    def test_threshold_is_sharp(self):
        s = make_scenario()
        eta = min_detector_efficiency(s)
        above = replace(s, detector=DetectorParams(eta + 1e-4, 0.0))
        below = replace(s, detector=DetectorParams(eta - 1e-4, 0.0))
        assert key_rate_at(above, 0.0, 0.0) > 0.0
        assert key_rate_at(below, 0.0, 0.0) <= 0.0


@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=2, unique=True))
def test_property_curve_labels_read_back_as_their_lengths(lengths):
    curves = sweep_asymmetric(make_scenario(), [0.0], lengths).curves
    assert [float(c.label.removeprefix("l_bc=").removesuffix("km")) for c in curves] == lengths


# The k maximum's evaluation reuses the scenario's gain-free terms, and a
# search's probe is a point; each must give the float of the full point path.
@settings(max_examples=200, deadline=None)
@given(v_exp=st.floats(0.1, 5.0), l_ac=st.floats(0.0, 300.0), l_bc=st.floats(0.0, 300.0),
       eps=st.floats(0.0, 0.05), beta=st.floats(0.9, 1.0), eta_d=st.floats(0.5, 1.0),
       v_el=st.floats(0.0, 0.1), gain_factor=st.none() | st.floats(0.2, 5.0),
       k_factor=st.floats(0.1, 10.0))
def test_property_probes_are_the_point_path_bit_for_bit(v_exp, l_ac, l_bc, eps, beta, eta_d,
                                                        v_el, gain_factor, k_factor):
    s = make_scenario(1.0, 2.0, v=10.0 ** v_exp, eps=eps, beta=beta, eta_d=eta_d, v_el=v_el)
    if gain_factor is not None:
        s = replace(s, gain_mode="fixed", gain=gain_factor * optimal_gain(s))
    assert key_rate_at(s, l_ac, l_bc) == secret_key_rate(s.with_lengths(l_ac, l_bc)).k
    at = s.with_lengths(l_ac, l_bc)
    g = k_factor * at.resolved_gain()
    point = secret_key_rate(replace(at, gain_mode="fixed", gain=g))
    assert _evaluate(at, gain_free_terms(at), g) == (point.i_ab, point.chi_be, point.k)


def _count_kernel_evaluations(monkeypatch) -> dict:
    """Replace each function of `kernels` with one that counts its calls from
    outside the module, by name; calls a kernel makes to another are not
    counted."""
    counts, depth = {}, [0]

    def counting(name, fn):
        def counted(*args):
            if not depth[0]:
                counts[name] = counts.get(name, 0) + 1
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return counted

    for name in ("g_entropy", "block_symplectic_eigenvalues", "block_mutual_information",
                 "block_holevo_reverse"):
        monkeypatch.setattr(kernels, name, counting(name, getattr(kernels, name)))
    return counts


SEARCH_SCENARIOS = {
    "default": {},
    "detector": dict(beta=0.95, eta_d=0.97, v_el=0.001),
    "fixed_gain": dict(v=1000.0, eps=0.005, beta=0.98, eta_d=0.95, gain_mode="fixed", gain=1.41),
}
# (result, kernel evaluations) of each search since 0.21.0, where `_root` is
# Brent's zeroin; a probe and a k evaluation are each one
# block_mutual_information and one block_holevo_reverse call
SEARCH_EVALUATIONS = {
    "default": {"symmetric": (7.059028781989767, 7), "asymmetric_0": (88.82175358744557, 15),
                "asymmetric_1": (20.164481899501297, 11),
                "asymmetric_3": (5.2541520573171105, 9),
                "detection_scheme": (88.82177296451981, 186),
                "detector": (0.8500106114987699, 9)},
    "detector": {"symmetric": (4.439931603199277, 7), "asymmetric_0": (15.632921545081373, 9),
                 "asymmetric_1": (6.937333984788413, 8), "asymmetric_3": (0.5093804744231388, 5),
                 "detection_scheme": (15.652493883346153, 100),
                 "detector": (0.8757461395307271, 9)},
    "fixed_gain": {"symmetric": (0.9153637118680823, 5), "asymmetric_0": (11.185731612621748, 10),
                   "asymmetric_1": (0.0, 1), "asymmetric_3": (0.0, 1),
                   "detection_scheme": (11.609405424963285, 126),
                   "detector": (0.864111271876892, 9)},
}
# the kernel evaluations of each search at 0.20.0, by bisection
BISECTION_EVALUATIONS = {
    "default": {"symmetric": 12, "asymmetric_0": 22, "asymmetric_1": 18, "asymmetric_3": 14,
                "detection_scheme": 266, "detector": 22},
    "detector": {"symmetric": 12, "asymmetric_0": 16, "asymmetric_1": 14, "asymmetric_3": 9,
                 "detection_scheme": 187, "detector": 22},
    "fixed_gain": {"symmetric": 9, "asymmetric_0": 16, "asymmetric_1": 1, "asymmetric_3": 1,
                   "detection_scheme": 203, "detector": 22},
}


@pytest.mark.parametrize("name", SEARCH_SCENARIOS)
def test_searches_make_the_pinned_kernel_evaluations(name, monkeypatch):
    # equal evaluation counts and equal results: the searches probe the same
    # points as before; each probe and each k evaluation is one
    # block_mutual_information and one block_holevo_reverse call, and nothing
    # else calls a kernel
    s = make_scenario(**SEARCH_SCENARIOS[name])
    counts = _count_kernel_evaluations(monkeypatch)
    point = ("block_holevo_reverse", "block_mutual_information")
    searches = {
        "symmetric": (lambda: max_total_distance_symmetric(s), point),
        "asymmetric_0": (lambda: max_distance_asymmetric(s, 0.0), point),
        "asymmetric_1": (lambda: max_distance_asymmetric(s, 1.0), point),
        "asymmetric_3": (lambda: max_distance_asymmetric(s, 3.0), point),
        "detection_scheme": (lambda: max_distance_detection_scheme(s), point),
        "detector": (lambda: min_detector_efficiency(s), point),
    }
    found = {}
    for search, (run, kernels_called) in searches.items():
        counts.clear()
        result = run()
        assert sorted(counts) == list(kernels_called), search
        assert len(set(counts.values())) == 1, search  # one call of each per probe
        found[search] = (result, counts[kernels_called[0]])
    assert found == SEARCH_EVALUATIONS[name]
    assert all(found[search][1] <= count for search, count in BISECTION_EVALUATIONS[name].items())
