"""Key-rate formulas, distance sweeps, and the detection scheme's k maximum."""

import math
import statistics
from decimal import Decimal, localcontext
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvmdi import keyrate, kernels, protocol
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
    TransmittanceUnderflow,
    _at_agreed_precision,
    channel_at,
    compose_eb_simulated,
    gain_free_terms,
    optimal_gain,
)
from conftest import block_channel, block_matrix, composition_deviation, exact_optimal_gain, \
    gain_from_k, make_scenario, random_scenario, reduced_block, reduced_channel, \
    reference_key_rate


class TestMutualInformation:
    def test_known_value(self):
        # V_A = 40 through a lossless, noiseless channel: the maximally
        # correlated two-mode block a = b = 40, c = sqrt(1599)
        a = b = 40.0
        c = math.sqrt(a * a - 1.0)
        expected = math.log2((a + 1.0) / (a + 1.0 - c * c / (b + 1.0)))
        assert kernels.block_mutual_information(40.0, 1.0, 0.0) == pytest.approx(expected)
        assert expected == pytest.approx(math.log2(41.0 / (41.0 - 1599.0 / 41.0)))

    def test_uncorrelated_is_zero(self):
        assert kernels.block_mutual_information(5.0, 0.0, 0.0) == 0.0

    def test_matches_generic_determinant_form(self, rng):
        for _ in range(200):
            a, b = rng.uniform(1.0, 80.0, 2)
            c = rng.uniform(0.0, 0.99) * math.sqrt((a * a - 1.0) * (b * b - 1.0)) ** 0.5
            assert kernels.block_mutual_information(*block_channel(a, b, c)) == pytest.approx(
                mutual_information_generic(block_matrix(a, b, c)), abs=1e-10)


class TestHolevoBound:
    def test_matches_generic_entropy_path(self, rng):
        """Closed-form spectrum vs explicit conditioning, to 1e-10."""
        for _ in range(100):
            s = random_scenario(rng)
            g = s.resolved_gain()
            assert kernels.block_holevo_reverse(s.v_a, *reduced_channel(s, g)) == pytest.approx(
                holevo_bound_reverse_generic(block_matrix(*reduced_block(s, g))), abs=1e-10)

    def test_pure_loss_has_positive_bound(self):
        s = make_scenario(20.0, 0.0, eps=0.0)
        assert kernels.block_holevo_reverse(s.v_a, *reduced_channel(s, s.resolved_gain())) > 0.0


class TestReference:
    """The exact reference: `compose_eb_simulated` and the `*_generic` pair."""

    @pytest.mark.parametrize("l_ac, l_bc, v_a, exact", [
        (0.0, 0.0, 40.0, 2.4691404716220577),
        (800.0, 800.0, 40.0, -54.521394773330925),
        (10.0, 1.0, 1e12, 0.3003814066517156),
        (0.0, 0.0, 1e8, 2.9043580338845074),
        (0.0, 0.0, 1e20, 2.9043582511839596),
        (5000.0, 5000.0, 40.0, -333.56335474386935),
    ])
    def test_key_rates_of_400_digits(self, monkeypatch, l_ac, l_bc, v_a, exact):
        """K at 400 digits, evaluated independently: before its two terms are
        rounded to floats, K is within 2 ulps; after, within their rounding."""
        s = Scenario(v_a, 40.0, ChannelParams(l_ac, 0.2, 0.002), ChannelParams(l_bc, 0.2, 0.002))
        terms = []

        def recorded(at):
            terms.append(_at_agreed_precision(at)[0])
            return (terms[-1],)

        cm = compose_eb_simulated(s, s.resolved_gain())
        monkeypatch.setattr(keyrate, "_at_agreed_precision", recorded)
        i_ab, chi = mutual_information_generic(cm), holevo_bound_reverse_generic(cm)
        with localcontext() as ctx:
            ctx.prec = 60
            rate = float(terms[0] - terms[1])
        assert abs(rate - exact) <= 2 * math.ulp(exact)
        assert abs(i_ab - chi - exact) <= 2 * math.ulp(exact) + math.ulp(i_ab) + math.ulp(chi)

    def test_ideal_curve_at_700_km(self):
        # fig5b's ideal L_BC = 0 curve (V = 1e5, no excess noise) is still positive
        s = make_scenario(700.0, 0.0, v=1e5, eps=0.0)
        cm = compose_eb_simulated(s, s.resolved_gain())
        rate = mutual_information_generic(cm) - holevo_bound_reverse_generic(cm)
        assert rate == pytest.approx(7.2132e-15, rel=1e-4)

    def test_precision_rule(self, monkeypatch):
        """120 and 240 digits where they agree to 1e-40; 600 where a
        cancellation takes more than 80 of 120 digits (10,000 km of fiber)."""
        calls = []

        def at(digits):
            calls.append(digits)
            return (Decimal(10) ** -digits,)

        assert _at_agreed_precision(at) == (Decimal(10) ** -240,)
        assert calls == [120, 240]
        calls.clear()
        assert _at_agreed_precision(lambda digits: at(digits) if digits == 600
                                    else (Decimal(digits),)) == (Decimal(10) ** -600,)
        assert calls == [600]

        def digits_used(s):
            used = []

            def rule(at):
                def recorded(digits):
                    used.append(digits)
                    return at(digits)
                return _at_agreed_precision(recorded)

            for module in (protocol, keyrate):
                monkeypatch.setattr(module, "_at_agreed_precision", rule)
            cm = compose_eb_simulated(s, s.resolved_gain())
            mutual_information_generic(cm)
            holevo_bound_reverse_generic(cm)
            return used

        assert digits_used(make_scenario()) == [120, 240] * 3
        assert 600 in digits_used(make_scenario(5000.0, 5000.0))


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
            assert composition_deviation(s, s.resolved_gain()) <= 1e-12


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
    # on a pure-loss channel at L_BC = 0, K > 0 at every leg whose
    # transmittance is positive: at 10 dB/km still at 256 km, and a 512 km leg
    # underflows to transmittance 0, so the range is inf, as at the search cap
    s = Scenario(40.0, 40.0, ChannelParams(0.0, 10.0, 0.0), ChannelParams(0.0, 10.0, 0.0))
    assert key_rate_at(s, 256.0, 0.0) > 0.0
    assert max_distance_asymmetric(s, 0.0) == math.inf


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

    for name in ("g_entropy", "symplectic_excesses", "block_mutual_information",
                 "block_holevo_reverse"):
        monkeypatch.setattr(kernels, name, counting(name, getattr(kernels, name)))
    return counts


SEARCH_SCENARIOS = {
    "default": {},
    "detector": dict(beta=0.95, eta_d=0.97, v_el=0.001),
    "fixed_gain": dict(v=1000.0, eps=0.005, beta=0.98, eta_d=0.95, gain_mode="fixed", gain=1.41),
}
# (result, kernel evaluations) of each search since 0.23.0, where the kernels
# take (V_A, T, eps') in closed form; a probe and a k evaluation are each one
# block_mutual_information and one block_holevo_reverse call. Against 0.21.0
# (Brent's zeroin on the cancelling kernels) the detection scheme's range takes
# 186 -> 169 (default) and 126 -> 114 (fixed gain) evaluations and 100 -> 101
# (detector): the last Brent steps of each k maximum, at K_XTOL in ln k, are
# set by K's last bits; every other count is unchanged
SEARCH_EVALUATIONS = {
    "default": {"symmetric": (7.059028781989742, 7), "asymmetric_0": (88.82175358726515, 15),
                "asymmetric_1": (20.164481899501993, 11),
                "asymmetric_3": (5.25415205731721, 9),
                "detection_scheme": (88.82177296439953, 169),
                "detector": (0.850010611498771, 9)},
    "detector": {"symmetric": (4.439931603199126, 7), "asymmetric_0": (15.632921545082485, 9),
                 "asymmetric_1": (6.937333984788709, 8), "asymmetric_3": (0.5093804744228767, 5),
                 "detection_scheme": (15.65249388334544, 101),
                 "detector": (0.8757461395307271, 9)},
    "fixed_gain": {"symmetric": (0.9153637118678879, 5), "asymmetric_0": (11.185731612468189, 10),
                   "asymmetric_1": (0.0, 1), "asymmetric_3": (0.0, 1),
                   "detection_scheme": (11.60940542483035, 114),
                   "detector": (0.8641112718769594, 9)},
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


def test_leg_b_terms_are_built_once_per_curve_and_search(monkeypatch):
    # the terms of the reduction that the second leg fixes (`optimal_gain` is
    # called once for each, by `protocol._leg_b_terms` alone) are built once
    # per curve of a sweep, its range search included, and once per one-leg
    # search; each point and probe still evaluates each kernel once
    built = []
    optimal = protocol.optimal_gain
    monkeypatch.setattr(protocol, "optimal_gain", lambda s: built.append(s) or optimal(s))
    counts = _count_kernel_evaluations(monkeypatch)
    pinned = SEARCH_EVALUATIONS["default"]
    sweep = sweep_asymmetric(make_scenario(), np.linspace(0.0, 10.0, 51), (0.0, 1.0, 3.0))
    assert len(built) == 3
    assert [c.max_distance_km for c in sweep.curves] == [
        pinned[f"asymmetric_{l}"][0] for l in (0, 1, 3)]
    probes = sum(pinned[f"asymmetric_{l}"][1] for l in (0, 1, 3))
    assert counts == {"block_mutual_information": 3 * 51 + probes,
                      "block_holevo_reverse": 3 * 51 + probes}
    for search, name in ((lambda s: max_distance_asymmetric(s, 1.0), "asymmetric_1"),
                         (lambda s: max_distance_asymmetric(s, 3.0), "asymmetric_3"),
                         (max_distance_detection_scheme, "detection_scheme")):
        built.clear()
        counts.clear()
        assert search(make_scenario()) == pinned[name][0]
        assert len(built) == 1, name
        assert counts == dict.fromkeys(("block_mutual_information", "block_holevo_reverse"),
                                       pinned[name][1]), name


# The underflow limit of a leg at make_scenario's 0.2 dB/km: 10^(-0.02 L) is
# the smallest subnormal, 5e-324, at L = 16165.3 km
UNDERFLOW_KM = 16165.0
# the invariants' tolerance: nu >= 1 - INVARIANT_TOL and chi_BE >= -INVARIANT_TOL
INVARIANT_TOL = 1e-12


# Every symplectic eigenvalue of a physical state is at least 1, nu3 of Alice's
# mode given Bob's heterodyne included, and chi_BE is not negative (Weedbrook
# et al., Rev. Mod. Phys. 84, 621 (2012), Sec. II), whatever the parameters. So
# a point that breaks one is a numerical defect, found with no reference:
# 0.22.0's kernels of (a, b, c) gave chi_BE = -14.44 at V_A = 1e20 (K = 66.88),
# and nu2 = 0.0 on long legs.
@settings(max_examples=300, deadline=None)
@given(v_exp=st.floats(0.01, 20.0), v_b_exp=st.floats(0.01, 5.0),
       l_ac=st.floats(0.0, 10.0) | st.floats(0.0, UNDERFLOW_KM),
       l_bc=st.floats(0.0, 10.0) | st.floats(0.0, UNDERFLOW_KM), eps=st.floats(0.0, 0.1),
       eta_d=st.floats(0.5, 1.0), v_el=st.floats(0.0, 0.1),
       gain_factor=st.none() | st.floats(0.1, 10.0))
@example(v_exp=20.0, v_b_exp=math.log10(40.0), l_ac=0.0, l_bc=0.0, eps=0.002, eta_d=1.0,
         v_el=0.0, gain_factor=None)
@example(v_exp=math.log10(40.0), v_b_exp=math.log10(40.0), l_ac=1000.0, l_bc=1000.0, eps=0.002,
         eta_d=1.0, v_el=0.0, gain_factor=None)
def test_property_points_are_physical(v_exp, v_b_exp, l_ac, l_bc, eps, eta_d, v_el, gain_factor):
    s = replace(make_scenario(eps=eps, eta_d=eta_d, v_el=v_el), v_a=10.0 ** v_exp,
                v_b=10.0 ** v_b_exp)
    if gain_factor is not None:
        s = replace(s, gain_mode="fixed", gain=gain_factor * optimal_gain(s))
    try:
        point = secret_key_rate(s.with_lengths(l_ac, l_bc))
    except (TransmittanceUnderflow, keyrate.KeyRateNotFinite):
        return  # no point is returned
    assert point.chi_be >= -INVARIANT_TOL
    excesses = kernels.symplectic_excesses(s.v_a, *reduced_channel(point.scenario, point.g_used))
    assert min(excesses[:3]) >= -INVARIANT_TOL / 2.0  # (nu - 1)/2 of nu1, nu2 and nu3


class TestPureLossGate:
    """The physics gate: with no excess noise, a perfect detector and L_BC = 0
    the channel is pure loss, and the heterodyne reverse-reconciliation key
    rate is positive at any distance (Weedbrook et al. 2012, CV QKD section),
    about T/(2 ln 2) at small T. At the optimal gain the reduction's eps' is
    exactly 0.0, so K > 0 at every leg below the underflow limit, and fig5b's
    ideal L_BC = 0 endpoint is inf. The reference is compared at the optimal
    gain in exact decimal arithmetic (`conftest.exact_optimal_gain`): at the
    float optimal gain the composition carries a mismatch (g_opt/g - 1)^2
    eta_b (v_b + 1)/eta_a, about 213 SNU of eps' at 1500 km, where eta_a =
    1e-30, and the reference's K there is -1.005e-26."""

    @settings(max_examples=60, deadline=None)
    @given(l_ac=st.floats(0.0, UNDERFLOW_KM), v_exp=st.floats(0.7, 5.0))
    def test_positive_up_to_the_underflow_limit(self, l_ac, v_exp):
        s = make_scenario(l_ac, 0.0, v=10.0 ** v_exp, eps=0.0)
        t, eps = channel_at(gain_free_terms(s), s.resolved_gain())
        assert eps == 0.0
        if t > 0.0:
            assert secret_key_rate(s).k > 0.0
        else:  # eta_a is subnormal and T = eta_a g^2/2 underflows: no key rate
            with pytest.raises(keyrate.KeyRateNotFinite):
                secret_key_rate(s)

    def test_fig5b_ideal_endpoint_is_inf(self):
        assert max_distance_asymmetric(make_scenario(v=1e5, eps=0.0), 0.0) == math.inf

    def test_reference_at_1500_km(self):
        s = make_scenario(1500.0, 0.0, v=1e5, eps=0.0)
        ref = reference_key_rate(s, exact_optimal_gain(s))
        assert ref == pytest.approx(7.2132347591271955e-31, rel=1e-12)
        assert reference_key_rate(s, s.resolved_gain()) == pytest.approx(-1.005e-26, rel=1e-3)
        assert secret_key_rate(s).k == pytest.approx(ref, rel=1e-12)
