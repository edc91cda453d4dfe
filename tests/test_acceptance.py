"""Acceptance gate: one test per acceptance criterion, at stated tolerances.

Each test prints a single PASS/FAIL line with the measured values before
asserting, so the full scorecard is visible in the captured output of any
failing run.
"""

import math
from dataclasses import replace

import numpy as np

from cvmdi import ChannelParams, DetectorParams
from cvmdi import montecarlo as mc
from cvmdi.keyrate import (
    analytic_k,
    holevo_bound_reverse_generic,
    max_distance_asymmetric,
    max_distance_detection_scheme,
    max_total_distance_symmetric,
    min_detector_efficiency,
    mutual_information_generic,
    secret_key_rate,
)
from cvmdi.oracle import IDENTITY_TOL, _cov_suite, _equivalence_suite
from cvmdi.protocol import (
    channel_at,
    compose_eb_simulated,
    gain_free_terms,
    k_from_gain,
    optimal_gain,
)
from conftest import block_matrix, composition_deviation, data_k_maximum, data_key_rate, \
    lo_scaling_attack, make_scenario, random_scenario, reduced_block, reduced_channel, \
    ref_asymmetric_range, \
    ref_min_detector_efficiency, ref_symmetric_range

N_MC = 1_000_000
SEED = 12345
RANGE_TOL_KM = 0.01  # keyrate.BISECT_TOL_KM, the stated accuracy of the range searches
ETA_TOL = 1e-6  # keyrate.DETECTOR_EFFICIENCY_TOL, the stated accuracy of the threshold


def report(num: int, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} criterion-{num:02d}: {detail}")


def ideal_symmetric_range_limit() -> float:
    """Total symmetric range with ideal sources in the V -> inf limit, km.

    There T -> 1 and eps' = 2(1 - eta)/eta, and K = 0 reduces to
    g(1 + eps) = log2[eps (2 + eps)] + 2 log2(e/2). Its root eps* gives
    eta* = 2/(2 + eps*) per leg, a total of 100 log10(1 + eps*/2) km at
    0.2 dB/km. Evaluated here with math alone, sharing no code with the
    key-rate reference in conftest.
    """
    def excess(e):
        x = 1.0 + e  # g(x) with x > 1
        g = (x + 1) / 2 * math.log2((x + 1) / 2) - (x - 1) / 2 * math.log2((x - 1) / 2)
        return g - math.log2(e * (2.0 + e)) - 2.0 * math.log2(math.e / 2.0)

    lo, hi = 1e-3, 10.0  # excess(lo) > 0 > excess(hi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) > 0.0 else (lo, mid)
    return 100.0 * math.log10(1.0 + lo / 2.0)


def test_criterion_01_symmetric_range():
    # The published 7 km band holds for the practical curve only. With ideal
    # sources the paper's equations give 7.63 km, so that endpoint is checked
    # against the independent reference, itself checked against the V -> inf
    # closed form.
    practical = max_total_distance_symmetric(make_scenario())
    ideal = max_total_distance_symmetric(make_scenario(v=1e5, eps=0.0))
    ref_practical = ref_symmetric_range()
    ref_ideal = ref_symmetric_range(v=1e5, eps=0.0)
    limit = ideal_symmetric_range_limit()
    checks = (abs(practical - 7.0) <= 0.5,
              abs(practical - ref_practical) <= RANGE_TOL_KM,
              abs(ideal - ref_ideal) <= RANGE_TOL_KM,
              abs(ref_ideal - limit) <= 0.005)
    report(1, all(checks),
           f"symmetric total range: practical={practical:.3f} km "
           f"(reference {ref_practical:.4f}, published 7.0 +- 0.5), "
           f"ideal={ideal:.3f} km (reference {ref_ideal:.4f} +- {RANGE_TOL_KM}, "
           f"V->inf limit {limit:.4f}; published 7.0)")
    assert abs(practical - 7.0) <= 0.5
    assert abs(practical - ref_practical) <= RANGE_TOL_KM
    assert abs(ideal - ref_ideal) <= RANGE_TOL_KM
    assert abs(ref_ideal - limit) <= 0.005


def test_criterion_02_equivalent_noise_spot_value():
    s = make_scenario(3.5, 3.5, eps=0.0)
    eps = reduced_channel(s, s.resolved_gain())[1]
    ok = abs(eps - 0.35) <= 0.01
    report(2, ok, f"eps'(3.5 km legs, noiseless fibers) = {eps:.4f} "
                  f"(expected 0.35 +- 0.01)")
    assert ok


def test_criterion_03_asymmetric_range():
    # The published 80 km is not what the paper's equations give at these
    # inputs (88.82 km), so each endpoint is checked against the independent
    # reference. The abstract's claim is checked as stated: the total range
    # is greatest with the relay next to one user.
    s = make_scenario()
    d = {l: max_distance_asymmetric(s, l) for l in (0.0, 1.0, 3.0)}
    ref = {l: ref_asymmetric_range(l) for l in d}
    symmetric = max_total_distance_symmetric(s)
    ordered = d[0.0] > d[1.0] > d[3.0]
    near_ref = all(abs(d[l] - ref[l]) <= RANGE_TOL_KM for l in d)
    relay_at_user_best = d[0.0] > symmetric
    report(3, ordered and near_ref and relay_at_user_best,
           f"asymmetric range: L_BC=0 -> {d[0.0]:.4f} km (reference {ref[0.0]:.4f} "
           f"+- {RANGE_TOL_KM}, published 80), L_BC=1 -> {d[1.0]:.4f} "
           f"(reference {ref[1.0]:.4f}), L_BC=3 -> {d[3.0]:.4f} "
           f"(reference {ref[3.0]:.4f}); strictly ordered: {ordered}; "
           f"above symmetric total {symmetric:.2f}: {relay_at_user_best}")
    assert ordered
    for l in d:
        assert abs(d[l] - ref[l]) <= RANGE_TOL_KM, l
    assert relay_at_user_best


def test_criterion_04_detection_scheme_range():
    # K maximised over k is at least K at k0, so the range is at least the
    # independent reference's one-sided range at L_BC = 0 and the same beta
    s = make_scenario(beta=0.95)
    dist = max_distance_detection_scheme(s)
    ref = ref_asymmetric_range(0.0, beta=0.95)
    in_band = abs(dist - 40.0) <= 5.0
    reaches_ref = dist >= ref - RANGE_TOL_KM
    report(4, in_band and reaches_ref,
           f"k-optimized range at beta=0.95: {dist:.4f} km (expected 40 +- 5, and at least "
           f"the one-sided reference {ref:.4f} - {RANGE_TOL_KM})")
    assert in_band
    assert reaches_ref


def test_criterion_05_detector_efficiency_threshold():
    s = make_scenario()
    eta_min = min_detector_efficiency(s)
    ref = ref_min_detector_efficiency()
    dist_09 = max_distance_asymmetric(make_scenario(eta_d=0.9), 0.0)
    ok = abs(eta_min - 0.855) <= 0.005 and dist_09 < 10.0 and abs(eta_min - ref) <= ETA_TOL
    report(5, ok, f"minimal detector efficiency = {eta_min:.8f} "
                  f"(expected 0.855 +- 0.005; reference {ref:.8f}); range at eta_D=0.9: "
                  f"{dist_09:.2f} km (expected < 10)")
    assert abs(eta_min - 0.855) <= 0.005
    assert dist_09 < 10.0
    # the band above is read off a figure; the reference is independent of cvmdi
    assert abs(eta_min - ref) <= ETA_TOL


def random_detector_scenario(rng):
    """`random_scenario` with a relay detector of its own."""
    return random_scenario(rng).with_detector(DetectorParams(rng.uniform(0.6, 1.0),
                                                             rng.uniform(0.0, 0.05)))


def test_criterion_06_dual_path_covariance_identity():
    # each scenario at its own relay detector: the reference composes it
    # physically, the reduction adds its penalty to eps'
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        s = random_detector_scenario(rng)
        worst = max(worst, composition_deviation(s, optimal_gain(s) * rng.uniform(0.5, 2.0)))
    ok = worst <= 1e-10
    report(6, ok, f"dual-path covariance identity over 1000 scenarios: "
                  f"max deviation {worst:.2e} (expected <= 1e-10)")
    assert ok


def test_criterion_07_monte_carlo_oracle():
    # the law of the sampled rows against the analytic covariance, exactly;
    # the rows themselves against the analytic (T, eps') by estimation
    s = make_scenario(5.0, 2.0)
    g = s.resolved_gain()
    law = mc.row_law(s, "EB", g)
    block = reduced_block(s, g)
    exact, wrong = _cov_suite(block, *law, False), _cov_suite(block, *law, True)
    est = mc.estimate_params(mc.Moments.of(mc.simulate_eb(s, g, N_MC, SEED)))
    t, eps = reduced_channel(s, g)
    zt = abs(est.t_hat - t) / est.t_se
    ze = abs(est.eps_hat - eps) / est.eps_se
    ok = exact.passed and not wrong.passed and zt < 3.0 and ze < 3.0
    report(7, ok, f"covariance identity {exact.detail} (expected < {IDENTITY_TOL:g}); "
                  f"wrong-sign control {wrong.detail} (expected >= {IDENTITY_TOL:g}); "
                  f"N=1e6 round trip z(T)={zt:.2f}, z(eps')={ze:.2f} (expected < 3)")
    assert exact.passed and not wrong.passed
    assert zt < 3.0 and ze < 3.0


def test_criterion_08_pm_eb_equivalence():
    s = make_scenario(5.0, 2.0)
    g = optimal_gain(s)
    eb = mc.row_law(s, "EB", g)
    k = k_from_gain(g, s.v_b)
    same, double = (_equivalence_suite(*eb, *mc.row_law(s, "PM", k_pm)) for k_pm in (k, 2.0 * k))
    ok = same.passed and not double.passed
    report(8, ok, f"picture equivalence identity {same.detail} (expected < {IDENTITY_TOL:g}); "
                  f"2x-k negative control {double.detail} (expected >= {IDENTITY_TOL:g})")
    assert same.passed
    assert not double.passed


def test_criterion_09_measurement_rescaling_invariance():
    # Bob maximises his data key rate over k (`data_k_maximum`): a relay
    # rescaling of its data by eta leaves the maximum and moves its k to
    # k / sqrt(eta); at a fixed k it moves the key rate
    s = make_scenario(5.0, 2.0)
    k0 = analytic_k(s)
    batch = mc.simulate_pm(s, k0, N_MC, SEED)
    moments = mc.Moments.of(batch)
    k_base, base = data_k_maximum(moments, k0, s.beta_r)
    max_dev, argmax_dev = 0.0, 0.0
    for eta in (0.25, 0.64, 1.44):
        k_scaled, scaled = data_k_maximum(mc.Moments.of(lo_scaling_attack(batch, eta)), k0,
                                          s.beta_r)
        max_dev = max(max_dev, abs(base - scaled))
        argmax_dev = max(argmax_dev, abs(k_scaled * math.sqrt(eta) / k_base - 1.0))
    control = abs(data_key_rate(moments, k0, s.beta_r)
                  - data_key_rate(mc.Moments.of(lo_scaling_attack(batch, 0.64)), k0, s.beta_r))
    ok = max_dev < 1e-9 and argmax_dev < 1e-6 and control > 1e-2
    report(9, ok, f"rescaling invariance: |dK_max|={max_dev:.2e} (expected < 1e-9), "
                  f"argmax 1/sqrt(eta) scaling dev {argmax_dev:.2e} (expected < 1e-6); "
                  f"fixed-k control |dK|={control:.3f} (expected > 1e-2)")
    assert max_dev < 1e-9
    assert argmax_dev < 1e-6
    assert control > 1e-2


def test_criterion_10_property_suites():
    rng = np.random.default_rng(SEED)
    failures = []

    # the composed states are physical: every symplectic eigenvalue >= 1
    omega = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    states = []
    for _ in range(50):
        s = random_detector_scenario(rng)
        states.append(np.array(compose_eb_simulated(s, optimal_gain(s) * rng.uniform(0.5, 2.0)),
                               dtype=float))
        if np.min(np.abs(np.linalg.eigvals(1j * omega @ states[-1]))) < 1.0 - 1e-9:
            failures.append("physicality")
            break

    # the reference's I_AB and chi_BE are invariant under phase rotations of
    # Alice's and of Bob's mode, which give x-p correlations no block has
    for cm in states[:10]:
        rot = np.zeros((4, 4))
        for m, t in enumerate(rng.uniform(0.0, 2.0 * np.pi, 2)):
            rot[2 * m:2 * m + 2, 2 * m:2 * m + 2] = [[np.cos(t), np.sin(t)],
                                                     [-np.sin(t), np.cos(t)]]
        turned = rot @ cm @ rot.T
        turned = ((turned + turned.T) / 2.0).tolist()  # symmetric to the ulp
        if (abs(mutual_information_generic(turned) - mutual_information_generic(cm.tolist()))
                > 1e-9 or abs(holevo_bound_reverse_generic(turned)
                              - holevo_bound_reverse_generic(cm.tolist())) > 1e-9):
            failures.append("unitary invariance")
            break

    # bosonic entropy identities, from chi_BE of Alice's vacuum and Bob's
    # thermal mode of variance nu, which is g(nu): g(1) = 0, g(3) = 2, monotone
    def g(nu):
        return holevo_bound_reverse_generic(block_matrix(1.0, nu, 0.0))

    if g(1.0) != 0.0 or abs(g(3.0) - 2.0) > 1e-12:
        failures.append("g identities")
    nus = np.sort(rng.uniform(1.0, 1e4, 20))
    if np.any(np.diff([g(nu) for nu in nus]) <= 0.0):
        failures.append("g monotonicity")

    # the closed-form gain minimizes the equivalent excess noise
    for _ in range(50):
        s = random_scenario(rng)
        g_star = optimal_gain(s)
        terms = gain_free_terms(s)
        best = channel_at(terms, g_star)[1]
        if any(channel_at(terms, g)[1] < best - 1e-12
               for g in g_star * np.logspace(-0.5, 0.5, 200)):
            failures.append("gain optimality")
            break

    # key rate decreases in every noise parameter
    base = make_scenario(3.0, 1.0, beta=0.95)
    k0 = secret_key_rate(base).k
    worse = [
        replace(base, channel_a=ChannelParams(3.0, 0.2, 0.01)),
        replace(base, channel_b=ChannelParams(1.0, 0.2, 0.01)),
        replace(base, detector=DetectorParams(0.95, 0.0)),
        replace(base, detector=DetectorParams(1.0, 0.05)),
        base.with_lengths(4.0, 1.0),
        base.with_lengths(3.0, 2.0),
    ]
    if not all(secret_key_rate(w).k < k0 for w in worse):
        failures.append("noise monotonicity")

    ok = not failures
    report(10, ok, "property suites: physicality, unitary invariance, "
                   "g identities, gain optimality, noise monotonicity"
                   + ("" if ok else f" -- failed: {failures}"))
    assert ok, failures
