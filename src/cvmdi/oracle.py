"""Monte Carlo verification suites driven by the `oracle` CLI subcommand.

The sampler's rows are L z, so their covariance is exactly L L^T
(`montecarlo.row_law`). Three suites check identities of that law at the
scenario's gain g (the run's gain of `protocol.gain_free_terms`) or the k
equivalent to it, each
within IDENTITY_TOL of its rounding scale, so no seed or n moves them: the
source-based (EB) law against the analytic prediction, the EB law bridged
against the modulation-based (PM) law, and the PM law against its rescaled
relay data. Parameter estimation alone reads a sample: the moments of n EB
rows at `seed`, drawn from their law (`montecarlo.sample_moments`), one
sample covariance. The analytic side is the reduction's equivalent channel
(T, eps') at g, computed once per run (`protocol.channel_at`): estimation
tests against it, and the covariance suite against its block (a, b, c).

Everything here is float arithmetic in `math`, every sum of products one
correctly rounded `math.fsum`, so the printed lines are the same in every
process and on every platform, and the oracle does not load numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import montecarlo as mc
from .protocol import Scenario, block_params, channel_at, gain_free_terms, k_from_gain


# |z| at or above which parameter estimation fails
Z_LIMIT = 4.0
# deviation/scale at or above which an identity fails (a correct model: 1.4e-15)
IDENTITY_TOL = 1e-12
# V_A or V_B at or above which the oracle refuses a scenario. The identities
# hold at any V (the sources enter through exact factors); the bound is the
# estimation suite's: its z-scores were measured calibrated up to 2.9e7 (sd
# 1.04-1.05 over 300 seeds, legs of 5 and 2 km, n = 1e6), and at V = 1e9 the
# delta-method variance of eps' comes out negative (a math domain error)
V_LIMIT = 3e7


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _identity(name: str, actual, expected, scale, note: str = "") -> SuiteResult:
    """max |actual - expected| / scale over the entries of matrices of one
    shape, below IDENTITY_TOL; an entry of scale 0 is exact."""
    miss = max(abs(x - y) / s if s > 0.0 else 0.0 if x == y else math.inf
               for rx, ry, rs in zip(actual, expected, scale) for x, y, s in zip(rx, ry, rs))
    return SuiteResult(name, miss < IDENTITY_TOL, f"max|dev|/scale={miss:.2e}{note}")


def _upper_left(m) -> list:
    """The 4 x 4 block of Alice's and Bob's final data."""
    return [row[:4] for row in m[:4]]


def _cov_suite(block, eb: mc.Moments, scale, wrong_sign: bool) -> SuiteResult:
    """The EB law's final covariance against the heterodyne image of the
    block (a, b, c) predicted at its gain."""
    predicted = mc.heterodyne_image(*block)
    if wrong_sign:  # test hook: displacement with inverted sign; the scale is the same
        eb = replace(eb, coeff=-eb.coeff)
    return _identity("covariance_vs_analytic", _upper_left(eb.final_covariance()), predicted,
                     _upper_left(scale))


def _estimation_suite(moments: mc.Moments, t_true: float, eps_true: float) -> SuiteResult:
    """(T, eps') estimated from the drawn moments against the channel at their gain."""
    est = mc.estimate_params(moments)
    zt = abs(est.t_hat - t_true) / est.t_se
    ze = abs(est.eps_hat - eps_true) / est.eps_se
    return SuiteResult("parameter_estimation_roundtrip", zt < Z_LIMIT and ze < Z_LIMIT,
                       f"z(T)={zt:.2f} z(eps')={ze:.2f}")


def _equivalence_suite(eb: mc.Moments, eb_scale, pm: mc.Moments, pm_scale) -> SuiteResult:
    """S F_EB S, S = `bridge_matrix`, against F_PM at k; the scales add."""
    s = mc.bridge_matrix(eb.v_a, eb.v_b)
    scale = [[x + y for x, y in zip(rx, ry)]
             for rx, ry in zip(mc._sandwich(mc._abs(s), eb_scale), pm_scale)]
    return _identity("pm_eb_equivalence", pm.final_covariance(),
                     mc._sandwich(s, eb.final_covariance()), scale, f" k={pm.coeff:.4f}")


def _attack_suite(pm: mc.Moments, scale) -> SuiteResult:
    """The block (a, b, c) the PM law reads at k = k0 (0.3, 1, 3) against that
    of its relay data rescaled by 0.8 and read at k/0.8: each reading is
    quadratic in k, so three k cover every k. As |M_k| <= max(1, k/k0) |M_k0|,
    a reading's scale is |R| on the law's scale, times that squared."""
    ratios = (0.3, 1.0, 3.0)
    read = mc._read_block_params(pm, [pm.coeff * r for r in ratios])
    rescaled = mc._read_block_params(pm.rescaled(0.64), [pm.coeff * r / 0.8 for r in ratios])
    bound = [mc._dot(mc._flat(mc._abs(r)), mc._flat(scale)) for r in mc._reading(pm)]
    return _identity("measurement_rescaling_invariance", read, rescaled,
                     [[b * max(r, 1.0) ** 2 for b in bound] for r in ratios])


def run_oracle_suites(scenario: Scenario, n: int, seed: int,
                      wrong_sign: bool = False) -> list[SuiteResult]:
    """The four suites at the scenario's gain g, whose equivalent channel (T,
    eps') is computed once; `mc.UnsupportedScenario` before any draw."""
    det = scenario.detector
    if (det.efficiency, det.electronic_noise) != (1.0, 0.0):
        raise mc.UnsupportedScenario(
            f"scenario.eta_d = {det.efficiency!r}, scenario.v_el = {det.electronic_noise!r}: "
            "the oracle samples a perfect relay detector (eta_d = 1, v_el = 0)")
    if scenario.v_a == 1.0:
        raise mc.UnsupportedScenario(
            f"scenario.v_a = {scenario.v_a!r}: the oracle needs a modulated source (v_a > 1); "
            "at v_a = 1 Alice's modulation data are zero and (T, eps') cannot be estimated")
    for name in ("v_a", "v_b"):
        v = getattr(scenario, name)
        if v >= V_LIMIT:
            raise mc.UnsupportedScenario(
                f"scenario.{name} = {v!r}: the oracle checks sources with V below {V_LIMIT:g}")
    terms = gain_free_terms(scenario)
    g = terms[-1]  # the resolved gain
    t, eps = channel_at(terms, g)
    eb = mc.row_law(scenario, "EB", g)
    pm = mc.row_law(scenario, "PM", k_from_gain(g, scenario.v_b))
    return [
        _cov_suite(block_params(scenario.v_a, t, eps), *eb, wrong_sign),
        _estimation_suite(mc.sample_moments(scenario, "EB", g, n, seed), t, eps),
        _equivalence_suite(*eb, *pm),
        _attack_suite(*pm),
    ]
