"""Monte Carlo verification suites driven by the `oracle` CLI subcommand.

One run draws two n-sample batches at the scenario's gain g
(`Scenario.resolved_gain`), and each suite reads g, or the amplification k
equivalent to it (`protocol.k_from_gain`), from its batch's second moments
(`montecarlo.Moments`): one source-based (EB) batch at `seed`, read by the
covariance, estimation and equivalence suites, then one modulation-based
(PM) batch at `seed + 1`, read by the equivalence and rescaling suites. The
moments of each batch are drawn exactly from their law
(`montecarlo.sample_moments`): the sampler's linear map L and a Bartlett
draw of the Wishart Gram matrix, no rows, so time and memory do not depend
on n.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import montecarlo as mc
from .protocol import (
    Scenario,
    effective_transmittance,
    equivalent_excess_noise,
    k_from_gain,
    scenario_block_params,
)


# |z| at or above which a Monte Carlo comparison fails
Z_LIMIT = 4.0


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _cov_suite(scenario: Scenario, moments: mc.Moments, wrong_sign: bool) -> SuiteResult:
    """Empirical covariance of the final data vs the analytic prediction."""
    g = moments.coeff
    if wrong_sign:
        # test hook: displacement applied with inverted sign
        moments = replace(moments, coeff=-g)
    predicted = mc.heterodyne_image(*scenario_block_params(scenario, g))
    z = mc.covariance_z_scores(moments.final_covariance()[:4, :4], predicted, moments.n)
    zmax = float(np.max(np.abs(z)))
    return SuiteResult("covariance_vs_analytic", zmax < Z_LIMIT, f"max|z|={zmax:.2f}")


def _estimation_suite(scenario: Scenario, moments: mc.Moments) -> SuiteResult:
    est = mc.estimate_params(moments)
    t_true = effective_transmittance(scenario, moments.coeff)
    eps_true = equivalent_excess_noise(scenario, moments.coeff)
    zt = abs(est.t_hat - t_true) / est.t_se
    ze = abs(est.eps_hat - eps_true) / est.eps_se
    return SuiteResult("parameter_estimation_roundtrip", zt < Z_LIMIT and ze < Z_LIMIT,
                       f"z(T)={zt:.2f} z(eps')={ze:.2f}")


def _equivalence_suite(eb: mc.Moments, pm: mc.Moments) -> SuiteResult:
    zmax = float(np.max(np.abs(mc.equivalence_z_scores(eb, pm))))
    return SuiteResult("pm_eb_equivalence", zmax < Z_LIMIT, f"max|z|={zmax:.2f} k={pm.coeff:.4f}")


def _attack_suite(scenario: Scenario, pm: mc.Moments) -> SuiteResult:
    # dense grid around the batch's k so quantization of the max is << tolerance
    grid = pm.coeff * np.logspace(np.log10(0.3), np.log10(3.0), 2001)
    base = mc.key_rates_vs_k_from_batch(pm, grid, scenario.beta_r)
    scaled = mc.key_rates_vs_k_from_batch(pm.rescaled(0.64), grid, scenario.beta_r)
    dmax = abs(float(np.max(base)) - float(np.max(scaled)))
    return SuiteResult("measurement_rescaling_invariance", dmax < 1e-3,
                       f"|dK_max|={dmax:.2e}")


def run_oracle_suites(scenario: Scenario, n: int, seed: int,
                      wrong_sign: bool = False) -> list[SuiteResult]:
    """The four suites at the scenario's gain; `mc.UnsupportedScenario` before any draw."""
    det = scenario.detector
    if (det.efficiency, det.electronic_noise) != (1.0, 0.0):
        raise mc.UnsupportedScenario(
            f"scenario.eta_d = {det.efficiency!r}, scenario.v_el = {det.electronic_noise!r}: "
            "the oracle samples a perfect relay detector (eta_d = 1, v_el = 0)")
    if scenario.v_a == 1.0:
        raise mc.UnsupportedScenario(
            f"scenario.v_a = {scenario.v_a!r}: the oracle needs a modulated source (v_a > 1); "
            "at v_a = 1 Alice's modulation data are zero and (T, eps') cannot be estimated")
    g = scenario.resolved_gain()
    eb = mc.sample_moments(scenario, "EB", g, n, seed)
    pm = mc.sample_moments(scenario, "PM", k_from_gain(g, scenario.v_b), n, seed + 1)
    return [
        _cov_suite(scenario, eb, wrong_sign),
        _estimation_suite(scenario, eb),
        _equivalence_suite(eb, pm),
        _attack_suite(scenario, pm),
    ]
