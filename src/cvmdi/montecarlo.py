"""Quadrature-level Monte Carlo sampler for both protocol pictures.

Serves as the brute-force oracle for the analytic covariance matrix, the
equivalence of the source-based and modulation-based pictures, parameter
estimation, and the measurement-rescaling attack analysis.

Sampling conventions (shot-noise units, vacuum variance 1):
  * homodyne reads the quadrature value exactly;
  * heterodyne outcome y_x = (q_x + v_x)/sqrt(2), y_p = (q_p - v_p)/sqrt(2)
    with v a fresh vacuum, so the outcome variance is (V + 1)/2 per
    quadrature, matching `gaussian.heterodyne_condition`.

Randomness: a counter-based Philox generator per noise source, keyed by
(seed, source id), so sources can be generated independently and in parallel
without changing results.

Channels: each leg is an entangling cloner. Eve's kept arm never reaches the
data, so the sampler draws only the mode she injects into the channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .gaussian import CovarianceMatrix
from .keyrate import block_form_params
from .protocol import Scenario, optimal_gain

_SQRT2 = math.sqrt(2.0)

# stable noise-source ids for substream derivation
_STREAMS = {
    "alice_source": 0,
    "bob_source": 1,
    "cloner_a": 2,
    "cloner_b": 3,
    "alice_detection": 4,
    "bob_detection": 5,
}


def _rng(seed: int, stream: str) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(_STREAMS[stream],))
    return np.random.Generator(np.random.Philox(ss))


def _sample_epr(v: float, n: int, rng: np.random.Generator):
    """Wigner samples of a two-mode squeezed state: (x1, p1, x2, p2)."""
    c = math.sqrt(v * v - 1.0)
    lx = np.linalg.cholesky(np.array([[v, c], [c, v]]))
    lp = np.linalg.cholesky(np.array([[v, -c], [-c, v]]))
    zx = rng.standard_normal((n, 2))
    zp = rng.standard_normal((n, 2))
    x = zx @ lx.T
    p = zp @ lp.T
    return x[:, 0], p[:, 0], x[:, 1], p[:, 1]


def _through_channel(qx, qp, channel, stream, seed, n):
    """Entangling-cloner channel output sqrt(eta) q + sqrt(1 - eta + eta eps) z.

    Only the injected cloner mode reaches the output, and its variance
    (1 - eta) W = 1 - eta + eta eps, so z is drawn as one standard normal
    per quadrature (x first, then p) instead of a full EPR pair. At eta = 1
    the noise eps is kept: the L -> 0+ limit of the analytic composition.
    """
    eta = channel.transmittance
    t, r = math.sqrt(eta), math.sqrt(1.0 - eta + eta * channel.excess_noise)
    rng = _rng(seed, stream)
    out = rng.standard_normal(n), rng.standard_normal(n)
    for z, q in zip(out, (qx, qp)):
        z *= r
        z += t * q
    return out


@dataclass(frozen=True)
class SampleBatch:
    """Per-sample protocol data; all columns length n, shot-noise units.

    For scheme "PM", (x_b, p_b) are Bob's modulation values and coeff is the
    amplification k. For scheme "EB", (x_b, p_b) are Bob's pre-displacement
    heterodyne outcomes and coeff is the displacement gain g.
    """

    scheme: str
    seed: int
    n: int
    v_a: float
    v_b: float
    coeff: float
    x_a: np.ndarray
    p_a: np.ndarray
    x_b: np.ndarray
    p_b: np.ndarray
    x_c: np.ndarray
    p_d: np.ndarray
    x_b_final: np.ndarray
    p_b_final: np.ndarray

    def columns(self) -> dict:
        """Final 6-variable data, ordered X_A, P_A, X_B, P_B, X_C, P_D."""
        return {
            "X_A": self.x_a, "P_A": self.p_a,
            "X_B": self.x_b_final, "P_B": self.p_b_final,
            "X_C": self.x_c, "P_D": self.p_d,
        }

    def data_matrix(self) -> np.ndarray:
        return np.column_stack(list(self.columns().values()))


def modulation_scale(v: float) -> float:
    """Ratio between modulation data and heterodyne-outcome data for one party."""
    return math.sqrt(2.0 * (v - 1.0) / (v + 1.0))


def bridge_matrix(v_a: float, v_b: float) -> np.ndarray:
    """Diagonal map from EB outcome columns to PM modulation columns.

    PM data = diag(s_a, -s_a, s_b, -s_b, 1, 1) * EB data, with
    s = sqrt(2 (V-1)/(V+1)); the p-signs carry the sigma_z correlation
    structure of the sources.
    """
    s_a, s_b = modulation_scale(v_a), modulation_scale(v_b)
    return np.diag([s_a, -s_a, s_b, -s_b, 1.0, 1.0])


def gain_from_k(k: float, v_b: float) -> float:
    """Displacement gain equivalent to data-domain amplification k."""
    return k / math.sqrt((v_b - 1.0) / (v_b + 1.0))


def k_from_gain(g: float, v_b: float) -> float:
    return g * math.sqrt((v_b - 1.0) / (v_b + 1.0))


def simulate_eb(scenario: Scenario, g: float | None = None,
                n: int = 100_000, seed: int = 0) -> SampleBatch:
    """Sample the source-based picture: EPR pairs, cloner channels, relay
    beamsplitter, dual homodyne, displacement, heterodyne detections."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if g is None:
        g = optimal_gain(scenario)
    a1x, a1p, a2x, a2p = _sample_epr(scenario.v_a, n, _rng(seed, "alice_source"))
    b1x, b1p, b2x, b2p = _sample_epr(scenario.v_b, n, _rng(seed, "bob_source"))
    apx, app = _through_channel(a2x, a2p, scenario.channel_a, "cloner_a", seed, n)
    bpx, bpp = _through_channel(b2x, b2p, scenario.channel_b, "cloner_b", seed, n)

    x_c = (apx - bpx) / _SQRT2  # homodyne x of C
    p_d = (app + bpp) / _SQRT2  # homodyne p of D

    va = _rng(seed, "alice_detection").standard_normal((n, 2))
    vb = _rng(seed, "bob_detection").standard_normal((n, 2))
    x_a = (a1x + va[:, 0]) / _SQRT2
    p_a = (a1p - va[:, 1]) / _SQRT2
    # heterodyne of the displaced mode splits into the pre-displacement
    # outcome plus g/sqrt(2) times the announced relay data
    x_b = (b1x + vb[:, 0]) / _SQRT2
    p_b = (b1p - vb[:, 1]) / _SQRT2
    x_b_final = x_b + g / _SQRT2 * x_c
    p_b_final = p_b + g / _SQRT2 * p_d

    return SampleBatch("EB", seed, n, scenario.v_a, scenario.v_b, g,
                       x_a, p_a, x_b, p_b, x_c, p_d, x_b_final, p_b_final)


def simulate_pm(scenario: Scenario, k: float, n: int = 100_000, seed: int = 0) -> SampleBatch:
    """Sample the modulation-based picture: Gaussian-modulated coherent
    states through the cloner channels, relay measurement, data processing
    X_B = x_b + k X_C, P_B = p_b - k P_D."""
    if n < 1:
        raise ValueError("n must be >= 1")
    mod_a = _rng(seed, "alice_source").standard_normal((n, 2)) * math.sqrt(scenario.v_a - 1.0)
    mod_b = _rng(seed, "bob_source").standard_normal((n, 2)) * math.sqrt(scenario.v_b - 1.0)
    vac_a = _rng(seed, "alice_detection").standard_normal((n, 2))
    vac_b = _rng(seed, "bob_detection").standard_normal((n, 2))
    x_a, p_a = mod_a[:, 0], mod_a[:, 1]
    x_b, p_b = mod_b[:, 0], mod_b[:, 1]

    apx, app = _through_channel(x_a + vac_a[:, 0], p_a + vac_a[:, 1],
                                scenario.channel_a, "cloner_a", seed, n)
    bpx, bpp = _through_channel(x_b + vac_b[:, 0], p_b + vac_b[:, 1],
                                scenario.channel_b, "cloner_b", seed, n)
    x_c = (apx - bpx) / _SQRT2
    p_d = (app + bpp) / _SQRT2

    return SampleBatch("PM", seed, n, scenario.v_a, scenario.v_b, k,
                       x_a, p_a, x_b, p_b, x_c, p_d,
                       x_b + k * x_c, p_b - k * p_d)


def heterodyne_image(cov2: CovarianceMatrix) -> np.ndarray:
    """Predicted covariance of dual-heterodyne outcomes of a two-mode state."""
    a, b, c = block_form_params(cov2)
    return np.array([
        [(a + 1) / 2, 0, c / 2, 0],
        [0, (a + 1) / 2, 0, -c / 2],
        [c / 2, 0, (b + 1) / 2, 0],
        [0, -c / 2, 0, (b + 1) / 2],
    ])


def covariance_z_scores(emp_cov: np.ndarray, predicted: np.ndarray, n: int) -> np.ndarray:
    """Entrywise z-scores of an empirical covariance against a prediction.

    Standard error of a Gaussian sample covariance entry:
    sqrt((C_ii C_jj + C_ij^2) / N), evaluated at the prediction.
    """
    var = np.outer(np.diag(predicted), np.diag(predicted)) + predicted**2
    return (emp_cov - predicted) / np.sqrt(var / n)


def batch_outcome_covariance(batch: SampleBatch) -> np.ndarray:
    """Empirical 4x4 covariance of the final (X_A, P_A, X_B, P_B) data."""
    m = np.column_stack([batch.x_a, batch.p_a, batch.x_b_final, batch.p_b_final])
    return np.cov(m, rowvar=False)


def fit_amplification(eb_batch: SampleBatch) -> float:
    """Empirical data-domain amplification coefficient from an EB batch.

    Uses the regression of the displacement contribution on the announced
    relay data: k = s_b * Cov(X_B - x_b, X_C) / Var(X_C).
    """
    if eb_batch.scheme != "EB":
        raise ValueError("fit_amplification expects an EB batch")
    s_b = modulation_scale(eb_batch.v_b)
    disp = eb_batch.x_b_final - eb_batch.x_b
    slope = np.cov(disp, eb_batch.x_c)[0, 1] / np.var(eb_batch.x_c)
    return float(s_b * slope)


@dataclass(frozen=True)
class EquivalenceReport:
    k_used: float
    g_used: float
    z_scores: np.ndarray
    max_abs_z: float
    passed: bool


def pm_eb_equivalence_test(scenario: Scenario, g: float | None = None,
                           n: int = 1_000_000, seed_pair: tuple[int, int] = (11, 12),
                           k: float | None = None, z_limit: float = 4.0) -> EquivalenceReport:
    """Compare the 6-variable joint covariance of the two pictures.

    The EB covariance is mapped to modulation units with `bridge_matrix`
    before comparison. k defaults to the empirically fitted coefficient.
    """
    if g is None:
        g = optimal_gain(scenario)
    eb = simulate_eb(scenario, g, n, seed_pair[0])
    if k is None:
        k = fit_amplification(eb)
    cov_eb = bridged_covariance(eb)
    del eb  # hold one n-sample batch at a time
    pm = simulate_pm(scenario, k, n, seed_pair[1])
    return equivalence_report(cov_eb, pm, g, z_limit)


def bridged_covariance(eb_batch: SampleBatch) -> np.ndarray:
    """6x6 covariance of an EB batch's final data in PM modulation units."""
    s = bridge_matrix(eb_batch.v_a, eb_batch.v_b)
    return s @ np.cov(eb_batch.data_matrix(), rowvar=False) @ s


def equivalence_report(cov_eb: np.ndarray, pm_batch: SampleBatch, g: float,
                       z_limit: float = 4.0) -> EquivalenceReport:
    """Compare a PM batch's 6x6 covariance with an independent EB estimate
    of the same size, `bridged_covariance` of an EB batch drawn at gain g."""
    cov_pm = np.cov(pm_batch.data_matrix(), rowvar=False)
    mid = 0.5 * (cov_eb + cov_pm)
    var = (np.outer(np.diag(mid), np.diag(mid)) + mid**2) / pm_batch.n
    z = (cov_pm - cov_eb) / np.sqrt(2.0 * var)  # two independent estimates
    max_z = float(np.max(np.abs(z)))
    return EquivalenceReport(k_used=float(pm_batch.coeff), g_used=float(g), z_scores=z,
                             max_abs_z=max_z, passed=max_z < z_limit)


# smallest batch `estimate_params` accepts; `load_config` holds mc.n to it
MIN_ESTIMATION_SAMPLES = 1000


@dataclass(frozen=True)
class EstimatedParams:
    empirical_cov: np.ndarray
    a: float
    b: float
    c: float
    t_hat: float
    eps_hat: float
    t_se: float
    eps_se: float


def _block_estimates(x_a, p_a, x_b, p_b):
    """(a, b, c, T, eps') from heterodyne outcomes scaled by sqrt(2)."""
    a = (np.var(x_a) + np.var(p_a)) / 2.0 - 1.0
    b = (np.var(x_b) + np.var(p_b)) / 2.0 - 1.0
    c = (np.cov(x_a, x_b)[0, 1] - np.cov(p_a, p_b)[0, 1]) / 2.0
    t = c * c / (a * a - 1.0)
    eps = (b - 1.0 - t * (a - 1.0)) / t
    return a, b, c, t, eps


def estimate_params(batch: SampleBatch, n_blocks: int = 10) -> EstimatedParams:
    """Fit (T, eps') to the two-mode block structure from second moments.

    Heterodyne outcomes carry a vacuum penalty: quadrature variance maps to
    (V+1)/2, cross covariance to c/2. PM batches are first rescaled to
    outcome units via the bridge map. Standard errors come from a
    block-resampling split of the batch.
    """
    if batch.n < MIN_ESTIMATION_SAMPLES:
        raise ValueError(f"need at least {MIN_ESTIMATION_SAMPLES} samples for estimation")
    data = np.column_stack([batch.x_a, batch.p_a, batch.x_b_final, batch.p_b_final])
    if np.any(np.std(data, axis=0) < 1e-12):
        raise ValueError("degenerate (zero-variance) data column")
    if batch.scheme == "PM":
        s = bridge_matrix(batch.v_a, batch.v_b)
        data = data @ np.linalg.inv(s[:4, :4])
    # scale outcomes by sqrt(2): variances become V+1, covariances become +-c
    x_a, p_a, x_b, p_b = (data[:, i] * _SQRT2 for i in range(4))
    a, b, c, t, eps = _block_estimates(x_a, p_a, x_b, p_b)
    ts, es = [], []
    for part in np.array_split(np.arange(batch.n), n_blocks):
        _, _, _, tb, eb = _block_estimates(x_a[part], p_a[part], x_b[part], p_b[part])
        ts.append(tb)
        es.append(eb)
    emp = np.cov(data, rowvar=False)
    return EstimatedParams(
        empirical_cov=emp, a=float(a), b=float(b), c=float(c),
        t_hat=float(t), eps_hat=float(eps),
        t_se=float(np.std(ts, ddof=1) / math.sqrt(n_blocks)),
        eps_se=float(np.std(es, ddof=1) / math.sqrt(n_blocks)),
    )


def sample_block_cm(v_a: float, t: float, eps: float, n: int, seed: int = 0) -> SampleBatch:
    """Heterodyne-outcome samples drawn directly from a block covariance.

    Generative counterpart of `estimate_params` for round-trip checks.
    """
    b = t * (v_a - 1.0) + 1.0 + t * eps
    c = math.sqrt(t * (v_a * v_a - 1.0))
    lx = np.linalg.cholesky(np.array([[v_a, c], [c, b]]))
    lp = np.linalg.cholesky(np.array([[v_a, -c], [-c, b]]))
    rng = _rng(seed, "alice_source")
    qx = rng.standard_normal((n, 2)) @ lx.T
    qp = rng.standard_normal((n, 2)) @ lp.T
    va = _rng(seed, "alice_detection").standard_normal((n, 2))
    vb = _rng(seed, "bob_detection").standard_normal((n, 2))
    x_a = (qx[:, 0] + va[:, 0]) / _SQRT2
    p_a = (qp[:, 0] - va[:, 1]) / _SQRT2
    x_b = (qx[:, 1] + vb[:, 0]) / _SQRT2
    p_b = (qp[:, 1] - vb[:, 1]) / _SQRT2
    return SampleBatch("EB", seed, n, v_a, b, float("nan"),
                       x_a, p_a, x_b, p_b,
                       np.zeros(n), np.zeros(n), x_b, p_b)


def lo_scaling_attack(batch: SampleBatch, eta_scale: float) -> SampleBatch:
    """Rescale the announced relay data by sqrt(eta_scale) before Bob's data
    processing; final columns are recomputed at the batch's own coefficient."""
    if eta_scale <= 0:
        raise ValueError("eta_scale must be > 0")
    r = math.sqrt(eta_scale)
    x_c, p_d = r * batch.x_c, r * batch.p_d
    if batch.scheme == "PM":
        x_f = batch.x_b + batch.coeff * x_c
        p_f = batch.p_b - batch.coeff * p_d
    else:
        x_f = batch.x_b + batch.coeff / _SQRT2 * x_c
        p_f = batch.p_b + batch.coeff / _SQRT2 * p_d
    return replace(batch, x_c=x_c, p_d=p_d, x_b_final=x_f, p_b_final=p_f)


def key_rates_vs_k_from_batch(batch: SampleBatch, k_grid, beta: float = 1.0) -> np.ndarray:
    """Data-driven key rate for each k, from one PM batch's second moments.

    Reads only the base columns x_a ... p_d, so the batch's own k does not
    enter. The whole grid goes to the grid kernel in one call.
    """
    if batch.scheme != "PM":
        raise ValueError("k sweep over data requires a PM batch")
    k = np.asarray(k_grid, dtype=float)
    base = np.column_stack([batch.x_a, batch.p_a, batch.x_b, batch.p_b,
                            batch.x_c, batch.p_d])
    m = np.cov(base, rowvar=False)
    s_a = modulation_scale(batch.v_a)
    s_b = modulation_scale(batch.v_b)
    a = (m[0, 0] + m[1, 1]) / (s_a * s_a) - 1.0
    # modulation units: X_B = x_b + k X_C, P_B = p_b - k P_D
    var_xb = m[2, 2] + 2 * k * m[2, 4] + k * k * m[4, 4]
    var_pb = m[3, 3] - 2 * k * m[3, 5] + k * k * m[5, 5]
    cov_x = m[0, 2] + k * m[0, 4]
    cov_p = m[1, 3] - k * m[1, 5]
    # back to covariance-matrix units: Var_mod = s^2 (V+1)/2, Cov_mod = +-s_a s_b c/2
    b = (var_xb + var_pb) / (s_b * s_b) - 1.0
    c = (cov_x - cov_p) / (s_a * s_b)
    return kernels.block_key_rate_grid(a, b, c, beta)


def export_csv(batch: SampleBatch, path) -> None:
    """One sample per line with full round-trip precision."""
    cols = batch.columns()
    with open(path, "w") as fh:
        fh.write(f"# scheme={batch.scheme} seed={batch.seed} n={batch.n} "
                 f"v_a={batch.v_a!r} v_b={batch.v_b!r} coeff={batch.coeff!r}\n")
        fh.write(",".join(cols) + "\n")
        mat = np.column_stack(list(cols.values()))
        for row in mat.tolist():
            fh.write(",".join(map(repr, row)) + "\n")
