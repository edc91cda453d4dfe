"""Quadrature-level Monte Carlo sampler for both protocol pictures.

Serves as the brute-force oracle for the analytic covariance matrix, the
equivalence of the source-based and modulation-based pictures, parameter
estimation, and the measurement-rescaling attack analysis.

Sampling conventions (shot-noise units, vacuum variance 1):
  * homodyne reads the quadrature value exactly;
  * heterodyne outcome y_x = (q_x + v_x)/sqrt(2), y_p = (q_p - v_p)/sqrt(2)
    with v a fresh vacuum, so the outcome variance is (V + 1)/2 per
    quadrature, matching `heterodyne_image`.

Physics: every step is linear, so a row of base columns is L z, z the row's
p standard normals (p = 16 for EB, 12 for PM). `_eb_rows` and `_pm_rows`
state each picture once, as the map L (`linear_map`), and the sampler has no
other statement of it: rows and moments are both drawn from L.

Rows: `_simulate` draws z from one Philox generator keyed by (seed, "rows"),
CHUNK_ROWS rows of p normals at a time, and writes L z for each block, so
row j is L times the stream's j-th run of p normals whatever n is. Rows
serve the CSV export and tests; the oracle draws none (`sample_moments`).
`export_csv` writes the final columns, every cell `'%.16e' % v`: 17
correctly rounded significant digits, which round-trip, in a layout that
does not depend on the value. A block of rows is formatted by exact integer
arithmetic on whole arrays, for every cell with 1e-6 <= |v| < 1e17 but a
few next to a power of ten; only the other cells go through `%` one by one.

Batches: a `SampleBatch` holds only the drawn columns x_a, p_a, x_b, p_b,
x_c, p_d; Bob's final data X_B = x_b + w_x x_c, P_B = p_b + w_p p_d
(`_final_weights`) are derived on demand.

Moments: every estimator here reads second moments only. `Moments` holds
them for the whole batch (row count n, column sums and the Gram matrix of
the drawn columns), so every covariance is a linear image of one covariance
C of those columns (ddof 1). `Moments.of` reduces drawn rows;
`sample_moments` draws the moments of n rows exactly from their law, from L
and a Bartlett-decomposed Wishart draw, in time and memory independent of
n. `_reading` states once how data are read as the block covariance
(a, b, c): fixed weights R on the covariance F of the final columns
(`Moments.final_covariance`). Estimation, its errors and the k-scan all use
it.

Standard errors: one rule, the normal-theory (Isserlis) covariance of the
sample covariance of n Gaussian rows, Cov(F_ij, F_kl) = (F_ik F_jl +
F_il F_jk)/n, with n the row count. `_entry_se` applies it to one entry,
`_reading_covariance` to linear readings tr(R F).

Channels: each leg is an entangling cloner. Eve's kept arm never reaches the
data, so the sampler draws only the mode she injects into the channel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .protocol import _SQRT2, MIN_ESTIMATION_SAMPLES, Scenario, k_from_gain

# rows per block of the row draw (a transient of p CHUNK_ROWS normals)
CHUNK_ROWS = 1 << 15
# rows per block of the CSV export: a block's float64 transients are 96 KiB;
# at 8192 rows (384 KiB each) a 1e5-row export took twice as long (2-CPU
# x86-64 Linux, numpy 2.4)
_EXPORT_ROWS = 1 << 11
# the export's text words: 8 bytes each, in memory order on any host
_WORD = np.dtype("<u8")

# spawn-key ids of the generators (id, 0)
_STREAMS = {
    "rows": 0,  # the rows of `simulate_eb` and `simulate_pm`
    "moments": 6,  # the exact draw of `sample_moments`
}

# drawn columns of a batch; the final columns are linear in these
_BASE = ("x_a", "p_a", "x_b", "p_b", "x_c", "p_d")


def _rng(seed: int, stream: str) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(_STREAMS[stream], 0))
    return np.random.Generator(np.random.Philox(ss))


class UnsupportedScenario(ValueError):
    """A scenario outside what the sampler draws; the message names the field."""


def _correlated_pair(lx, lp, z: np.ndarray):
    """(x1, p1, x2, p2) of a two-mode Gaussian state from its (m, 4) normals z
    (sample rows, or unit columns for L); lx, lp are Cholesky factors of its
    x- and p-covariances."""
    x = z[:, :2] @ lx.T
    p = z[:, 2:] @ lp.T
    return x[:, 0], p[:, 0], x[:, 1], p[:, 1]


def _epr_factors(scenario: Scenario) -> list:
    """[lx, lp] of Alice's and of Bob's two-mode squeezed source: the Cholesky
    factors of [[V, c], [c, V]] and [[V, -c], [-c, V]], c = sqrt(V^2 - 1)."""
    factors = []
    for name in ("v_a", "v_b"):
        v = getattr(scenario, name)
        c = math.sqrt(v * v - 1.0)
        try:
            factors.append([np.linalg.cholesky(np.array([[v, s], [s, v]])) for s in (c, -c)])
        except np.linalg.LinAlgError:  # V^2 - 1 rounds to V^2
            raise UnsupportedScenario(f"scenario.{name} = {v!r}: the sampler cannot factor the "
                                      "two-mode squeezed covariance of this V") from None
    return factors


def _through_channel(qx, qp, channel, z: np.ndarray):
    """Entangling-cloner channel output sqrt(eta) q + sqrt(1 - eta + eta eps) z.

    Only the injected cloner mode reaches the output, and its variance
    (1 - eta) W = 1 - eta + eta eps, so z is (m, 2) standard normals instead
    of a full EPR pair. At eta = 1 the noise eps is kept: the
    L -> 0+ limit of the analytic composition.
    """
    eta = channel.transmittance
    t, r = math.sqrt(eta), math.sqrt(1.0 - eta + eta * channel.excess_noise)
    return t * qx + r * z[:, 0], t * qp + r * z[:, 1]


def _final_weights(scheme: str, coeff: float) -> tuple[float, float]:
    """(w_x, w_p) of the final data X_B = x_b + w_x x_c, P_B = p_b + w_p p_d."""
    if scheme == "PM":
        return coeff, -coeff
    w = coeff / _SQRT2
    return w, w


@dataclass(frozen=True)
class SampleBatch:
    """Drawn per-sample protocol data; all columns length n, shot-noise units.

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

    def columns(self) -> dict:
        """Final 6-variable data, ordered X_A, P_A, X_B, P_B, X_C, P_D; X_B
        and P_B are computed from the drawn columns at the batch's coeff."""
        w_x, w_p = _final_weights(self.scheme, self.coeff)
        return {
            "X_A": self.x_a, "P_A": self.p_a,
            "X_B": self.x_b + w_x * self.x_c, "P_B": self.p_b + w_p * self.p_d,
            "X_C": self.x_c, "P_D": self.p_d,
        }

    def data_matrix(self) -> np.ndarray:
        return np.column_stack(list(self.columns().values()))


def modulation_scale(v: float) -> float:
    """Ratio between modulation data and heterodyne-outcome data for one
    party: sqrt(2 (V-1)/(V+1)), the amplification k equivalent to a gain of
    sqrt(2)."""
    return k_from_gain(_SQRT2, v)


def bridge_matrix(v_a: float, v_b: float) -> np.ndarray:
    """Diagonal map from EB outcome columns to PM modulation columns.

    PM data = diag(s_a, -s_a, s_b, -s_b, 1, 1) * EB data, with
    s = sqrt(2 (V-1)/(V+1)); the p-signs carry the sigma_z correlation
    structure of the sources.
    """
    s_a, s_b = modulation_scale(v_a), modulation_scale(v_b)
    return np.diag([s_a, -s_a, s_b, -s_b, 1.0, 1.0])


def _eb_rows(scenario: Scenario) -> np.ndarray:
    """L of the EB picture, (6, 16). z holds, in order, Alice's and Bob's EPR
    blocks (4 each), cloner A, cloner B, Alice's and Bob's detection vacua
    (2 each)."""
    epr = _epr_factors(scenario)
    z_a, z_b, z_ca, z_cb, va, vb = np.split(np.eye(16), [4, 8, 10, 12, 14], axis=1)
    a1x, a1p, a2x, a2p = _correlated_pair(*epr[0], z_a)
    b1x, b1p, b2x, b2p = _correlated_pair(*epr[1], z_b)
    apx, app = _through_channel(a2x, a2p, scenario.channel_a, z_ca)
    bpx, bpp = _through_channel(b2x, b2p, scenario.channel_b, z_cb)
    return np.stack((
        (a1x + va[:, 0]) / _SQRT2, (a1p - va[:, 1]) / _SQRT2,
        # Bob's pre-displacement heterodyne outcome; the displacement adds
        # g/sqrt(2) times the announced relay data
        (b1x + vb[:, 0]) / _SQRT2, (b1p - vb[:, 1]) / _SQRT2,
        (apx - bpx) / _SQRT2,  # homodyne x of C
        (app + bpp) / _SQRT2,  # homodyne p of D
    ))


def _pm_rows(scenario: Scenario) -> np.ndarray:
    """L of the PM picture, (6, 12). z holds, in order, Alice's and Bob's
    modulations, their coherent states' vacua, cloner A and cloner B (2 each)."""
    z_a, z_b, va, vb, z_ca, z_cb = np.split(np.eye(12), [2, 4, 6, 8, 10], axis=1)
    mod_a = z_a * math.sqrt(scenario.v_a - 1.0)
    mod_b = z_b * math.sqrt(scenario.v_b - 1.0)
    # coherent states: modulation plus vacuum
    qa = mod_a + va
    qb = mod_b + vb
    apx, app = _through_channel(qa[:, 0], qa[:, 1], scenario.channel_a, z_ca)
    bpx, bpp = _through_channel(qb[:, 0], qb[:, 1], scenario.channel_b, z_cb)
    return np.stack((mod_a[:, 0], mod_a[:, 1], mod_b[:, 0], mod_b[:, 1],
                     (apx - bpx) / _SQRT2, (app + bpp) / _SQRT2))


def linear_map(scenario: Scenario, scheme: str) -> np.ndarray:
    """L, shape (6, p): one row of base columns of scheme "EB" or "PM" is
    L z, z the row's p standard normals in the order its builder states."""
    if scheme == "EB":
        return _eb_rows(scenario)
    if scheme == "PM":
        return _pm_rows(scenario)
    raise ValueError(f"scheme must be 'EB' or 'PM', not {scheme!r}")


def _simulate(scenario: Scenario, scheme: str, coeff: float, n: int, seed: int) -> SampleBatch:
    """n rows L z of scheme's picture; z is drawn CHUNK_ROWS rows at a time."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lmap = linear_map(scenario, scheme)
    rng = _rng(seed, "rows")
    rows = np.empty((6, n))
    for lo in range(0, n, CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, n)
        rows[:, lo:hi] = lmap @ rng.standard_normal((hi - lo, lmap.shape[1])).T
    return SampleBatch(scheme, seed, n, scenario.v_a, scenario.v_b, coeff, *rows)


def simulate_eb(scenario: Scenario, g: float, n: int = 100_000, seed: int = 0) -> SampleBatch:
    """Sample the source-based picture: EPR pairs, cloner channels, relay
    beamsplitter, dual homodyne, displacement, heterodyne detections."""
    return _simulate(scenario, "EB", g, n, seed)


def simulate_pm(scenario: Scenario, k: float, n: int = 100_000, seed: int = 0) -> SampleBatch:
    """Sample the modulation-based picture: Gaussian-modulated coherent
    states through the cloner channels, relay measurement, data processing
    X_B = x_b + k X_C, P_B = p_b - k P_D."""
    return _simulate(scenario, "PM", k, n, seed)


@dataclass(frozen=True, eq=False)
class Moments:
    """Second moments of a batch's base columns x_a, p_a, x_b, p_b, x_c, p_d:
    row count n, column sums and Gram matrix sum(v v^T).

    scheme, v_a, v_b and coeff are those of the batch; coeff sets the linear
    map from base to final columns.
    """

    scheme: str
    v_a: float
    v_b: float
    coeff: float
    n: int
    sums: np.ndarray  # (6,)
    gram: np.ndarray  # (6, 6)

    @classmethod
    def of(cls, batch: SampleBatch) -> Moments:
        """Moments of a whole batch: the six columns reduced in one product."""
        rows = np.stack([getattr(batch, c) for c in _BASE])
        return cls(batch.scheme, batch.v_a, batch.v_b, batch.coeff, batch.n,
                   rows.sum(axis=1), rows @ rows.T)

    def covariance(self) -> np.ndarray:
        """Sample covariance (ddof 1) of the drawn columns."""
        return (self.gram - np.outer(self.sums, self.sums) / self.n) / (self.n - 1)

    def final_map(self) -> np.ndarray:
        """L with (X_A, P_A, X_B, P_B, X_C, P_D) = L (x_a, p_a, x_b, p_b, x_c, p_d)."""
        lmap = np.eye(6)
        lmap[2, 4], lmap[3, 5] = _final_weights(self.scheme, self.coeff)
        return lmap

    def final_covariance(self) -> np.ndarray:
        """Covariance of the final columns over the batch, L C L^T."""
        lmap = self.final_map()
        return lmap @ self.covariance() @ lmap.T

    def rescaled(self, eta_scale: float) -> Moments:
        """Moments after scaling the relay data x_c, p_d by sqrt(eta_scale):
        D G D and D s with D = diag(1, 1, 1, 1, r, r), r = sqrt(eta_scale)."""
        if eta_scale <= 0:
            raise ValueError("eta_scale must be > 0")
        r = math.sqrt(eta_scale)
        d = np.array([1.0, 1.0, 1.0, 1.0, r, r])
        return replace(self, sums=self.sums * d, gram=self.gram * np.outer(d, d))


def sample_moments(scenario: Scenario, scheme: str, coeff: float, n: int,
                   seed: int = 0) -> Moments:
    """Moments of n rows of `simulate_eb` (scheme "EB", coeff the gain g) or
    `simulate_pm` ("PM", coeff the amplification k), drawn exactly from their
    law in one draw keyed by seed, not row by row.

    A row is L z with z ~ N(0, I_p) (`linear_map`), so the n rows have sums
    sqrt(n) L u and Gram matrix L (A A^T + u u^T) L^T, with u ~ N(0, I_p) and
    A A^T ~ Wishart(n - 1, I_p) independent of u. A is the Bartlett factor
    (Anderson, An Introduction to Multivariate Statistical Analysis, ch. 7):
    lower triangular, A_ii^2 ~ chi^2(n - 1 - i), standard normals below the
    diagonal. Time and memory do not depend on n. The result has the law of
    `Moments.of` the rows, not their values.
    """
    lmap = linear_map(scenario, scheme)
    p = lmap.shape[1]
    if n <= p:
        raise ValueError(f"n must exceed the {p} normals of a {scheme} row")
    rng = _rng(seed, "moments")
    a = np.diag(np.sqrt(rng.chisquare(n - 1 - np.arange(p))))
    a[np.tril_indices(p, -1)] = rng.standard_normal(p * (p - 1) // 2)
    la, lu = lmap @ a, lmap @ rng.standard_normal(p)
    return Moments(scheme, scenario.v_a, scenario.v_b, coeff, n,
                   math.sqrt(n) * lu, la @ la.T + np.outer(lu, lu))


def _reading(m: Moments) -> np.ndarray:
    """The one reading of data as the block covariance [[a I2, c sigma_z],
    [c sigma_z, b I2]]: symmetric weights R, shape (3, 6, 6), with
    (a + 1, b + 1, c) = tr(R_i F) on the covariance F of the final columns.

    Heterodyne outcomes scaled by sqrt(2) have variances V + 1 and
    covariances +-c; PM modulation data are `modulation_scale` times those
    outcomes, with the p-signs of `bridge_matrix`.
    """
    pm = m.scheme == "PM"
    s_a, s_b = (modulation_scale(m.v_a), modulation_scale(m.v_b)) if pm else (1.0, 1.0)
    r = np.zeros((3, 6, 6))
    r[0, 0, 0] = r[0, 1, 1] = 1.0 / (s_a * s_a)
    r[1, 2, 2] = r[1, 3, 3] = 1.0 / (s_b * s_b)
    r[2, 0, 2] = r[2, 2, 0] = 0.5 / (s_a * s_b)
    r[2, 1, 3] = r[2, 3, 1] = -0.5 / (s_a * s_b)
    return r


def _read_block_params(m: Moments, coeff=None):
    """(a, b, c) of `_reading` with Bob's final data formed at the batch's
    coeff or at coeff (a float or an array, elementwise): L = I + coeff D, so
    tr(R L C L^T) = tr(R C) + coeff tr(R (D C + C D^T)) + coeff^2 tr(R D C D^T).
    """
    d = np.zeros((6, 6))
    d[2, 4], d[3, 5] = _final_weights(m.scheme, 1.0)
    cov = m.covariance()
    dc = d @ cov
    poly = np.einsum("rij,pij->rp", _reading(m), np.stack([cov, dc + dc.T, dc @ d.T]))
    k = np.asarray(m.coeff if coeff is None else coeff, dtype=float)
    a1, b1, c = (p0 + k * (p1 + k * p2) for p0, p1, p2 in poly)
    return a1 - 1.0, b1 - 1.0, c


def heterodyne_image(a: float, b: float, c: float) -> np.ndarray:
    """Predicted covariance of dual-heterodyne outcomes of the two-mode state
    with block covariance (a, b, c)."""
    return np.array([
        [(a + 1) / 2, 0, c / 2, 0],
        [0, (a + 1) / 2, 0, -c / 2],
        [c / 2, 0, (b + 1) / 2, 0],
        [0, -c / 2, 0, (b + 1) / 2],
    ])


def _entry_se(cov: np.ndarray, n) -> np.ndarray:
    """Standard error of each entry of the sample covariance of n Gaussian
    samples whose true covariance is cov: sqrt((C_ii C_jj + C_ij^2) / n)."""
    var = np.outer(np.diag(cov), np.diag(cov)) + cov**2
    return np.sqrt(var / n)


def _reading_covariance(weights: np.ndarray, cov: np.ndarray, n) -> np.ndarray:
    """Covariance of the readings tr(R_i F) of the sample covariance F of n
    Gaussian samples whose true covariance is cov, for symmetric weights R_i:
    2 tr(R_i cov R_j cov) / n, the rule of `_entry_se` summed over entries."""
    rc = weights @ cov
    return 2.0 * np.einsum("iab,jba->ij", rc, rc) / n


def _param_gradient(a: float, b: float, c: float) -> np.ndarray:
    """Jacobian d(t, eps')/d(a, b, c) of t = c^2/(a^2 - 1) and
    eps' = (b - 1)/t - (a - 1)."""
    q = a * a - 1.0
    t = c * c / q
    return np.array([
        [-2.0 * a * t / q, 0.0, 2.0 * c / q],
        [2.0 * a * (b - 1.0) / (c * c) - 1.0, 1.0 / t, -2.0 * (b - 1.0) / (t * c)],
    ])


def covariance_z_scores(emp_cov: np.ndarray, predicted: np.ndarray, n: int) -> np.ndarray:
    """Entrywise z-scores of an empirical covariance against a prediction,
    with the standard error evaluated at the prediction."""
    return (emp_cov - predicted) / _entry_se(predicted, n)


def equivalence_z_scores(eb: Moments, pm: Moments) -> np.ndarray:
    """Entrywise z-scores of a PM batch's 6x6 final covariance against that of
    an independent, equally large EB batch mapped by `bridge_matrix`. Two
    independent n-sample estimates differ with the standard error of one
    n/2-sample estimate, evaluated at their mean."""
    if (eb.scheme, pm.scheme) != ("EB", "PM"):
        raise ValueError("equivalence compares an EB batch with a PM batch")
    s = bridge_matrix(eb.v_a, eb.v_b)
    cov_eb = s @ eb.final_covariance() @ s
    cov_pm = pm.final_covariance()
    return (cov_pm - cov_eb) / _entry_se(0.5 * (cov_eb + cov_pm), pm.n / 2)


@dataclass(frozen=True)
class EstimatedParams:
    a: float
    b: float
    c: float
    t_hat: float
    eps_hat: float
    t_se: float
    eps_se: float


def estimate_params(m: Moments) -> EstimatedParams:
    """Fit (T, eps') to the two-mode block structure from second moments.

    (a, b, c) is read by `_read_block_params` and inverted through
    b = T (a - 1) + 1 + T eps', c^2 = T (a^2 - 1). Every covariance has
    ddof 1. Standard errors are the delta method (`_param_gradient`) on
    Cov(a, b, c) = 2 tr(R_i F R_j F)/n, the Isserlis covariance of the
    readings R of `_reading` with n the row count, evaluated at the batch's
    own final covariance F: the result is a function of the data alone.
    """
    if m.n < MIN_ESTIMATION_SAMPLES:
        raise ValueError(f"need at least {MIN_ESTIMATION_SAMPLES} samples for estimation")
    # G/n - mean^2 of a constant column is rounding noise of its raw second
    # moment G/n, so the variance is judged relative to that
    lmap = m.final_map()
    raw = np.diag(lmap @ m.gram @ lmap.T)[:4] / m.n
    final = m.final_covariance()
    if np.any(np.diag(final)[:4] <= 1e-12 * raw):
        raise ValueError("degenerate (zero-variance) data column")
    a, b, c = (float(v) for v in _read_block_params(m))
    t = c * c / (a * a - 1.0)
    eps = (b - 1.0 - t * (a - 1.0)) / t
    grad = _param_gradient(a, b, c)
    var = np.diag(grad @ _reading_covariance(_reading(m), final, m.n) @ grad.T)
    return EstimatedParams(a=a, b=b, c=c, t_hat=t, eps_hat=eps,
                           t_se=math.sqrt(var[0]), eps_se=math.sqrt(var[1]))


def key_rates_vs_k_from_batch(m: Moments, k_grid, beta: float = 1.0) -> np.ndarray:
    """Data-driven key rate for each k, from one PM batch's second moments.

    Reads only the drawn columns x_a ... p_d, so the batch's own k does not
    enter. The whole grid goes to the grid kernel in one call.
    """
    if m.scheme != "PM":
        raise ValueError("k sweep over data requires a PM batch")
    a, b, c = _read_block_params(m, coeff=np.asarray(k_grid, dtype=float))
    return kernels.block_key_rate_grid(a, b, c, beta)


def _ascii_words(texts) -> np.ndarray:
    """Words whose bytes, in memory order, are the texts (8 bytes at most)."""
    return np.array([int.from_bytes(t.encode(), "little") for t in texts], _WORD)


def _veltkamp(x: np.ndarray):
    """(hi, lo) with x = hi + lo exactly, each half of at most 26 bits."""
    t = x * 134217729.0  # 2^27 + 1
    hi = t - (t - x)
    return hi, x - hi


@functools.cache
def _cell_tables():
    """Tables of the bulk cell formatter, built on first use and read-only,
    all indexed by k = 16 - e (the decimal exponent e in [-6, 16]) or by
    digits: 10^k and its Veltkamp halves (exact doubles, k <= 22); the
    "[-]d.d" heads of a significand's first two digits (index + 100 if
    negative); the three digits of 0..999; the exponent fields "e+XX" in bytes
    3..6."""
    pow10 = np.array([float(10**k) for k in range(23)])
    hi, lo = _veltkamp(pow10)
    heads = _ascii_words(f"{sign}{q // 10}.{q % 10}" for sign in "\0-" for q in range(100))
    groups = _ascii_words(f"{i:03d}" for i in range(1000))
    exps = _ascii_words(f"\0\0\0e{16 - k:+03d}" for k in range(23))
    tables = (pow10, hi, lo, heads, groups, exps)
    for table in tables:
        table.flags.writeable = False
    return tables


def _format_block(block: np.ndarray) -> bytes:
    """block's rows as CSV text, each cell `'%.16e' % v`.

    Cell by cell, e = floor(log10|v|) and k = 16 - e give P = |v| 10^k, whose
    half-even rounding D is the 17-digit significand. Dekker's TwoProduct
    (Numer. Math. 18, 224 (1971)) writes P = p + err exactly with p the
    double product; P >= 1e16 > 2^53 makes p an even integer, so
    D = p + rint(err) rounds half to even, as CPython's dtoa does. A cell is
    certified when P >= 1e16 and D < 1e17, which also proves e right. Its
    text comes from digit tables, in four little-endian words: the sign, the
    first digit, the point and 5 digits; 8 digits; the last 3 digits and
    "e+XX"; the separator. Every other cell (zero, non-finite, |v| outside
    [1e-6, 1e17), or an e that log10 missed next to a power of ten) is
    `'%.16e' % v`, at most 24 bytes, in the first three words. The NUL bytes
    that pad the words are dropped.
    """
    pow10, pow10_hi, pow10_lo, heads, groups, exps = _cell_tables()
    v = block.ravel()
    a = np.abs(v)
    bulk = (a >= 1e-6) & (a < 1e17)  # False for NaN
    a = np.where(bulk, a, 1.0)  # keeps log10 and the casts finite
    k = np.clip(16 - np.floor(np.log10(a)).astype(np.int64), 0, 22)
    p = a * pow10[k]
    a_hi, a_lo = _veltkamp(a)
    b_hi, b_lo = pow10_hi[k], pow10_lo[k]
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    d = p.astype(np.int64) + np.rint(err).astype(np.int64)
    certified = bulk & ((p > 1e16) | (p == 1e16) & (err >= 0.0)) & (d < 10**17)
    # d = head 10^15 + g12 10^9 + g345, head the first two digits
    head = d // 10**15
    d -= head * 10**15
    g12 = d // 10**9
    g345 = d - g12 * 10**9
    g1, g34 = g12 // 1000, g345 // 1000
    g3 = g34 // 1000
    g2 = groups[g12 - g1 * 1000]
    words = np.empty((block.shape[0], block.shape[1], 4), _WORD)
    words[..., 3] = ord(",")
    words[:, -1, 3] = ord("\n")
    words = words.reshape(-1, 4)
    words[:, 0] = heads[head + 100 * np.signbit(v)] | groups[g1] << 32 | g2 << 56
    words[:, 1] = g2 >> 8 | groups[g3] << 16 | groups[g34 - g3 * 1000] << 40
    words[:, 2] = groups[g345 - g34 * 1000] | exps[k]
    rest = np.flatnonzero(~certified)
    if rest.size:
        text = np.array(["%.16e" % x for x in v[rest].tolist()], dtype="S24")
        words[rest, :3] = text.view(_WORD).reshape(-1, 3)
    return words.tobytes().translate(None, b"\0")


def export_csv(batch: SampleBatch, path) -> None:
    """One sample per line, each cell `'%.16e' % v` of its float.

    17 significant digits always round-trip a binary64 value (DBL_DECIMAL_DIG),
    and this layout does not depend on the value. Each block of _EXPORT_ROWS
    rows is formatted by exact whole-array arithmetic (`_format_block`), which
    certifies every cell with 1e-6 <= |v| < 1e17 but a few next to a power of
    ten; only the cells it does not certify are formatted one by one. Each
    block is one `write`.
    """
    cols = batch.columns()
    with open(path, "wb") as fh:
        fh.write(f"# scheme={batch.scheme} seed={batch.seed} n={batch.n} "
                 f"v_a={batch.v_a!r} v_b={batch.v_b!r} coeff={batch.coeff!r}\n"
                 f"{','.join(cols)}\n".encode())
        for lo in range(0, batch.n, _EXPORT_ROWS):
            block = np.stack([c[lo:lo + _EXPORT_ROWS] for c in cols.values()], axis=1)
            fh.write(_format_block(block))
