"""Quadrature-level Monte Carlo sampler for both protocol pictures.

States each picture once, as a linear map L: the oracle checks identities
of its law L L^T exactly, and draws from it for parameter estimation.

Sampling conventions (shot-noise units, vacuum variance 1):
  * homodyne reads the quadrature value exactly;
  * heterodyne outcome y_x = (q_x + v_x)/sqrt(2), y_p = (q_p - v_p)/sqrt(2)
    with v a fresh vacuum, so the outcome variance is (V + 1)/2 per
    quadrature, matching `heterodyne_image`.

Physics: every step is linear, so a row of base columns is L z, z the row's
p standard normals (p = 16 for EB, 12 for PM). `_eb_rows` and `_pm_rows`
state each picture once, as the map L (`linear_map`), and the sampler has no
other statement of it: the law, the moments and the rows all come from L.

Floats: L, the law, the moments, the readings and the estimates are plain
floats, matrices are lists of rows, and every sum of products is one
`math.fsum` (`_dot`, `_mul`), so each entry is correctly rounded whatever
the platform (Shewchuk, Discrete Comput. Geom. 18, 305 (1997)). Only the PM
rows and their CSV export, which no `cvmdi` command calls, are numpy
arrays; those functions import numpy when they run, so importing this
module, or running the oracle, does not load it.

Rows: `simulate_pm` draws z from one Philox generator keyed by the seed
(`_row_rng`), CHUNK_ROWS rows of p normals at a time, and writes L z for
each block, so row j is L times the stream's j-th run of p normals whatever
n is. Rows serve the CSV export alone; the oracle and every estimate read
moments (`sample_moments`). A `SampleBatch` holds only the drawn columns
x_a, p_a, x_b, p_b, x_c, p_d; Bob's final data X_B = x_b + k x_c,
P_B = p_b - k p_d (`_final_weights`) are derived on demand. `export_csv`
writes the final columns, every cell `'%.16e' % v`: 17 correctly rounded
significant digits, which round-trip, in a layout that does not depend on
the value. A block of rows is formatted by exact integer arithmetic on
whole arrays, for every cell with 1e-6 <= |v| < 1e17 but a few next to a
power of ten; only the other cells go through `%` one by one.

Moments: every estimator here reads second moments only. `Moments` holds
one covariance C of the drawn columns (ddof 1) and the row count n, so every
covariance is a linear image of C. `sample_moments` draws C of n rows
exactly from its law, from L and a Bartlett-decomposed Wishart draw from
Python's `random` (`_moment_rng`), in time and memory independent of n;
`row_law` is the law itself, C = L L^T with n = 0. `_reading` states once
how data are read as the block covariance (a, b, c): fixed weights R on the
covariance F of the final columns (`Moments.final_covariance`). Estimation,
its errors and the oracle's rescaling suite all use it. Standard errors are
the Isserlis covariance of a sample covariance of n Gaussian rows carried to
those readings (`_reading_covariance`).

Channels: each leg is an entangling cloner. Eve's kept arm never reaches the
data, so the sampler draws only the mode she injects into the channel.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, replace
from operator import mul
from typing import Any

from .protocol import _SQRT2, MIN_ESTIMATION_SAMPLES, Scenario, k_from_gain

# rows per block of the row draw (a transient of p CHUNK_ROWS normals)
CHUNK_ROWS = 1 << 15
# rows per block of the CSV export: a block's float64 transients are 96 KiB;
# at 8192 rows (384 KiB each) a 1e5-row export took twice as long (2-CPU
# x86-64 Linux, numpy 2.4)
_EXPORT_ROWS = 1 << 11
# the export's text words, as a numpy dtype: 8 bytes each, in memory order on any host
_WORD = "<u8"


def _row_rng(seed: int):
    """The Philox generator of the row draw, keyed by the seed."""
    import numpy as np

    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(0, 0))
    return np.random.Generator(np.random.Philox(ss))


def _moment_rng(seed: int) -> random.Random:
    """The generator of the moment draw, keyed by a str of the seed: `random`
    seeds from its SHA-512, never from `hash()`, so every process draws the
    same values."""
    return random.Random(f"moments:{int(seed)}")


class UnsupportedScenario(ValueError):
    """A scenario outside what the oracle checks; the message names the field."""


def _dot(u, v) -> float:
    """sum u_i v_i, correctly rounded: one `math.fsum` of the products."""
    return math.fsum(map(mul, u, v))


def _t(a) -> list:
    """The transpose of a matrix given as a sequence of rows."""
    return [list(col) for col in zip(*a)]


def _mul(a, b) -> list:
    """The product a b of matrices given as sequences of rows, each entry a `_dot`."""
    cols = list(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]


def _sandwich(m, c) -> list:
    """m c m^T."""
    return _mul(_mul(m, c), _t(m))


def _abs(a) -> list:
    return [[abs(x) for x in row] for row in a]


def _flat(a) -> list:
    return [x for row in a for x in row]


def _combine(*terms) -> list:
    """The linear form sum c f over (c, f) pairs of a coefficient and a form
    (a list of p coefficients of z), each entry a `_dot`."""
    coeffs, forms = zip(*terms)
    return _mul([coeffs], forms)[0]


def _units(p: int) -> list:
    """The forms of z_0 ... z_{p-1}: the rows of the p x p identity."""
    return [[float(i == j) for j in range(p)] for i in range(p)]


def _epr_pair(v: float, z) -> tuple:
    """(x1, p1, x2, p2) of a two-mode squeezed source of variance v, from the
    forms z of its 4 normals. The covariances [[v, +-c], [+-c, v]] of x and
    of p, c = sqrt(v^2 - 1), have the exact Cholesky factors
    [[sqrt(v), 0], [+-c/sqrt(v), 1/sqrt(v)]], as c^2 + 1 = v^2: no
    factorisation runs, and none can fail at any v."""
    r = math.sqrt(v)
    s = math.sqrt((v - 1.0) * (v + 1.0)) / r
    zx1, zx2, zp1, zp2 = z
    return (_combine((r, zx1)), _combine((r, zp1)),
            _combine((s, zx1), (1.0 / r, zx2)), _combine((-s, zp1), (1.0 / r, zp2)))


def _through_channel(qx, qp, channel, z) -> tuple:
    """Entangling-cloner channel output sqrt(eta) q + sqrt(1 - eta + eta eps) z.

    Only the injected cloner mode reaches the output, and its variance
    (1 - eta) W = 1 - eta + eta eps, so z is the forms of 2 normals instead
    of a full EPR pair. At eta = 1 the noise eps is kept: the L -> 0+ limit
    of the analytic composition.
    """
    eta = channel.transmittance
    t, r = math.sqrt(eta), math.sqrt(1.0 - eta + eta * channel.excess_noise)
    return _combine((t, qx), (r, z[0])), _combine((t, qp), (r, z[1]))


def _final_weights(scheme: str, coeff: float) -> tuple[float, float]:
    """(w_x, w_p) of the final data X_B = x_b + w_x x_c, P_B = p_b + w_p p_d."""
    if scheme == "PM":
        return coeff, -coeff
    w = coeff / _SQRT2
    return w, w


@dataclass(frozen=True)
class SampleBatch:
    """Drawn rows of the PM picture; all columns are float64 numpy arrays of
    length n, in shot-noise units: (x_a, p_a) and (x_b, p_b) are Alice's and
    Bob's modulation values, (x_c, p_d) the relay data, and coeff is the
    amplification k.
    """

    seed: int
    n: int
    v_a: float
    v_b: float
    coeff: float
    x_a: Any
    p_a: Any
    x_b: Any
    p_b: Any
    x_c: Any
    p_d: Any

    def columns(self) -> dict:
        """Final 6-variable data, ordered X_A, P_A, X_B, P_B, X_C, P_D; X_B
        and P_B are computed from the drawn columns at the batch's coeff."""
        w_x, w_p = _final_weights("PM", self.coeff)
        return {
            "X_A": self.x_a, "P_A": self.p_a,
            "X_B": self.x_b + w_x * self.x_c, "P_B": self.p_b + w_p * self.p_d,
            "X_C": self.x_c, "P_D": self.p_d,
        }

    def data_matrix(self):
        """The final columns as one (n, 6) numpy array."""
        import numpy as np

        return np.column_stack(list(self.columns().values()))


def modulation_scale(v: float) -> float:
    """Ratio between modulation data and heterodyne-outcome data for one
    party: sqrt(2 (V-1)/(V+1)), the amplification k equivalent to a gain of
    sqrt(2)."""
    return k_from_gain(_SQRT2, v)


def bridge_matrix(v_a: float, v_b: float) -> list:
    """Diagonal map from EB outcome columns to PM modulation columns.

    PM data = diag(s_a, -s_a, s_b, -s_b, 1, 1) * EB data, with
    s = sqrt(2 (V-1)/(V+1)); the p-signs carry the sigma_z correlation
    structure of the sources.
    """
    s_a, s_b = modulation_scale(v_a), modulation_scale(v_b)
    diag = (s_a, -s_a, s_b, -s_b, 1.0, 1.0)
    return [[d if i == j else 0.0 for j in range(6)] for i, d in enumerate(diag)]


def _eb_rows(scenario: Scenario) -> list:
    """L of the EB picture, 6 rows of 16. z holds, in order, Alice's and
    Bob's EPR blocks (4 each), cloner A, cloner B, Alice's and Bob's
    detection vacua (2 each)."""
    z = _units(16)
    a1x, a1p, a2x, a2p = _epr_pair(scenario.v_a, z[0:4])
    b1x, b1p, b2x, b2p = _epr_pair(scenario.v_b, z[4:8])
    apx, app = _through_channel(a2x, a2p, scenario.channel_a, z[8:10])
    bpx, bpp = _through_channel(b2x, b2p, scenario.channel_b, z[10:12])
    (vax, vap), (vbx, vbp) = z[12:14], z[14:16]
    h = 1.0 / _SQRT2
    return [
        _combine((h, a1x), (h, vax)), _combine((h, a1p), (-h, vap)),
        # Bob's pre-displacement heterodyne outcome; the displacement adds
        # g/sqrt(2) times the announced relay data
        _combine((h, b1x), (h, vbx)), _combine((h, b1p), (-h, vbp)),
        _combine((h, apx), (-h, bpx)),  # homodyne x of C
        _combine((h, app), (h, bpp)),  # homodyne p of D
    ]


def _pm_rows(scenario: Scenario) -> list:
    """L of the PM picture, 6 rows of 12. z holds, in order, Alice's and
    Bob's modulations, their coherent states' vacua, cloner A and cloner B
    (2 each)."""
    z = _units(12)
    mod_a = [_combine((math.sqrt(scenario.v_a - 1.0), f)) for f in z[0:2]]
    mod_b = [_combine((math.sqrt(scenario.v_b - 1.0), f)) for f in z[2:4]]
    # coherent states: modulation plus vacuum
    qa = [_combine((1.0, m), (1.0, v)) for m, v in zip(mod_a, z[4:6])]
    qb = [_combine((1.0, m), (1.0, v)) for m, v in zip(mod_b, z[6:8])]
    apx, app = _through_channel(*qa, scenario.channel_a, z[8:10])
    bpx, bpp = _through_channel(*qb, scenario.channel_b, z[10:12])
    h = 1.0 / _SQRT2
    return [*mod_a, *mod_b, _combine((h, apx), (-h, bpx)), _combine((h, app), (h, bpp))]


def linear_map(scenario: Scenario, scheme: str) -> list:
    """L, 6 rows of p floats: one row of base columns of scheme "EB" or "PM"
    is L z, z the row's p standard normals in the order its builder states."""
    if scheme == "EB":
        return _eb_rows(scenario)
    if scheme == "PM":
        return _pm_rows(scenario)
    raise ValueError(f"scheme must be 'EB' or 'PM', not {scheme!r}")


def simulate_pm(scenario: Scenario, k: float, n: int = 100_000, seed: int = 0) -> SampleBatch:
    """n rows L z of the modulation-based picture: Gaussian-modulated
    coherent states through the cloner channels, relay measurement, data
    processing X_B = x_b + k X_C, P_B = p_b - k P_D. z is drawn CHUNK_ROWS
    rows at a time."""
    import numpy as np

    if n < 1:
        raise ValueError("n must be >= 1")
    lmap = np.array(linear_map(scenario, "PM"))
    rng = _row_rng(seed)
    rows = np.empty((6, n))
    for lo in range(0, n, CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, n)
        rows[:, lo:hi] = lmap @ rng.standard_normal((hi - lo, lmap.shape[1])).T
    return SampleBatch(seed, n, scenario.v_a, scenario.v_b, k, *rows)


@dataclass(frozen=True, eq=False)
class Moments:
    """Second moments of the base columns x_a, p_a, x_b, p_b, x_c, p_d of
    scheme's rows: their covariance `cov` (ddof 1) over n rows, 6 rows of 6
    floats. A law (`row_law`) has n = 0: it is no sample, and
    `estimate_params` refuses it.

    coeff (the gain g for "EB", the amplification k for "PM") sets the
    linear map from base to final columns.
    """

    scheme: str
    v_a: float
    v_b: float
    coeff: float
    n: int
    cov: list  # 6 rows of 6 floats

    def final_map(self) -> list:
        """L with (X_A, P_A, X_B, P_B, X_C, P_D) = L (x_a, p_a, x_b, p_b, x_c, p_d)."""
        lmap = _units(6)
        lmap[2][4], lmap[3][5] = _final_weights(self.scheme, self.coeff)
        return lmap

    def final_covariance(self) -> list:
        """Covariance of the final columns, L C L^T."""
        return _sandwich(self.final_map(), self.cov)

    def rescaled(self, eta_scale: float) -> Moments:
        """Moments after scaling the relay data x_c, p_d by sqrt(eta_scale):
        D C D with D = diag(1, 1, 1, 1, r, r), r = sqrt(eta_scale)."""
        if eta_scale <= 0:
            raise ValueError("eta_scale must be > 0")
        r = math.sqrt(eta_scale)
        d = (1.0, 1.0, 1.0, 1.0, r, r)
        return replace(self, cov=[[g * (x * y) for g, y in zip(row, d)]
                                  for row, x in zip(self.cov, d)])


def sample_moments(scenario: Scenario, scheme: str, coeff: float, n: int,
                   seed: int = 0) -> Moments:
    """Moments of n rows of scheme "EB" (coeff the gain g) or "PM" (coeff the
    amplification k), drawn exactly from their law in one draw keyed by seed
    (`_moment_rng`), not row by row.

    A row is L z with z ~ N(0, I_p) (`linear_map`), so the sample covariance
    of n rows is L A A^T L^T / (n - 1) with A A^T ~ Wishart(n - 1, I_p),
    independent of the sample mean, which is not drawn. A is the Bartlett
    factor (Anderson, An Introduction to Multivariate Statistical Analysis,
    ch. 3 and 7): lower triangular, A_ii^2 ~ chi^2(n - 1 - i), a gamma variate
    of shape (n - 1 - i)/2 and scale 2, and standard normals below the
    diagonal, drawn row by row. Each entry is one correctly rounded sum of
    products of rows of L A, then divided by n - 1. Time and memory do not
    depend on n. The result has the law of the sample covariance of n rows,
    not the values of any drawn rows.
    """
    lmap = linear_map(scenario, scheme)
    p = len(lmap[0])
    if n <= p:
        raise ValueError(f"n must exceed the {p} normals of a {scheme} row")
    rng = _moment_rng(seed)
    diag = [math.sqrt(rng.gammavariate((n - 1 - i) / 2.0, 2.0)) for i in range(p)]
    a = [[rng.gauss(0.0, 1.0) for _ in range(i)] + [diag[i]] + [0.0] * (p - 1 - i)
         for i in range(p)]
    la = _mul(lmap, a)
    return Moments(scheme, scenario.v_a, scenario.v_b, coeff, n,
                   [[_dot(ra, rb) / (n - 1) for rb in la] for ra in la])


def row_law(scenario: Scenario, scheme: str, coeff: float) -> tuple[Moments, list]:
    """The exact law of a row of scheme "EB" (coeff g) or "PM" (coeff k),
    drawn from nothing: `Moments` whose covariance is L L^T
    and whose n is 0, and the rounding scale (|M||L|)(|M||L|)^T of its final
    covariance, M the final map. It bounds the summed products entry by
    entry, so a computed entry is within a few ulps of its scale however much
    the sum cancels."""
    lmap = linear_map(scenario, scheme)
    law = Moments(scheme, scenario.v_a, scenario.v_b, coeff, 0, _mul(lmap, _t(lmap)))
    bound = _mul(_abs(law.final_map()), _abs(lmap))
    return law, _mul(bound, _t(bound))


def _reading(m: Moments) -> list:
    """The one reading of data as the block covariance [[a I2, c sigma_z],
    [c sigma_z, b I2]]: three symmetric 6 x 6 weights R_i, with
    (a + 1, b + 1, c) = tr(R_i F) on the covariance F of the final columns.

    Heterodyne outcomes scaled by sqrt(2) have variances V + 1 and
    covariances +-c; PM modulation data are `modulation_scale` times those
    outcomes, with the p-signs of `bridge_matrix`.
    """
    pm = m.scheme == "PM"
    s_a, s_b = (modulation_scale(m.v_a), modulation_scale(m.v_b)) if pm else (1.0, 1.0)
    r = [[[0.0] * 6 for _ in range(6)] for _ in range(3)]
    r[0][0][0] = r[0][1][1] = 1.0 / (s_a * s_a)
    r[1][2][2] = r[1][3][3] = 1.0 / (s_b * s_b)
    r[2][0][2] = r[2][2][0] = 0.5 / (s_a * s_b)
    r[2][1][3] = r[2][3][1] = -0.5 / (s_a * s_b)
    return r


def _read_block_params(m: Moments, coeffs=None) -> list[tuple[float, float, float]]:
    """(a, b, c) of `_reading` with Bob's final data formed at each k of
    coeffs, or at the batch's coeff alone: L = I + k D, so
    tr(R L C L^T) = tr(R C) + k tr(R (D C + C D^T)) + k^2 tr(R D C D^T),
    whose three traces are read once for every k.
    """
    d = [[0.0] * 6 for _ in range(6)]
    d[2][4], d[3][5] = _final_weights(m.scheme, 1.0)
    dc = _mul(d, m.cov)
    terms = [_flat(m.cov), [x + y for x, y in zip(_flat(dc), _flat(_t(dc)))],
             _flat(_mul(dc, _t(d)))]
    poly = [[_dot(_flat(r), t) for t in terms] for r in _reading(m)]
    blocks = []
    for k in [m.coeff] if coeffs is None else coeffs:
        a1, b1, c = (p0 + k * (p1 + k * p2) for p0, p1, p2 in poly)
        blocks.append((a1 - 1.0, b1 - 1.0, c))
    return blocks


def heterodyne_image(a: float, b: float, c: float) -> list:
    """Predicted covariance of dual-heterodyne outcomes of the two-mode state
    with block covariance (a, b, c)."""
    return [
        [(a + 1) / 2, 0.0, c / 2, 0.0],
        [0.0, (a + 1) / 2, 0.0, -c / 2],
        [c / 2, 0.0, (b + 1) / 2, 0.0],
        [0.0, -c / 2, 0.0, (b + 1) / 2],
    ]


def _reading_covariance(weights, cov, n) -> list:
    """Covariance of the readings tr(R_i F) of the sample covariance F of n
    Gaussian samples whose true covariance is cov, for symmetric weights R_i:
    2 tr(R_i cov R_j cov) / n, from Cov(F_ab, F_cd) = (cov_ac cov_bd +
    cov_ad cov_bc) / n summed over entries."""
    rc = [_mul(w, cov) for w in weights]
    rows, cols = [_flat(x) for x in rc], [_flat(_t(x)) for x in rc]
    return [[2.0 * _dot(ri, cj) / n for cj in cols] for ri in rows]


def _param_gradient(a: float, b: float, c: float) -> list:
    """Jacobian d(t, eps')/d(a, b, c) of t = c^2/(a^2 - 1) and
    eps' = (b - 1)/t - (a - 1)."""
    q = a * a - 1.0
    t = c * c / q
    return [
        [-2.0 * a * t / q, 0.0, 2.0 * c / q],
        [2.0 * a * (b - 1.0) / (c * c) - 1.0, 1.0 / t, -2.0 * (b - 1.0) / (t * c)],
    ]


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
    final = m.final_covariance()
    if any(final[i][i] <= 0.0 for i in range(4)):
        raise ValueError("degenerate (zero-variance) data column")
    a, b, c = _read_block_params(m)[0]
    t = c * c / (a * a - 1.0)
    eps = (b - 1.0 - t * (a - 1.0)) / t
    grad = _param_gradient(a, b, c)
    spread = _mul(grad, _reading_covariance(_reading(m), final, m.n))
    t_var, eps_var = (_dot(row, g) for row, g in zip(spread, grad))
    return EstimatedParams(a=a, b=b, c=c, t_hat=t, eps_hat=eps,
                           t_se=math.sqrt(t_var), eps_se=math.sqrt(eps_var))


def _ascii_words(texts):
    """Words whose bytes, in memory order, are the texts (8 bytes at most)."""
    import numpy as np

    return np.array([int.from_bytes(t.encode(), "little") for t in texts], _WORD)


def _veltkamp(x):
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
    import numpy as np

    pow10 = np.array([float(10**k) for k in range(23)])
    hi, lo = _veltkamp(pow10)
    heads = _ascii_words(f"{sign}{q // 10}.{q % 10}" for sign in "\0-" for q in range(100))
    groups = _ascii_words(f"{i:03d}" for i in range(1000))
    exps = _ascii_words(f"\0\0\0e{16 - k:+03d}" for k in range(23))
    tables = (pow10, hi, lo, heads, groups, exps)
    for table in tables:
        table.flags.writeable = False
    return tables


def _format_block(block) -> bytes:
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
    import numpy as np

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
    import numpy as np

    cols = batch.columns()
    with open(path, "wb") as fh:
        fh.write(f"# scheme=PM seed={batch.seed} n={batch.n} "
                 f"v_a={batch.v_a!r} v_b={batch.v_b!r} coeff={batch.coeff!r}\n"
                 f"{','.join(cols)}\n".encode())
        for lo in range(0, batch.n, _EXPORT_ROWS):
            block = np.stack([c[lo:lo + _EXPORT_ROWS] for c in cols.values()], axis=1)
            fh.write(_format_block(block))
