"""Key-rate kernels: functions of the block covariance (a, b, c) alone.

(a, b, c) means [[a*I2, c*sigma_z], [c*sigma_z, b*I2]] in shot-noise units.
`protocol` owns the reduction that produces it (gain -> (T, eps') ->
(a, b, c)); this module only evaluates it, one block at a time, with plain
`math`: each function takes and returns floats. Every key rate of the
package is one `keyrate._evaluate`, which makes one
`block_mutual_information` and one `block_holevo_reverse` call: each point
of `keyrate.secret_key_rate` (and so every sweep, range search and
threshold search) and each k of the detection scheme's k maximum. Callers
outside this module call them as `kernels.<name>`, so that a test or a
tracer that replaces the module's attribute sees every evaluation.
"""

from math import log2, sqrt


def g_entropy(nu: float) -> float:
    """Bosonic entropy g(nu) in bits; 0 for nu <= 1 (clamps roundoff)."""
    if nu <= 1.0:
        return 0.0
    ap = (nu + 1.0) / 2.0
    am = (nu - 1.0) / 2.0
    return ap * log2(ap) - am * log2(am)


def block_symplectic_eigenvalues(a: float, b: float, c: float) -> tuple[float, float]:
    """(nu1, nu2) of the two-mode block covariance, nu1 >= nu2.

    A negative roundoff under a root is clamped to 0: `0.0 if 0.0 > x else x`
    is `max(x, 0.0)`, NaN and -0.0 included, without the builtin's call.
    """
    delta = a * a + b * b - 2.0 * c * c
    det = (a * b - c * c) ** 2
    disc_sq = delta * delta - 4.0 * det
    disc = sqrt(0.0 if 0.0 > disc_sq else disc_sq)
    nu2_sq = (delta - disc) / 2.0
    return sqrt((delta + disc) / 2.0), sqrt(0.0 if 0.0 > nu2_sq else nu2_sq)


def block_mutual_information(a: float, b: float, c: float) -> float:
    """Two-quadrature Gaussian mutual information for dual heterodyne, bits."""
    return log2((a + 1.0) / (a + 1.0 - c * c / (b + 1.0)))


def block_holevo_reverse(a: float, b: float, c: float) -> float:
    """Holevo bound on Eve's information about mode-B heterodyne data, bits."""
    nu1, nu2 = block_symplectic_eigenvalues(a, b, c)
    nu3 = a - c * c / (b + 1.0)
    return g_entropy(nu1) + g_entropy(nu2) - g_entropy(nu3)
