"""Key-rate kernels: functions of the block covariance (a, b, c) alone.

(a, b, c) means [[a*I2, c*sigma_z], [c*sigma_z, b*I2]] in shot-noise units.
`protocol` owns the reduction that produces it (gain -> (T, eps') ->
(a, b, c)); this module only evaluates it. It imports only `math`, so a
process that evaluates one point at a time never loads numpy: each `*_grid`
function imports numpy when it is called.

Each formula exists twice, and the call site picks the form:

* the scalar functions take and return floats and use plain `math`. They
  serve one evaluation at a time: `keyrate.secret_key_rate` (one
  `block_mutual_information` and one `block_holevo_reverse` call per point,
  and so every sweep and range search) and the detection scheme's k maximum
  (one `block_key_rate` call per k);
* the `*_grid` functions take numpy arrays (scalars broadcast) and evaluate
  a whole grid in one call: `block_key_rate_grid` for `keyrate.key_rate_vs_k`
  (a key rate per k of an array) and `montecarlo.key_rates_vs_k_from_batch`.
  The grid Holevo bound makes one entropy pass, over the stacked symplectic
  eigenvalues (nu1, nu2, nu3), and `block_key_rate_grid` computes what the
  mutual information and nu3 share once. Both equal, bit for bit, the
  composition g(nu1) + g(nu2) - g(nu3) and beta*I - chi of the other grid
  functions.

The test suite checks the two forms against each other elementwise.
"""

from math import log2, sqrt


# -- scalar functions (math) ---------------------------------------------------
def g_entropy(nu: float) -> float:
    """Bosonic entropy g(nu) in bits; 0 for nu <= 1 (clamps roundoff)."""
    if nu <= 1.0:
        return 0.0
    ap = (nu + 1.0) / 2.0
    am = (nu - 1.0) / 2.0
    return ap * log2(ap) - am * log2(am)


def block_symplectic_eigenvalues(a: float, b: float, c: float) -> tuple[float, float]:
    """(nu1, nu2) of the two-mode block covariance, nu1 >= nu2."""
    delta = a * a + b * b - 2.0 * c * c
    det = (a * b - c * c) ** 2
    disc = sqrt(max(delta * delta - 4.0 * det, 0.0))
    return sqrt((delta + disc) / 2.0), sqrt(max((delta - disc) / 2.0, 0.0))


def block_mutual_information(a: float, b: float, c: float) -> float:
    """Two-quadrature Gaussian mutual information for dual heterodyne, bits."""
    return log2((a + 1.0) / (a + 1.0 - c * c / (b + 1.0)))


def block_holevo_reverse(a: float, b: float, c: float) -> float:
    """Holevo bound on Eve's information about mode-B heterodyne data, bits."""
    nu1, nu2 = block_symplectic_eigenvalues(a, b, c)
    nu3 = a - c * c / (b + 1.0)
    return g_entropy(nu1) + g_entropy(nu2) - g_entropy(nu3)


def block_key_rate(a: float, b: float, c: float, beta: float) -> float:
    """Reverse-reconciliation key rate beta*I - chi in bits per use."""
    return beta * block_mutual_information(a, b, c) - block_holevo_reverse(a, b, c)


# -- grid functions (numpy) ----------------------------------------------------
def g_entropy_grid(nu):
    """g(nu) elementwise; log2 only ever sees positive arguments."""
    import numpy as np

    nu = np.maximum(nu, 1.0)
    ap = (nu + 1.0) / 2.0
    am = (nu - 1.0) / 2.0
    return ap * np.log2(ap) - am * np.log2(np.where(am > 0.0, am, 1.0))


def block_symplectic_eigenvalues_grid(a, b, c):
    import numpy as np

    delta = a * a + b * b - 2.0 * c * c
    det = (a * b - c * c) ** 2
    disc = np.sqrt(np.maximum(delta * delta - 4.0 * det, 0.0))
    return np.sqrt((delta + disc) / 2.0), np.sqrt(np.maximum((delta - disc) / 2.0, 0.0))


def block_mutual_information_grid(a, b, c):
    import numpy as np

    return np.log2((a + 1.0) / (a + 1.0 - c * c / (b + 1.0)))


def _holevo_grid(a, b, c, nu3):
    """chi from the block and nu3 = a - c^2/(b+1), in one entropy pass over the
    stacked (nu1, nu2, nu3)."""
    import numpy as np

    nu1, nu2 = block_symplectic_eigenvalues_grid(a, b, c)
    g = g_entropy_grid(np.array((nu1, nu2, nu3)))
    return g[0] + g[1] - g[2]


def block_holevo_reverse_grid(a, b, c):
    return _holevo_grid(a, b, c, a - c * c / (b + 1.0))


def block_key_rate_grid(a, b, c, beta):
    import numpy as np

    # c^2/(b+1) and a+1 are shared by the mutual information and nu3
    a1 = a + 1.0
    c2b = c * c / (b + 1.0)
    return beta * np.log2(a1 / (a1 - c2b)) - _holevo_grid(a, b, c, a - c2b)
