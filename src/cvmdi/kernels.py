"""Key-rate kernels on block-form two-mode covariances.

All inputs are block-form covariance parameters (a, b, c) meaning
[[a*I2, c*sigma_z], [c*sigma_z, b*I2]] in shot-noise units.

Each formula exists twice, and the call site picks the form:

* the scalar functions take and return floats and use plain `math`. They
  serve one evaluation at a time: `keyrate.secret_key_rate` (one
  `block_mutual_information` and one `block_holevo_reverse` call per point,
  and so every sweep and range search), `keyrate.mutual_information` and
  `keyrate.holevo_bound_reverse`, and `protocol.equivalent_excess_noise`
  (`equivalent_noise_general`);
* the `*_grid` functions take numpy arrays (scalars broadcast) and evaluate
  a whole grid in one call: `scan_k_rates` for `keyrate.key_rate_vs_k`, the
  detection scheme's k scan, and `block_key_rate_grid` for
  `montecarlo.key_rates_vs_k_from_batch`.

The test suite checks the two forms against each other elementwise.
"""

from math import log2, sqrt

import numpy as np

_SQRT2 = sqrt(2.0)


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


def equivalent_noise_general(g: float, v_b: float, eta_a: float, eta_b: float,
                             eps_a: float, eps_b: float) -> float:
    """Input-referred excess noise of the reduced one-way channel at gain g."""
    chi_a = (1.0 - eta_a) / eta_a + eps_a
    chi_b = (1.0 - eta_b) / eta_b + eps_b
    mismatch = _SQRT2 / g * sqrt(v_b - 1.0) - sqrt(eta_b) * sqrt(v_b + 1.0)
    return 1.0 + (eta_b * (chi_b - 1.0) + eta_a * chi_a) / eta_a + mismatch * mismatch / eta_a


# -- grid functions (numpy) ----------------------------------------------------
def g_entropy_grid(nu):
    """g(nu) elementwise; log2 only ever sees positive arguments."""
    nu = np.maximum(nu, 1.0)
    ap = (nu + 1.0) / 2.0
    am = (nu - 1.0) / 2.0
    return ap * np.log2(ap) - am * np.log2(np.where(am > 0.0, am, 1.0))


def block_symplectic_eigenvalues_grid(a, b, c):
    delta = a * a + b * b - 2.0 * c * c
    det = (a * b - c * c) ** 2
    disc = np.sqrt(np.maximum(delta * delta - 4.0 * det, 0.0))
    return np.sqrt((delta + disc) / 2.0), np.sqrt(np.maximum((delta - disc) / 2.0, 0.0))


def block_mutual_information_grid(a, b, c):
    return np.log2((a + 1.0) / (a + 1.0 - c * c / (b + 1.0)))


def block_holevo_reverse_grid(a, b, c):
    nu1, nu2 = block_symplectic_eigenvalues_grid(a, b, c)
    nu3 = a - c * c / (b + 1.0)
    return g_entropy_grid(nu1) + g_entropy_grid(nu2) - g_entropy_grid(nu3)


def block_key_rate_grid(a, b, c, beta):
    return beta * block_mutual_information_grid(a, b, c) - block_holevo_reverse_grid(a, b, c)


def equivalent_noise_general_grid(g, v_b, eta_a, eta_b, eps_a, eps_b):
    chi_a = (1.0 - eta_a) / eta_a + eps_a
    chi_b = (1.0 - eta_b) / eta_b + eps_b
    mismatch = _SQRT2 / g * np.sqrt(v_b - 1.0) - np.sqrt(eta_b) * np.sqrt(v_b + 1.0)
    return 1.0 + (eta_b * (chi_b - 1.0) + eta_a * chi_a) / eta_a + mismatch * mismatch / eta_a


def scan_k_rates(ks, v_a, v_b, eta_a, eta_b, eps_a, eps_b, chi_det, beta):
    """Key rate at each amplification coefficient k (a float array).

    k maps to the displacement gain via g = k / sqrt((v_b-1)/(v_b+1)).
    Detector imperfections enter as the additive penalty 2*chi_det/eta_a on
    the equivalent excess noise.
    """
    g = ks / sqrt((v_b - 1.0) / (v_b + 1.0))
    eps_eff = equivalent_noise_general_grid(g, v_b, eta_a, eta_b, eps_a, eps_b) + 2.0 * chi_det / eta_a
    t = eta_a / 2.0 * g * g
    b = t * (v_a - 1.0) + 1.0 + t * eps_eff
    c = np.sqrt(t * (v_a * v_a - 1.0))
    return block_key_rate_grid(v_a, b, c, beta)
