"""Gaussian quadrature-state toolkit in shot-noise units (vacuum variance = 1).

Every state here has zero mean, so a state is its covariance matrix: the key
rate and the Holevo bound depend on second moments only. Quadrature ordering
is (x1, p1, x2, p2, ...) throughout. All objects are immutable values and all
operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import g_entropy

PHYSICALITY_TOL = 1e-9

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
I2 = np.eye(2)


class UnphysicalStateError(ValueError):
    """Covariance matrix violates the uncertainty bound (some nu < 1 - tol)."""


def symplectic_form(n_modes: int) -> np.ndarray:
    """Direct sum of n copies of [[0, 1], [-1, 0]]."""
    if n_modes < 1:
        raise ValueError("n_modes must be positive")
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric 2n x 2n real quadrature covariance matrix."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 != 0 or m.shape[0] == 0:
            raise ValueError(f"covariance matrix must be 2n x 2n, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("covariance matrix has non-finite entries")
        m = 0.5 * (m + m.T)  # enforce exact symmetry
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def n_modes(self) -> int:
        return self.entries.shape[0] // 2

    def block(self, i: int, j: int) -> np.ndarray:
        """2x2 block coupling mode i to mode j."""
        return self.entries[2 * i:2 * i + 2, 2 * j:2 * j + 2].copy()

    def reduced(self, modes) -> "CovarianceMatrix":
        """Covariance of the listed modes (partial trace over the rest)."""
        idx = _quad_indices(modes, self.n_modes)
        return CovarianceMatrix(self.entries[np.ix_(idx, idx)])

    def is_physical(self, tol: float = PHYSICALITY_TOL) -> bool:
        return symplectic_eigenvalues(self)[-1] >= 1.0 - tol


def _quad_indices(modes, n_modes) -> np.ndarray:
    modes = np.atleast_1d(np.asarray(modes, dtype=int))
    if np.any(modes < 0) or np.any(modes >= n_modes):
        raise ValueError(f"mode index out of range for {n_modes}-mode state")
    return np.concatenate([[2 * m, 2 * m + 1] for m in modes])


def vacuum_state(n_modes: int) -> CovarianceMatrix:
    return CovarianceMatrix(np.eye(2 * n_modes))


def block_cm(a: float, b: float, c: float) -> CovarianceMatrix:
    """Two-mode block-form covariance [[a I2, c sigma_z], [c sigma_z, b I2]]."""
    return CovarianceMatrix(np.block([[a * I2, c * SIGMA_Z], [c * SIGMA_Z, b * I2]]))


def tms_state(v: float) -> CovarianceMatrix:
    """Two-mode squeezed vacuum with quadrature variance v per mode."""
    if v < 1.0:
        raise ValueError(f"unphysical squeezing variance {v} (must be >= 1)")
    return block_cm(v, v, np.sqrt((v - 1.0) * (v + 1.0)))


def tensor(*states: CovarianceMatrix) -> CovarianceMatrix:
    """Product state of the given states, modes concatenated in order."""
    dim = sum(2 * s.n_modes for s in states)
    cov = np.zeros((dim, dim))
    k = 0
    for s in states:
        d = 2 * s.n_modes
        cov[k:k + d, k:k + d] = s.entries
        k += d
    return CovarianceMatrix(cov)


def beamsplitter_matrix(n_modes: int, mode_i: int, mode_j: int, tau: float) -> np.ndarray:
    """Symplectic matrix of a beamsplitter on modes (i, j).

    Output convention: out_i = sqrt(tau) in_i - sqrt(1-tau) in_j,
    out_j = sqrt(1-tau) in_i + sqrt(tau) in_j. At tau = 1/2 this realizes
    C = (A - B)/sqrt(2), D = (A + B)/sqrt(2).
    """
    if mode_i == mode_j:
        raise ValueError("beamsplitter modes must differ")
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"transmittance {tau} outside [0, 1]")
    _quad_indices([mode_i, mode_j], n_modes)
    t, r = np.sqrt(tau), np.sqrt(1.0 - tau)
    s = np.eye(2 * n_modes)
    for q in (0, 1):  # same action on x and p
        a, b = 2 * mode_i + q, 2 * mode_j + q
        s[a, a], s[a, b] = t, -r
        s[b, a], s[b, b] = r, t
    return s


def apply_symplectic(state: CovarianceMatrix, s: np.ndarray) -> CovarianceMatrix:
    return CovarianceMatrix(s @ state.entries @ s.T)


def apply_beamsplitter(state: CovarianceMatrix, mode_i: int, mode_j: int,
                       tau: float) -> CovarianceMatrix:
    return apply_symplectic(state, beamsplitter_matrix(state.n_modes, mode_i, mode_j, tau))


def heterodyne_condition(state: CovarianceMatrix, mode: int) -> CovarianceMatrix:
    """Covariance of the remaining modes after heterodyning the given mode.

    The outcome is modeled as y = (q_m + v)/sqrt(2) with v a fresh vacuum; the
    conditional covariance g_rr - g_rm (g_mm + I)^-1 g_rm^T does not depend
    on the outcome.
    """
    n = state.n_modes
    if n < 2:
        raise ValueError("heterodyne conditioning needs at least 2 modes")
    ri = _quad_indices([m for m in range(n) if m != mode], n)
    mi = _quad_indices([mode], n)
    g = state.entries
    g_rm = g[np.ix_(ri, mi)]
    m_inv = np.linalg.inv(g[np.ix_(mi, mi)] + I2)
    return CovarianceMatrix(g[np.ix_(ri, ri)] - g_rm @ m_inv @ g_rm.T)


def symplectic_eigenvalues(cov: CovarianceMatrix) -> np.ndarray:
    """Symplectic spectrum |eig(i Omega gamma)|, descending, one per mode."""
    g = cov.entries
    omega = symplectic_form(cov.n_modes)
    ev = np.linalg.eigvals(1j * omega @ g)
    nus = np.sort(np.abs(ev))[::-1]
    # eigenvalues come in +/- pairs; keep one per mode
    return nus[::2].copy()


def entropy_g(nu: float) -> float:
    """Bosonic entropy function g(nu) in bits, g(1) = 0 by continuity: the
    formula of `kernels.g_entropy`, after the physicality check."""
    if nu < 1.0 - PHYSICALITY_TOL:
        raise UnphysicalStateError(f"symplectic eigenvalue {nu} < 1")
    return g_entropy(float(nu))


def von_neumann_entropy(cov: CovarianceMatrix) -> float:
    """Sum of g over the symplectic spectrum, in bits."""
    return float(sum(entropy_g(nu) for nu in symplectic_eigenvalues(cov)))
