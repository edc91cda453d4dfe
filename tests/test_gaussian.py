"""Gaussian toolkit: states, symplectic maps, conditioning, entropies."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvmdi import kernels
from cvmdi.montecarlo import heterodyne_image
from cvmdi.gaussian import (
    CovarianceMatrix,
    UnphysicalStateError,
    apply_beamsplitter,
    apply_symplectic,
    beamsplitter_matrix,
    block_cm,
    entropy_g,
    heterodyne_condition,
    symplectic_eigenvalues,
    symplectic_form,
    tensor,
    tms_state,
    vacuum_state,
    von_neumann_entropy,
)


def thermal(v: float) -> CovarianceMatrix:
    """Single-mode thermal state with quadrature variance v."""
    return CovarianceMatrix(v * np.eye(2))


class TestCovarianceMatrix:
    def test_symmetrizes_input(self):
        m = CovarianceMatrix(np.array([[2.0, 0.1], [0.3, 2.0]]))
        assert m.entries[0, 1] == m.entries[1, 0] == pytest.approx(0.2)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(np.eye(3))

    def test_rejects_nonfinite(self):
        bad = np.eye(2)
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            CovarianceMatrix(bad)

    def test_entries_are_readonly(self):
        m = CovarianceMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0

    def test_block_and_reduced(self):
        s = tms_state(3.0)
        c = math.sqrt(8.0)
        assert np.allclose(s.block(0, 1), np.diag([c, -c]))
        red = s.reduced([1])
        assert np.allclose(red.entries, 3.0 * np.eye(2))

    def test_physicality(self):
        assert tms_state(5.0).is_physical()
        assert not CovarianceMatrix(0.5 * np.eye(2)).is_physical()


class TestStatesAndMaps:
    def test_vacuum(self):
        assert np.allclose(vacuum_state(2).entries, np.eye(4))

    def test_tms_is_the_block_form(self):
        for v in (1.0, 3.0, 40.0):
            expected = block_cm(v, v, math.sqrt(v * v - 1.0)).entries
            assert np.array_equal(tms_state(v).entries, expected)

    def test_tms_is_pure(self):
        nus = symplectic_eigenvalues(tms_state(7.0))
        assert np.allclose(nus, 1.0, atol=1e-12)

    def test_tms_rejects_subunit_variance(self):
        with pytest.raises(ValueError):
            tms_state(0.9)

    def test_tensor_block_diagonal(self):
        s = tensor(thermal(2.0), thermal(3.0))
        assert np.allclose(s.entries, np.diag([2.0, 2.0, 3.0, 3.0]))

    def test_beamsplitter_is_symplectic(self):
        s = beamsplitter_matrix(3, 0, 2, 0.3)
        omega = symplectic_form(3)
        assert np.allclose(s @ omega @ s.T, omega, atol=1e-12)

    def test_balanced_beamsplitter_convention(self):
        # C = (A - B)/sqrt(2), D = (A + B)/sqrt(2) on a quadrature vector
        out = beamsplitter_matrix(2, 0, 1, 0.5) @ np.array([1.0, 0.0, 3.0, 0.0])
        assert out[0] == pytest.approx((1.0 - 3.0) / math.sqrt(2.0))
        assert out[2] == pytest.approx((1.0 + 3.0) / math.sqrt(2.0))

    def test_lossy_beamsplitter_thermalizes(self):
        # vacuum mixed into a thermal state: V -> eta V + (1 - eta)
        s = tensor(thermal(9.0), vacuum_state(1))
        out = apply_beamsplitter(s, 0, 1, 0.6)
        assert out.block(0, 0)[0, 0] == pytest.approx(0.6 * 9.0 + 0.4)


class TestConditioning:
    def test_heterodyne_tms_closed_form(self):
        v = 6.0
        remaining = heterodyne_condition(tms_state(v), 1)
        # V - (V^2 - 1)/(V + 1) = 1: heterodyning one arm purifies the other
        assert np.allclose(remaining.entries, np.eye(2), atol=1e-12)

    def test_heterodyne_response_matches_regression(self, rng):
        """Monte Carlo oracle: outcome covariance, and residual covariance
        after regressing the kept mode on the outcome."""
        v = 4.0
        n = 400_000
        c = math.sqrt(v * v - 1.0)
        lx = np.linalg.cholesky(np.array([[v, c], [c, v]]))
        lp = np.linalg.cholesky(np.array([[v, -c], [-c, v]]))
        x = rng.standard_normal((n, 2)) @ lx.T
        p = rng.standard_normal((n, 2)) @ lp.T
        vac = rng.standard_normal((n, 2))
        y = np.column_stack([(x[:, 1] + vac[:, 0]) / math.sqrt(2.0),
                             (p[:, 1] - vac[:, 1]) / math.sqrt(2.0)])
        kept = np.column_stack([x[:, 0], p[:, 0]])

        # the outcome covariance (V + 1)/2 per quadrature
        image = np.array(heterodyne_image(v, v, c))
        assert np.allclose(np.cov(y, rowvar=False), image[2:, 2:], atol=0.05)
        remaining = heterodyne_condition(tms_state(v), 1)
        slope = np.linalg.lstsq(y, kept, rcond=None)[0].T
        resid = kept - y @ slope.T
        emp = np.cov(resid, rowvar=False)
        assert np.allclose(emp, remaining.entries, atol=0.05)

    def test_conditioning_requires_two_modes(self):
        with pytest.raises(ValueError):
            heterodyne_condition(thermal(2.0), 0)


class TestSpectraAndEntropy:
    def test_dual_path_symplectic_eigenvalues(self, rng):
        """Generic eigensolver vs the closed-form two-mode block spectrum."""
        for _ in range(200):
            a = rng.uniform(1.0, 50.0)
            b = rng.uniform(1.0, 50.0)
            cmax = math.sqrt((a - 1.0) * (b - 1.0)) + math.sqrt((a + 1.0) * (b + 1.0))
            c = rng.uniform(0.0, 0.99) * min(math.sqrt(a * b), cmax / 2.0)
            cov = CovarianceMatrix(np.block([
                [a * np.eye(2), np.diag([c, -c])],
                [np.diag([c, -c]), b * np.eye(2)],
            ]))
            nu1, nu2 = kernels.block_symplectic_eigenvalues(a, b, c)
            nus = symplectic_eigenvalues(cov)
            assert abs(nus[0] - nu1) <= 1e-10 * max(1.0, nu1)
            assert abs(nus[1] - nu2) <= 1e-10 * max(1.0, nu2)

    def test_thermal_entropy_value(self):
        # g(3) = 2 log2(2) - 1 log2(1) = 2
        assert von_neumann_entropy(thermal(3.0)) == pytest.approx(2.0)

    def test_entropy_g_boundary(self):
        assert entropy_g(1.0) == 0.0
        with pytest.raises(UnphysicalStateError):
            entropy_g(0.5)

    def test_pure_state_entropy_zero(self):
        assert von_neumann_entropy(tms_state(20.0)) == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(v=st.floats(1.0, 200.0), tau=st.floats(0.0, 1.0))
def test_property_beamsplitter_preserves_physicality(v, tau):
    s = tensor(tms_state(v), vacuum_state(1))
    out = apply_beamsplitter(s, 1, 2, tau)
    assert out.is_physical()


@settings(max_examples=60, deadline=None)
@given(v=st.floats(1.0, 200.0), tau=st.floats(0.01, 0.99),
       seed=st.integers(0, 2**31 - 1))
def test_property_symplectic_spectrum_invariant(v, tau, seed):
    state = tms_state(v)
    s = beamsplitter_matrix(2, 0, 1, tau)
    # arbitrary per-mode phase rotations are symplectic too
    th = np.random.default_rng(seed).uniform(0, 2 * np.pi, 2)
    rot = np.zeros((4, 4))
    for m, t in enumerate(th):
        rot[2 * m:2 * m + 2, 2 * m:2 * m + 2] = [[np.cos(t), np.sin(t)],
                                                 [-np.sin(t), np.cos(t)]]
    before = symplectic_eigenvalues(state)
    after = symplectic_eigenvalues(apply_symplectic(state, rot @ s))
    assert np.allclose(before, after, atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(nu=st.floats(1.0, 1e6), dnu=st.floats(1e-6, 10.0))
# np.log2 and math.log2 differ by an ulp at this nu, and the cancelling form
# of g magnifies that to 9.3e-10: entropy_g must evaluate kernels.g_entropy
@example(nu=841497.220055661, dnu=1.0)
def test_property_entropy_g_monotone(nu, dnu):
    g0 = entropy_g(nu)
    assert entropy_g(nu + dnu) > g0 - 1e-9 * max(1.0, g0)
    assert kernels.g_entropy(nu) == pytest.approx(entropy_g(nu), abs=1e-12)
