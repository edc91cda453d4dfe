"""Gaussian-state physics, checked on the exact reference: pure states,
heterodyne conditioning and the bosonic entropy g, through
`keyrate.mutual_information_generic` and `keyrate.holevo_bound_reverse_generic`.

A state is its 4x4 covariance in shot-noise units. chi_BE of Alice's mode in
vacuum and Bob's thermal mode of variance nu is g(nu): nu1 = nu and
nu2 = nu3 = 1.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvmdi import kernels
from cvmdi.keyrate import holevo_bound_reverse_generic, mutual_information_generic
from cvmdi.montecarlo import heterodyne_image
from conftest import block_channel, block_matrix


def entropy_g(nu: float) -> float:
    """g(nu) in bits, from the reference: chi_BE of vacuum and thermal nu."""
    return holevo_bound_reverse_generic(block_matrix(1.0, nu, 0.0))


def g_closed_form(nu: float) -> float:
    """g(nu) in bits, log2(ap) + am log2(1 + 1/am) with ap, am = (nu +- 1)/2:
    ap log2 ap - am log2 am without its cancellation at large nu."""
    ap, am = (nu + 1.0) / 2.0, (nu - 1.0) / 2.0
    return math.log2(ap) + (am * math.log1p(1.0 / am) / math.log(2.0) if am > 0.0 else 0.0)


def tms(k: int) -> tuple:
    """A two-mode squeezed vacuum whose V = (4^k + 1)/2^(k + 1) and
    c = sqrt(V^2 - 1) = (4^k - 1)/2^(k + 1) are both floats: an exactly pure state."""
    v, c = (4.0 ** k + 1.0) / 2.0 ** (k + 1), (4.0 ** k - 1.0) / 2.0 ** (k + 1)
    assert v * v - c * c == 1.0
    return block_matrix(v, v, c)


def transformed(s, cm) -> list:
    """S cm S^T, symmetrised: float products leave it asymmetric by an ulp."""
    m = s @ np.array(cm, dtype=float) @ s.T
    return ((m + m.T) / 2.0).tolist()


def rotated(cm, thetas) -> list:
    """cm with each mode's phase rotated by its angle, a local symplectic map."""
    rot = np.zeros((4, 4))
    for m, t in enumerate(thetas):
        rot[2 * m:2 * m + 2, 2 * m:2 * m + 2] = [[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]]
    return transformed(rot, cm)


class TestStatesAndMaps:
    def test_tms_is_pure(self):
        # nu1 = nu2 = 1, and heterodyning one arm leaves the other in vacuum,
        # so chi_BE = 0; I_AB = log2((V + 1)/2)
        for k in (1, 2, 3, 20):
            cm = tms(k)
            assert abs(holevo_bound_reverse_generic(cm)) < 1e-200
            assert mutual_information_generic(cm) == pytest.approx(
                math.log2((cm[0][0] + 1.0) / 2.0), rel=1e-15)


class TestConditioning:
    def test_heterodyne_tms_closed_form(self):
        # Bob's arm of a TMS through pure loss eta: the environment purifies
        # the state, so nu1 = (1 - eta) V + eta and nu2 = 1; conditioning on
        # Bob's heterodyne leaves nu3 = V - c^2/(b + 1), which is
        # (V (2 - eta) + eta)/(b + 1) without the cancellation
        for v, eta in ((3.0, 0.5), (40.0, 0.9), (40.0, 0.01), (1e4, 0.3)):
            b, c2 = eta * (v - 1.0) + 1.0, eta * (v - 1.0) * (v + 1.0)
            nu3 = (v * (2.0 - eta) + eta) / (b + 1.0)
            expected = g_closed_form((1.0 - eta) * v + eta) - g_closed_form(nu3)
            assert holevo_bound_reverse_generic(block_matrix(v, b, math.sqrt(c2))) == \
                pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_product_state_conditioning_leaves_alice(self):
        # uncorrelated modes: the outcomes share nothing, and heterodyning B
        # leaves A as it was, nu3 = a, so chi_BE = g(a) + g(b) - g(a) = g(b)
        for a, b in ((1.0, 5.0), (7.5, 3.0), (40.0, 40.0), (1e6, 2.0)):
            cm = block_matrix(a, b, 0.0)
            assert mutual_information_generic(cm) == 0.0
            assert holevo_bound_reverse_generic(cm) == pytest.approx(g_closed_form(b), rel=1e-14)

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
        # heterodyning one arm of a TMS leaves the other in vacuum:
        # V - (V^2 - 1)/(V + 1) = 1
        slope = np.linalg.lstsq(y, kept, rcond=None)[0].T
        resid = kept - y @ slope.T
        assert np.allclose(np.cov(resid, rowvar=False), np.eye(2), atol=0.05)


class TestSpectraAndEntropy:
    def test_dual_path_symplectic_eigenvalues(self, rng):
        """The kernels' closed-form block spectrum against the reference's
        invariants and conditioning, through chi_BE, on random blocks."""
        for _ in range(20):
            a = rng.uniform(1.0, 50.0)
            b = rng.uniform(1.0, 50.0)
            cmax = math.sqrt((a - 1.0) * (b - 1.0)) + math.sqrt((a + 1.0) * (b + 1.0))
            c = rng.uniform(0.0, 0.99) * min(math.sqrt(a * b), cmax / 2.0)
            assert kernels.block_holevo_reverse(*block_channel(a, b, c)) == pytest.approx(
                holevo_bound_reverse_generic(block_matrix(a, b, c)), abs=1e-10)

    def test_pure_state_entropy_zero(self):
        # any pure two-mode state, here a TMS mixed 30:70 on a beam splitter
        # and turned in phase: heterodyning B leaves A pure, so chi_BE = 0
        s = math.sqrt(0.3)
        bs = np.kron([[math.sqrt(0.7), -s], [s, math.sqrt(0.7)]], np.eye(2))
        mixed = transformed(bs, tms(3))
        assert abs(holevo_bound_reverse_generic(rotated(mixed, (0.4, 2.1)))) < 1e-12

    def test_thermal_entropy_value(self):
        # g(3) = 2 log2(2) - 1 log2(1) = 2
        assert entropy_g(3.0) == 2.0

    def test_entropy_g_boundary(self):
        assert entropy_g(1.0) == 0.0


@settings(max_examples=25, deadline=None)
@given(nu=st.floats(1.0, 1e6), dnu=st.floats(1e-6, 10.0))
# the kernels' cancelling form ap log2 ap - am log2 am is off by 6.8e-11
# relative near nu = 8e5
@example(nu=841497.220055661, dnu=1.0)
def test_property_entropy_g_monotone(nu, dnu):
    g0 = entropy_g(nu)
    assert entropy_g(nu + dnu) > g0
    assert kernels.g_entropy(nu) == pytest.approx(g0, rel=1e-9, abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(v=st.floats(1.0, 200.0), eta=st.floats(0.01, 0.99),
       thetas=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)))
def test_property_symplectic_spectrum_invariant(v, eta, thetas):
    # Bob's arm of a TMS through pure loss eta, each mode then turned in
    # phase: the heterodyne I_AB and chi_BE do not change, up to the rounding
    # of the turned floats (nu2 = 1 makes chi_BE sensitive to it)
    b, c = eta * (v - 1.0) + 1.0, math.sqrt(eta * (v - 1.0) * (v + 1.0))
    cm = block_matrix(v, b, c)
    assert holevo_bound_reverse_generic(rotated(cm, thetas)) == pytest.approx(
        holevo_bound_reverse_generic(cm), abs=1e-9)
    assert mutual_information_generic(rotated(cm, thetas)) == pytest.approx(
        mutual_information_generic(cm), abs=1e-9)
