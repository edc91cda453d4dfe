"""The scalar (math) and grid (numpy) kernels must agree to numerical precision."""

import warnings

import numpy as np
import pytest

from cvmdi import kernels


def grid_params(rng):
    a = rng.uniform(1.0, 100.0)
    b = rng.uniform(1.0, 100.0)
    c = rng.uniform(0.0, 0.99) * np.sqrt((a * a - 1.0) * (b * b - 1.0)) ** 0.5
    return a, b, c


def test_scalar_functions_agree(rng):
    blocks = np.array([grid_params(rng) for _ in range(500)])
    a, b, c = blocks.T
    g = kernels.g_entropy_grid(a)
    mi = kernels.block_mutual_information_grid(a, b, c)
    chi = kernels.block_holevo_reverse_grid(a, b, c)
    rate = kernels.block_key_rate_grid(a, b, c, 0.95)
    nu1, nu2 = kernels.block_symplectic_eigenvalues_grid(a, b, c)
    for i, (ai, bi, ci) in enumerate(blocks.tolist()):
        assert kernels.g_entropy(ai) == pytest.approx(g[i], abs=1e-12)
        assert kernels.block_mutual_information(ai, bi, ci) == pytest.approx(mi[i], abs=1e-12)
        assert kernels.block_holevo_reverse(ai, bi, ci) == pytest.approx(chi[i], abs=1e-10)
        assert kernels.block_key_rate(ai, bi, ci, 0.95) == pytest.approx(rate[i], abs=1e-10)
        assert kernels.block_symplectic_eigenvalues(ai, bi, ci) == pytest.approx(
            (nu1[i], nu2[i]), abs=1e-11)


def test_scalar_functions_return_floats(rng):
    a, b, c = (float(x) for x in grid_params(rng))
    values = (kernels.g_entropy(a), kernels.block_mutual_information(a, b, c),
              kernels.block_holevo_reverse(a, b, c), kernels.block_key_rate(a, b, c, 0.95),
              kernels.equivalent_noise_general(1.2, 40.0, 0.5, 0.9, 0.002, 0.01))
    assert all(type(v) is float for v in values)


def test_equivalent_noise_agrees(rng):
    g = rng.uniform(0.1, 5.0, 500)
    v_b = rng.uniform(1.5, 100.0, 500)
    eta_a, eta_b = rng.uniform(0.05, 1.0, (2, 500))
    eps_a, eps_b = rng.uniform(0.0, 0.1, (2, 500))
    grid = kernels.equivalent_noise_general_grid(g, v_b, eta_a, eta_b, eps_a, eps_b)
    for i, args in enumerate(zip(g.tolist(), v_b.tolist(), eta_a.tolist(), eta_b.tolist(),
                                 eps_a.tolist(), eps_b.tolist())):
        assert kernels.equivalent_noise_general(*args) == pytest.approx(grid[i], abs=1e-12)


def test_scan_matches_scalar_loop():
    ks = 1.43 * np.logspace(-1, 1, 3000)
    v_a, v_b, eta_a, eta_b, eps_a, eps_b, chi_det, beta = 40.0, 40.0, 0.5, 0.9, 0.002, 0.01, 0.05, 0.95
    rates = kernels.scan_k_rates(ks, v_a, v_b, eta_a, eta_b, eps_a, eps_b, chi_det, beta)
    assert rates.shape == ks.shape
    loop = []
    for k in ks.tolist():
        g = k / np.sqrt((v_b - 1.0) / (v_b + 1.0))
        eps = kernels.equivalent_noise_general(g, v_b, eta_a, eta_b, eps_a, eps_b) + 2.0 * chi_det / eta_a
        t = eta_a / 2.0 * g * g
        b = t * (v_a - 1.0) + 1.0 + t * eps
        loop.append(kernels.block_key_rate(v_a, b, np.sqrt(t * (v_a * v_a - 1.0)), beta))
    assert np.max(np.abs(rates - np.array(loop))) < 1e-12


def test_grid_entropy_is_silent_at_the_vacuum():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            out = kernels.g_entropy_grid(np.array([1.0, 1.0 - 1e-15, 3.0]))
    assert out.tolist() == [0.0, 0.0, 2.0]
    assert kernels.g_entropy(1.0) == 0.0
