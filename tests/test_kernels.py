"""The scalar (math) and grid (numpy) kernels must agree to numerical precision."""

import ast
import warnings
from pathlib import Path

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


def three_pass_holevo(a, b, c):
    """The grid Holevo bound as one entropy pass per symplectic eigenvalue."""
    nu1, nu2 = kernels.block_symplectic_eigenvalues_grid(a, b, c)
    nu3 = a - c * c / (b + 1.0)
    return kernels.g_entropy_grid(nu1) + kernels.g_entropy_grid(nu2) - kernels.g_entropy_grid(nu3)


def three_pass_key_rate(a, b, c, beta):
    return beta * kernels.block_mutual_information_grid(a, b, c) - three_pass_holevo(a, b, c)


def test_one_pass_grid_forms_equal_the_three_pass_composition(rng):
    physical = np.array([grid_params(rng) for _ in range(300)])
    # c up to three times sqrt(a b): sqrt and log2 meet negative arguments (NaN)
    unphysical = physical.copy()
    unphysical[:, 2] = rng.uniform(0.5, 3.0, 300) * np.sqrt(physical[:, 0] * physical[:, 1])
    a, b, c = np.concatenate([physical, unphysical]).T
    cases = [(a, b, c), (a[7], b, c), (float(a[7]), b, c), (a, b[7], c[7])]
    cases += [(np.float64(x), y, z) for x, y, z in zip(a[::40], b[::40], c[::40])]
    cases += [tuple(map(float, block)) for block in zip(a[::40], b[::40], c[::40])]
    with np.errstate(all="ignore"):
        for args in cases:
            chi = kernels.block_holevo_reverse_grid(*args)
            rate = kernels.block_key_rate_grid(*args, 0.95)
            # scalars broadcast: the shape is that of the inputs, 0-d for all-0-d inputs
            assert np.shape(chi) == np.shape(rate) == np.broadcast(*args).shape
            assert np.array_equal(chi, three_pass_holevo(*args), equal_nan=True)
            assert np.array_equal(rate, three_pass_key_rate(*args, 0.95), equal_nan=True)
        nan = np.isnan(kernels.block_key_rate_grid(a, b, c, 0.95))
    assert not nan[:300].any() and nan[300:].any() and not nan[300:].all()


def test_scalar_functions_return_floats(rng):
    a, b, c = (float(x) for x in grid_params(rng))
    values = (kernels.g_entropy(a), kernels.block_mutual_information(a, b, c),
              kernels.block_holevo_reverse(a, b, c), kernels.block_key_rate(a, b, c, 0.95))
    assert all(type(v) is float for v in values)


def test_grid_entropy_is_silent_at_the_vacuum():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            out = kernels.g_entropy_grid(np.array([1.0, 1.0 - 1e-15, 3.0]))
    assert out.tolist() == [0.0, 0.0, 2.0]
    assert kernels.g_entropy(1.0) == 0.0


def test_kernels_import_only_math_and_numpy():
    # the reduction to (a, b, c) lives in protocol; kernels only evaluates it
    tree = ast.parse(Path(kernels.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported <= {"math", "numpy"}, imported
