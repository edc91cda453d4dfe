"""The key-rate kernels: plain `math` functions of the block (a, b, c)."""

import ast
from pathlib import Path

from cvmdi import kernels


def random_block(rng):
    a = rng.uniform(1.0, 100.0)
    b = rng.uniform(1.0, 100.0)
    c = rng.uniform(0.0, 0.99) * ((a * a - 1.0) * (b * b - 1.0)) ** 0.25
    return a, b, c


def test_scalar_functions_return_floats(rng):
    a, b, c = (float(x) for x in random_block(rng))
    values = (kernels.g_entropy(a), *kernels.block_symplectic_eigenvalues(a, b, c),
              kernels.block_mutual_information(a, b, c), kernels.block_holevo_reverse(a, b, c))
    assert all(type(v) is float for v in values)


def test_entropy_vanishes_at_the_vacuum():
    # nu <= 1, roundoff below the vacuum included, never reaches log2
    assert [kernels.g_entropy(nu) for nu in (1.0, 1.0 - 1e-15, 3.0)] == [0.0, 0.0, 2.0]


def test_kernels_import_only_math():
    # the reduction to (a, b, c) lives in protocol; kernels only evaluates it
    tree = ast.parse(Path(kernels.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"math"}, imported
