"""The key-rate kernels: plain `math` functions of the channel (V_A, T, eps')."""

import ast
from pathlib import Path

from cvmdi import kernels
from conftest import block_channel


def random_block(rng):
    a = rng.uniform(1.0, 100.0)
    b = rng.uniform(1.0, 100.0)
    c = rng.uniform(0.0, 0.99) * ((a * a - 1.0) * (b * b - 1.0)) ** 0.25
    return a, b, c


def test_scalar_functions_return_floats(rng):
    a, b, c = (float(x) for x in random_block(rng))
    channel = block_channel(a, b, c)
    values = (kernels.g_entropy(a), *kernels.symplectic_excesses(*channel),
              kernels.block_mutual_information(*channel), kernels.block_holevo_reverse(*channel))
    assert all(type(v) is float for v in values)


def test_entropy_vanishes_at_the_vacuum():
    # nu <= 1, roundoff below the vacuum included, never reaches log2
    assert [kernels.g_entropy(nu) for nu in (1.0, 1.0 - 1e-15, 3.0)] == [0.0, 0.0, 2.0]


def test_kernels_import_only_math():
    # the reduction to (T, eps') lives in protocol; kernels only evaluates it
    tree = ast.parse(Path(kernels.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"math"}, imported
