"""The independent references agree with the library.

The acceptance criteria 01 and 03 check the library's range endpoints
against the range reference in conftest. Here its key-rate formula alone is
pinned, at interior points of both criteria's curves, apart from any range
search. The exact reference (`compose_eb_simulated` and the `*_generic`
pair, in `decimal`) checks the K cells that the golden forms print.
"""

import pytest

import golden
from cvmdi.keyrate import secret_key_rate
from conftest import REF_TOL_KM, k_cells, make_scenario, ref_asymmetric_range, ref_key_rate_at, \
    ref_symmetric_range, reference_cell, within_reference_bound

PRACTICAL = {}
IDEAL = {"v": 1e5, "eps": 0.0}


@pytest.mark.parametrize("l_ac, l_bc, inputs", [
    (3.0, 3.0, PRACTICAL),
    (3.5, 3.5, IDEAL),
    (40.0, 0.0, PRACTICAL),
    (10.0, 1.0, PRACTICAL),
    (88.0, 0.0, PRACTICAL),
])
def test_reference_key_rate_matches_library(l_ac, l_bc, inputs):
    ref = ref_key_rate_at(l_ac, l_bc, **inputs)
    lib = secret_key_rate(make_scenario(l_ac, l_bc, **inputs)).k
    assert ref > 0.0
    assert abs(ref - lib) <= 1e-9


@pytest.mark.parametrize("inputs", [PRACTICAL, IDEAL])
def test_reference_symmetric_root_is_bracketed(inputs):
    leg = ref_symmetric_range(**inputs) / 2.0
    assert ref_key_rate_at(leg - REF_TOL_KM, leg - REF_TOL_KM, **inputs) > 0.0
    assert ref_key_rate_at(leg + REF_TOL_KM, leg + REF_TOL_KM, **inputs) <= 0.0


@pytest.mark.parametrize("l_bc", [0.0, 1.0, 3.0])
def test_reference_asymmetric_root_is_bracketed(l_bc):
    l_ac = ref_asymmetric_range(l_bc)
    assert ref_key_rate_at(l_ac - REF_TOL_KM, l_bc) > 0.0
    assert ref_key_rate_at(l_ac + REF_TOL_KM, l_bc) <= 0.0


def golden_k_cells(name: str) -> list[tuple]:
    """(label, index, scenario, g, K) of each K cell of golden form `name`
    (`conftest.k_cells`)."""
    return k_cells(golden.FORMS[name], golden.path(name).read_text().split("--- csv\n", 1)[1])


# The golden forms with K cells, and the part of their K cells that is checked
# against the exact reference: every GOLDEN_STRIDE-th cell of each curve (at
# 0, 1.6, ..., 9.6 km of its axis), each fig6 cell at its printed k_opt, the
# keyrate points, and every cell of the 3000 km sweep, 149 cells.
GOLDEN_DOMAIN = ("keyrate", "keyrate-fixed-gain", "keyrate-detector", "sweep-symmetric",
                 "sweep-symmetric-detector", "sweep-asymmetric", "sweep-asymmetric-fixed-gain",
                 "figure-fig4", "figure-fig4-v1e5", "figure-fig5b", "figure-fig6",
                 "sweep-symmetric-3000km", "keyrate-v_a-1e20", "keyrate-v_a-1e7")
GOLDEN_STRIDE = 8
# Over every K cell of these forms at 0.23.0 the largest |K - K_ref| is
# 2.2e-12 relative at K = -4.1e-4 (the detector sweep, 8.9e-16 absolute);
# above the floor, 5.9e-13 relative (fig5b's ideal curve next to its sign
# change). At 0.22.0 it was 2.3e-7, and 397 of 1028 cells were off by more
# than 1e-13. The bound is `conftest.within_reference_bound`; it may only
# tighten.
# K of cells outside the paper's domain, the reference's value before its two
# terms are rounded to floats: the 3000 km sweep at 2000 and 3000 km total
# (0.22.0 printed +5.76 for both), V_A = 1e20 at 0 km (66.88 at 0.22.0) and
# V_A = 1e7 at 10 + 1 km (0.3007218744661344 at 0.22.0)
PINNED = {("sweep-symmetric-3000km", 2): -67.80910715288037,
          ("sweep-symmetric-3000km", 3): -101.028388101754,
          ("keyrate-v_a-1e20", 0): 2.9043582511839596,
          ("keyrate-v_a-1e7", 0): 0.300381295314718}


def test_golden_k_cells_match_the_reference():
    outside, checked = [], 0
    for name in GOLDEN_DOMAIN:
        for label, index, s, g, k in golden_k_cells(name):
            if index % GOLDEN_STRIDE == 0 or name == "sweep-symmetric-3000km":
                ref = reference_cell(s, g)
                checked += 1
                if not within_reference_bound(k, ref):
                    outside.append(f"{name} {label} cell {index}: K = {k!r}, reference {ref!r}")
                if (name, index) in PINNED:
                    assert within_reference_bound(k, PINNED[name, index]), (name, index, k)
                    assert ref == pytest.approx(PINNED[name, index], rel=1e-14)
    assert checked == 149
    assert outside == []
