"""The independent references agree with the library.

The acceptance criteria 01 and 03 check the library's range endpoints
against the range reference in conftest. Here its key-rate formula alone is
pinned, at interior points of both criteria's curves, apart from any range
search. The exact reference (`compose_eb_simulated` and the `*_generic`
pair, in `decimal`) checks the K cells that the golden forms print.
"""

from dataclasses import replace

import pytest

import golden
from cvmdi.cli import _idealized
from cvmdi.config import load_config
from cvmdi.keyrate import secret_key_rate
from conftest import REF_TOL_KM, gain_from_k, make_scenario, ref_asymmetric_range, \
    ref_key_rate_at, ref_symmetric_range, reference_key_rate

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


def _leg(label: str) -> float:
    """The second leg of a curve label `...l_bc=<length>km`."""
    return float(label.rsplit("l_bc=", 1)[1][:-2])


def golden_k_cells(name: str) -> list[tuple]:
    """(label, index, scenario, g, K) of each K cell of golden form `name`, a
    `keyrate`, `sweep` or `figure` form: the cell's curve and its index on
    it, and its scenario and gain as the command built them, each fig6 cell
    at its printed k_opt."""
    args = golden.FORMS[name]
    cfg = load_config(None, [args[i + 1] for i, arg in enumerate(args) if arg == "--set"],
                      environ={})
    base = cfg.scenario()
    csv = golden.path(name).read_text().split("--- csv\n", 1)[1]
    rows = [line.split(",") for line in csv.splitlines() if not line.startswith("#")][1:]
    if args[-1] == "keyrate":
        ((k, _, _, g, _),) = rows
        return [("keyrate", 0, base, float(g), float(k))]
    cells, counts = [], {}
    for axis, k, label, *k_opt in rows:
        if not k:  # a range endpoint
            continue
        axis = float(axis)
        index = counts[label] = counts.get(label, -1) + 1
        scn = _idealized(base) if label.startswith("ideal") else base
        if args[-1] == "fig6":
            s = replace(base, beta_r=float(label[len("beta="):])).with_lengths(axis, 0.0)
            g = gain_from_k(float(k_opt[0]), s.v_b)
        else:
            if args[-1] in ("symmetric", "fig4"):
                s = scn.with_lengths(axis / 2.0, axis / 2.0)
            else:
                s = scn.with_lengths(axis, _leg(label))
            g = s.resolved_gain()
        cells.append((label, index, s, g, float(k)))
    return cells


# The golden forms on the paper's domain, and the part of their K cells that
# is checked against the exact reference: every GOLDEN_STRIDE-th cell of each
# curve (at 0, 1.6, ..., 9.6 km of its axis), each fig6 cell at its printed
# k_opt, and the three keyrate points, 143 cells. Left out: the 3000 km sweep
# (wrong signs) and V_A = 1e20 (chi_BE < 0), which ROADMAP items 7 and 21 mend.
GOLDEN_DOMAIN = ("keyrate", "keyrate-fixed-gain", "keyrate-detector", "sweep-symmetric",
                 "sweep-symmetric-detector", "sweep-asymmetric", "sweep-asymmetric-fixed-gain",
                 "figure-fig4", "figure-fig4-v1e5", "figure-fig5b", "figure-fig6")
GOLDEN_STRIDE = 8
# the largest |K - K_ref|/|K_ref| over every K cell of these forms at 0.22.0:
# 2.27e-7, fig5b's ideal curve at L_BC = 3 km and L_AC = 6.4 km, next to its
# sign change, a cell of the subset. It may only tighten.
GOLDEN_REL_TOL = 2.3e-7


def test_golden_k_cells_match_the_reference():
    worst, where, checked = 0.0, "", 0
    for name in GOLDEN_DOMAIN:
        for label, index, s, g, k in golden_k_cells(name):
            if index % GOLDEN_STRIDE == 0:
                ref = reference_key_rate(s, g)
                checked += 1
                if abs(k - ref) > worst * abs(ref):
                    worst, where = abs(k - ref) / abs(ref), f"{name} {label} cell {index}"
    assert checked == 143
    assert worst <= GOLDEN_REL_TOL, where
