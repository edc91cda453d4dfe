import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from cvmdi import ChannelParams, DetectorParams, Scenario, kernels
from cvmdi.cli import _idealized
from cvmdi.config import load_config
from cvmdi.keyrate import _maximize, holevo_bound_reverse_generic, mutual_information_generic
from cvmdi.montecarlo import _read_block_params
from cvmdi.protocol import block_params, channel_at, compose_eb_simulated, gain_free_terms, \
    k_from_gain, optimal_gain


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def make_scenario(l_ac=0.0, l_bc=0.0, v=40.0, eps=0.002, beta=1.0,
                  eta_d=1.0, v_el=0.0, **kwargs) -> Scenario:
    """Scenario with both fiber legs at 0.2 dB/km and equal source variances."""
    return Scenario(
        v_a=v, v_b=v,
        channel_a=ChannelParams(l_ac, 0.2, eps),
        channel_b=ChannelParams(l_bc, 0.2, eps),
        beta_r=beta,
        detector=DetectorParams(eta_d, v_el),
        **kwargs,
    )



# The reduction gain -> (T, eps') -> (a, b, c), composed from its three steps
# in `protocol` as `keyrate._evaluate` and the oracle compose them.
def reduced_channel(s: Scenario, g: float) -> tuple[float, float]:
    """(T, eps') of the equivalent channel of scenario s at gain g."""
    return channel_at(gain_free_terms(s), g)


def reduced_block(s: Scenario, g: float) -> tuple[float, float, float]:
    """The block (a, b, c) of scenario s at gain g."""
    return block_params(s.v_a, *reduced_channel(s, g))


def gain_from_k(k: float, v_b: float) -> float:
    """The displacement gain equivalent to the data-domain amplification k."""
    return k / k_from_gain(1.0, v_b)


# The exact reference: the mode-by-mode composition and the generic key rate,
# in `decimal` (`protocol.compose_eb_simulated` and the `keyrate.*_generic` pair).
def block_channel(a: float, b: float, c: float) -> tuple[float, float, float]:
    """The (V_A, T, eps') that the kernels take, of the block (a, b, c):
    T = c^2/((a - 1)(a + 1)) and eps' = (b - 1)/T - (a - 1)."""
    t = c * c / ((a - 1.0) * (a + 1.0))
    return a, t, (b - 1.0) / t - (a - 1.0)


def block_matrix(a: float, b: float, c: float) -> tuple:
    """The 4x4 block-form covariance [[a I2, c sigma_z], [c sigma_z, b I2]]."""
    return ((a, 0.0, c, 0.0), (0.0, a, 0.0, -c), (c, 0.0, b, 0.0), (0.0, -c, 0.0, b))


def exact_optimal_gain(s: Scenario) -> Decimal:
    """The optimal gain sqrt(2/eta_b) sqrt((v_b - 1)/(v_b + 1)) of scenario s to
    1000 digits, eta_b = 10^(-attenuation * length / 10) of the config's
    floats. `protocol.channel_at` gives the float optimal gain a mismatch of
    exactly 0; the reference gives that only to this gain, since at the float
    the mismatch (g_opt/g - 1)^2 eta_b (v_b + 1)/eta_a, with g_opt/g - 1 near
    1e-16, is not small where eta_a or 1/v_b is."""
    with localcontext() as ctx:
        ctx.prec = 1000
        ch, v_b = s.channel_b, Decimal(s.v_b)
        eta_b = 10 ** (-Decimal(ch.attenuation_db_per_km) * Decimal(ch.length_km) / 10)
        return (2 / eta_b * (v_b - 1) / (v_b + 1)).sqrt()


def reference_key_rate(s: Scenario, g) -> float:
    """K = beta I_AB - chi_BE of scenario s at gain g, a float or a Decimal,
    from the reference."""
    cm = compose_eb_simulated(s, g)
    return s.beta_r * mutual_information_generic(cm) - holevo_bound_reverse_generic(cm)


# The reference's bound on a printed K cell: relative, with an absolute floor
# near K = 0, where K = beta I_AB - chi_BE keeps only the rounding of its two
# terms (an ulp of a term of 4 to 16 bits is 9e-16 to 3.6e-15)
REFERENCE_REL_TOL = 1e-12
REFERENCE_ABS_FLOOR = 1e-14


def within_reference_bound(k: float, ref: float) -> bool:
    return abs(k - ref) <= REFERENCE_REL_TOL * abs(ref) + REFERENCE_ABS_FLOOR


def _leg(label: str) -> float:
    """The second leg of a curve label `...l_bc=<length>km`."""
    return float(label.rsplit("l_bc=", 1)[1][:-2])


def k_cells(args: list[str], csv: str) -> list[tuple]:
    """(label, index, scenario, g, K) of each K cell of the CSV that the
    command `args`, a `keyrate`, `sweep` or `figure` form, wrote: the cell's
    curve and its index on it, and its scenario and gain as the command built
    them, each fig6 cell at its printed k_opt."""
    cfg = load_config(None, [args[i + 1] for i, arg in enumerate(args) if arg == "--set"],
                      environ={})
    base = cfg.scenario()
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


def reference_cell(s: Scenario, g: float) -> float:
    """The reference's K of a cell that the library printed for scenario s at
    gain g: at `exact_optimal_gain` where g is the float optimal gain, at
    which the library's mismatch is exactly 0, else at g."""
    return reference_key_rate(s, exact_optimal_gain(s) if g == optimal_gain(s) else g)


def composition_deviation(s: Scenario, g: float) -> float:
    """The largest |entry| of the reduction's block minus the reference's
    composed covariance, scenario s at gain g."""
    composed = compose_eb_simulated(s, g)
    return max(abs(x - float(y)) for row, ref in zip(block_matrix(*reduced_block(s, g)), composed)
               for x, y in zip(row, ref))

# Independent reference for the range endpoints. It uses only `math` and
# nothing from cvmdi: the paper's closed-form reduction of CV-MDI QKD to
# one-way coherent-state CV QKD, the heterodyne reverse-reconciliation key
# rate in the chi_line form (Weedbrook et al., Rev. Mod. Phys. 84, 621
# (2012)), and a root search of its own. Detectors are ideal, legs are at
# 0.2 dB/km and both users share one source variance, as in make_scenario.

REF_TOL_KM = 1e-9


def ref_transmittance(length_km: float) -> float:
    return 10.0 ** (-0.2 * length_km / 10.0)


def ref_reduction(eta_a: float, eta_b: float, eps_a: float, eps_b: float,
                  v: float) -> tuple[float, float]:
    """(T, eps') of the equivalent one-way channel at the optimal gain.

    T = eta_a g^2 / 2 with g^2 = (2 / eta_b)(V - 1)/(V + 1), and
    eps' = eps_a + [eta_b (eps_b - 2) + 2] / eta_a.
    """
    t = eta_a / eta_b * (v - 1.0) / (v + 1.0)
    return t, eps_a + (eta_b * (eps_b - 2.0) + 2.0) / eta_a


def _ref_g(x: float) -> float:
    """Bosonic entropy g(x) in bits, for x >= 1 up to roundoff."""
    x = max(x, 1.0)
    plus, minus = (x + 1.0) / 2.0, (x - 1.0) / 2.0
    return plus * math.log2(plus) - (minus * math.log2(minus) if minus > 0.0 else 0.0)


def ref_key_rate(t: float, eps: float, v: float, beta: float) -> float:
    """K = beta I - chi_BE of heterodyne reverse reconciliation, bits per use."""
    chi_line = 1.0 / t - 1.0 + eps
    chi_tot = chi_line + 1.0 / t
    i_ab = math.log2((v + chi_tot) / (1.0 + chi_tot))
    a = v * v * (1.0 - 2.0 * t) + 2.0 * t + t * t * (v + chi_line) ** 2
    b = t * t * (v * chi_line + 1.0) ** 2
    root = math.sqrt(max(a * a - 4.0 * b, 0.0))
    lam1 = math.sqrt((a + root) / 2.0)
    lam2 = math.sqrt(max((a - root) / 2.0, 0.0))
    lam3 = v - t * (v * v - 1.0) / (t * (v + chi_line) + 1.0)
    return beta * i_ab - (_ref_g(lam1) + _ref_g(lam2) - _ref_g(lam3))


def ref_key_rate_at(l_ac: float, l_bc: float, v: float = 40.0, eps: float = 0.002,
                    beta: float = 1.0) -> float:
    """Key rate at leg lengths (l_ac, l_bc), with make_scenario's defaults."""
    t, eps_eq = ref_reduction(ref_transmittance(l_ac), ref_transmittance(l_bc), eps, eps, v)
    return ref_key_rate(t, eps_eq, v, beta)


def ref_last_positive(f, tol: float = REF_TOL_KM) -> float:
    """Root of f on [0, inf), where f > 0 up to the root and <= 0 after it.

    The bracket [lo, hi] always has f(lo) > 0 and f(hi) <= 0; it doubles
    from [0, 1] until it holds the root, then is bisected to width tol.
    """
    if f(0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while f(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ref_symmetric_range(**kwargs) -> float:
    """Largest total distance, both legs equal, with positive key rate."""
    return 2.0 * ref_last_positive(lambda l: ref_key_rate_at(l, l, **kwargs),
                                   tol=REF_TOL_KM / 2.0)


def ref_asymmetric_range(l_bc: float, **kwargs) -> float:
    """Largest first-leg length with positive key rate at second leg l_bc."""
    return ref_last_positive(lambda l: ref_key_rate_at(l, l_bc, **kwargs))


def ref_min_detector_efficiency(v: float = 40.0, eps: float = 0.002,
                                tol: float = 1e-12) -> float:
    """Smallest relay detector efficiency eta_D with positive key rate at zero
    distance (beta = 1, no electronic noise), by bisection to width tol.

    At zero distance T = (V - 1)/(V + 1) and eps' = eps_A + eps_B + 2 chi_det,
    with the detector noise chi_det = (1 - eta_D)/eta_D.
    """
    t = (v - 1.0) / (v + 1.0)

    def rate(eta_d: float) -> float:
        return ref_key_rate(t, 2.0 * eps + 2.0 * (1.0 - eta_d) / eta_d, v, 1.0)

    lo, hi = 1.0, 0.5
    assert rate(lo) > 0.0 >= rate(hi)
    while lo - hi > tol:
        mid = 0.5 * (lo + hi)
        if rate(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_scenario(rng: np.random.Generator) -> Scenario:
    """Random valid scenario with strictly lossy channels."""
    return Scenario(
        v_a=rng.uniform(1.5, 100.0),
        v_b=rng.uniform(1.5, 100.0),
        channel_a=ChannelParams(rng.uniform(0.01, 30.0), 0.2, rng.uniform(0.0, 0.05)),
        channel_b=ChannelParams(rng.uniform(0.01, 30.0), 0.2, rng.uniform(0.0, 0.05)),
    )


# Test-only reference of the alternate detection scheme on data: the key rate
# that Bob computes from the moments of his own PM data, maximised over k.

def data_key_rate(m, k: float, beta: float) -> float:
    """K = beta I - chi of the block that the PM moments m read with Bob's
    final data formed at k, converted to the channel the kernels take."""
    channel = block_channel(*_read_block_params(m, [k])[0])
    return beta * kernels.block_mutual_information(*channel) - kernels.block_holevo_reverse(*channel)


def data_k_maximum(m, k0: float, beta: float) -> tuple[float, float]:
    """The maximum (k, K) of `data_key_rate` over k in [0.3, 3] k0, by the
    library's k maximiser `_maximize` in ln(k / k0)."""
    u, rate = _maximize(lambda u: data_key_rate(m, k0 * math.exp(u), beta),
                        math.log(0.3), math.log(3.0))
    return k0 * math.exp(u), rate
