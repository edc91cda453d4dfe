"""Asymptotic reverse-reconciliation secret key rate, sweeps and range searches.

Points, sweeps and range searches run on the scalar `math` kernels; only the
detection scheme's k scan and the generic cross-check load numpy, when they
are called.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

from . import kernels
from .protocol import DetectorParams, Scenario, gain_from_k, k_from_gain, scenario_block_params

BISECT_TOL_KM = 0.01
BISECT_MAX_ITER = 60
MAX_DISTANCE_CAP_KM = 2000.0
# amplification grid of the detection scheme: K_GRID_POINTS log-spaced points
# over k0 * K_GRID_SPAN, k0 the k of the optimal gain
K_GRID_POINTS = 400
K_GRID_SPAN = (0.1, 10.0)
DETECTOR_EFFICIENCY_TOL = 1e-6


@dataclass(frozen=True)
class KeyRatePoint:
    scenario: Scenario
    g_used: float
    i_ab: float
    chi_be: float
    k: float

    @property
    def positive(self) -> bool:
        return self.k > 0.0


@dataclass(frozen=True)
class SweepCurve:
    label: str
    axis_km: tuple  # the axis value of each point, as floats
    points: tuple
    # axis value where K falls to 0 (`_max_distance`): 0.0 if K(0) <= 0, inf
    # if K is still positive where the search stops, at a leg of
    # MAX_DISTANCE_CAP_KM
    max_distance_km: float


@dataclass(frozen=True)
class SweepResult:
    axis_name: str
    curves: tuple


# -- the generic path: a cross-check that loads numpy and `gaussian` when called
def mutual_information_generic(cov2: "CovarianceMatrix") -> float:
    """Determinant-based Gaussian MI of the joint heterodyne outcomes."""
    import numpy as np

    sigma = (cov2.entries + np.eye(4)) / 2.0
    det_a = np.linalg.det(sigma[:2, :2])
    det_b = np.linalg.det(sigma[2:, 2:])
    return float(0.5 * np.log2(det_a * det_b / np.linalg.det(sigma)))


def holevo_bound_reverse_generic(cov2: "CovarianceMatrix") -> float:
    """Holevo bound on Eve's information about mode-B heterodyne data, from
    full symplectic spectra and explicit conditioning."""
    from .gaussian import heterodyne_condition, von_neumann_entropy

    return von_neumann_entropy(cov2) - von_neumann_entropy(heterodyne_condition(cov2, mode=1))


def secret_key_rate(scenario: Scenario) -> KeyRatePoint:
    g = scenario.resolved_gain()
    a, b, c = scenario_block_params(scenario, g)
    i_ab = kernels.block_mutual_information(a, b, c)
    chi = kernels.block_holevo_reverse(a, b, c)
    return KeyRatePoint(
        scenario=scenario,
        g_used=g,
        i_ab=i_ab,
        chi_be=chi,
        k=scenario.beta_r * i_ab - chi,
    )


def key_rate_at(scenario: Scenario, l_ac_km: float, l_bc_km: float) -> float:
    return secret_key_rate(scenario.with_lengths(l_ac_km, l_bc_km)).k


def _bisect_zero(f, lo: float, hi: float, tol: float = BISECT_TOL_KM) -> float:
    """Root of f between lo (f > 0) and hi (f <= 0), in either order, by
    plain bisection."""
    for _ in range(BISECT_MAX_ITER):
        if abs(hi - lo) <= tol:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _max_distance(f, cap: float = MAX_DISTANCE_CAP_KM) -> float:
    """Largest axis value with f > 0; inf if f stays positive up to cap.

    Doubles hi from 1 km until f(hi) <= 0; lo is the last probe with f > 0
    (0 when f(1 km) <= 0 already), so the bisection bracket is always checked.
    """
    if f(0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while f(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > cap:
            return math.inf
    return _bisect_zero(f, lo, hi)


def max_total_distance_symmetric(scenario: Scenario) -> float:
    """Largest total distance (both legs equal) with positive key rate."""
    leg = _max_distance(lambda l: key_rate_at(scenario, l, l))
    return 2.0 * leg if math.isfinite(leg) else math.inf


def max_distance_asymmetric(scenario: Scenario, l_bc_km: float) -> float:
    """Largest first-leg length with positive key rate at fixed second leg."""
    return _max_distance(lambda l: key_rate_at(scenario, l, l_bc_km))


def _lengths(values) -> tuple:
    """A sequence of lengths (a list, a tuple, an array) as a tuple of floats."""
    return tuple(float(l) for l in values)


def sweep_symmetric(scenario: Scenario, l_grid) -> SweepResult:
    """Key rate vs total distance with both legs equal (grid of leg lengths)."""
    l_grid = _lengths(l_grid)
    if not l_grid or any(l < 0 for l in l_grid):
        raise ValueError("grid must be nonempty and nonnegative")
    points = tuple(secret_key_rate(scenario.with_lengths(l, l)) for l in l_grid)
    curve = SweepCurve(
        label="symmetric",
        axis_km=tuple(2.0 * l for l in l_grid),
        points=points,
        max_distance_km=max_total_distance_symmetric(scenario),
    )
    return SweepResult(axis_name="L_total_km", curves=(curve,))


def _length_label(length: float) -> str:
    """`:g` of a length where it reads back as the same float, else repr, so
    distinct lengths get distinct labels."""
    short = f"{length:g}"
    return short if float(short) == length else repr(length)


def sweep_asymmetric(scenario: Scenario, l_ac_grid, l_bc_values) -> SweepResult:
    """Key rate vs first-leg length, one curve per second-leg length; a single
    second-leg length may be given as a number."""
    l_ac_grid = _lengths(l_ac_grid)
    try:
        l_bc_values = _lengths(l_bc_values)
    except TypeError:  # not iterable: one length
        l_bc_values = (float(l_bc_values),)
    if not (l_ac_grid and l_bc_values) or any(l < 0 for l in l_ac_grid + l_bc_values):
        raise ValueError("grids must be nonempty and nonnegative")
    # each channel is built once: a first leg per grid length, a second leg per curve
    legs_a = [scenario.channel_a.with_length(l) for l in l_ac_grid]
    curves = []
    for l_bc in l_bc_values:
        leg_b = scenario.channel_b.with_length(l_bc)
        points = tuple(secret_key_rate(scenario.with_channels(leg_a, leg_b)) for leg_a in legs_a)
        curves.append(SweepCurve(
            label=f"l_bc={_length_label(l_bc)}km",
            axis_km=l_ac_grid,
            points=points,
            max_distance_km=max_distance_asymmetric(scenario, l_bc),
        ))
    return SweepResult(axis_name="L_AC_km", curves=tuple(curves))


def analytic_k(scenario: Scenario) -> float:
    """Data-domain amplification coefficient matching the scenario's gain."""
    return k_from_gain(scenario.resolved_gain(), scenario.v_b)


@functools.cache
def _k_unit_grid():
    """The k grid over k0 = 1, built on first use and read-only."""
    import numpy as np

    grid = np.logspace(np.log10(K_GRID_SPAN[0]), np.log10(K_GRID_SPAN[1]), K_GRID_POINTS)
    grid.flags.writeable = False
    return grid


def default_k_grid(scenario: Scenario):
    return analytic_k(scenario) * _k_unit_grid()


def key_rate_vs_k(scenario: Scenario, k_grid):
    """Key rate at each amplification coefficient of the data processing, as
    a numpy array.

    A k far from the scenario's own (k = 1e100 at 1 km legs) overflows the
    equivalent channel, its block or the kernels: a ValueError names the
    first such k, and no numpy warning escapes.
    """
    import numpy as np

    k_grid = np.asarray(k_grid, dtype=float)
    # a NaN makes min and max NaN, which fails both comparisons
    if k_grid.size == 0 or not (k_grid.min() > 0.0 and k_grid.max() < math.inf):
        raise ValueError("k grid must be nonempty, finite and positive")
    with np.errstate(all="ignore"):
        a, b, c = scenario_block_params(scenario, gain_from_k(k_grid, scenario.v_b))
        rates = kernels.block_key_rate_grid(a, b, c, scenario.beta_r)
    # key rates are bounded, so their sum is finite exactly when each is
    if not math.isfinite(rates.sum()):
        k = float(k_grid[~np.isfinite(rates)][0])
        raise ValueError(f"the key rate at k = {k!r} is not finite: the equivalent channel, "
                         f"its block or the key-rate kernels overflow there")
    return rates


def optimize_k_detection_scheme(scenario: Scenario) -> tuple[float, float]:
    """Best (k, K) over `default_k_grid`; first index wins on ties."""
    k_grid = default_k_grid(scenario)
    rates = key_rate_vs_k(scenario, k_grid)
    i = int(rates.argmax())
    return float(k_grid[i]), float(rates[i])


def max_distance_detection_scheme(scenario: Scenario) -> float:
    """Largest first-leg length with positive k-optimized key rate."""
    def best_rate(l: float) -> float:
        s = scenario.with_channels(scenario.channel_a.with_length(l), scenario.channel_b)
        return optimize_k_detection_scheme(s)[1]
    return _max_distance(best_rate)


def min_detector_efficiency(scenario: Scenario) -> float:
    """Smallest relay detector efficiency with K > 0 at vanishing distance,
    to within DETECTOR_EFFICIENCY_TOL."""
    at_zero = scenario.with_lengths(0.0, 0.0)

    def rate(eta_d: float) -> float:
        d = DetectorParams(eta_d, scenario.detector.electronic_noise)
        return secret_key_rate(replace(at_zero, detector=d)).k

    lo, hi = 0.999999, 0.2
    if rate(lo) <= 0.0:
        raise ValueError("key rate not positive even for a near-perfect detector")
    while rate(hi) > 0.0:
        hi /= 2.0
        if hi < 1e-6:
            return 0.0
    return _bisect_zero(rate, lo, hi, DETECTOR_EFFICIENCY_TOL)
