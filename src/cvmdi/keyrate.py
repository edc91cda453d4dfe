"""Asymptotic reverse-reconciliation secret key rate, sweeps and range searches.

Points, sweeps, range searches and the detection scheme's k maximum run on
the scalar `math` kernels; the exact reference's key rate
(`mutual_information_generic`, `holevo_bound_reverse_generic`) loads
`decimal` when it is called. Every key rate is one `_evaluate`: one
`kernels.block_mutual_information` and one `kernels.block_holevo_reverse`
call on the channel (V_A, T, eps') at one gain, from the scenario's
`gain_free_terms`. Their closed forms cancel nowhere, so K is as exact as the
float channel allows at any V_A and leg where that channel is finite: every
golden K cell is within 1e-12 relative, or 1e-14 absolute near K = 0, of the
exact reference. Every point, and
every probe of a range or threshold search (`key_rate_at`, the
detector-efficiency search), is one `secret_key_rate`, whose `KeyRatePoint`
is built without the generated `__init__`; the k maximum computes the
gain-free terms once and evaluates each k. A sweep or search that moves only
the first leg (`sweep_asymmetric`, `max_distance_asymmetric`,
`max_distance_detection_scheme`) builds the second leg once per curve or
search and copies only the first leg per point or probe, so the terms of the
reduction that the second leg fixes are computed once there (see
`protocol.Scenario`). The range and threshold searches
bracket the sign change of K and close the bracket with Brent's root,
`_root`; the detection scheme's range is that root of the k maximum, Brent's
`_maximize`. `_evaluate` is the one key-rate
guard: unless T > 0 and K is finite (finite but extreme inputs overflow or
underflow the equivalent channel or the kernels), it raises a
`KeyRateNotFinite` that names the fixed gain, the legs, k, T and eps'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels
from .protocol import (
    DetectorParams,
    Scenario,
    TransmittanceUnderflow,
    _at_agreed_precision,
    _frozen,
    channel_at,
    gain_free_terms,
    k_from_gain,
)

BISECT_TOL_KM = 0.01
BISECT_MAX_ITER = 60
MAX_DISTANCE_CAP_KM = 2000.0
# the detection scheme maximises K over k0 * K_GRID_SPAN, k0 = `analytic_k`:
# it steps out from k0 by K_FIRST_STEP in ln k, doubling each step, until the
# peak is bracketed, then refines it to K_XTOL in ln k
K_GRID_SPAN = (0.1, 10.0)
K_FIRST_STEP = 0.01
K_XTOL = 1e-8
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
    # MAX_DISTANCE_CAP_KM or before one whose transmittance underflows
    max_distance_km: float


@dataclass(frozen=True)
class SweepResult:
    axis_name: str
    curves: tuple


# -- the exact reference's key rate (see `protocol`), from a 4x4 covariance
def _det(m):
    """The determinant of a square matrix, a list of rows, by cofactors."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def mutual_information_generic(cm) -> float:
    """I_AB in bits of both heterodyne outcomes: ln(det s_A det s_B / det s)/2
    in `decimal`, s = (cm + I)/2 the outcomes' covariance."""
    from decimal import Decimal, localcontext

    def at(digits):
        with localcontext() as ctx:
            ctx.prec = digits
            s = [[(Decimal(x) + (1 if i == j else 0)) / 2 for j, x in enumerate(row)]
                 for i, row in enumerate(cm)]
            return ((_det([r[:2] for r in s[:2]]) * _det([r[2:] for r in s[2:]])
                     / _det(s)).ln() / 2 / Decimal(2).ln(),)

    return float(_at_agreed_precision(at)[0])  # correctly rounded


def holevo_bound_reverse_generic(cm) -> float:
    """chi_BE = g(nu1) + g(nu2) - g(nu3) in bits, in `decimal`, for cm =
    [[A, C], [C^T, B]]: nu1^2 + nu2^2 = det A + det B + 2 det C and
    nu1 nu2 = sqrt(det cm); nu3 of A - C (B + I)^-1 C^T, Alice's mode given
    Bob's heterodyne outcome."""
    from decimal import Decimal, localcontext

    def g(nu):  # in nats, 0 at nu = 1
        ap, am = (nu + 1) / 2, (nu - 1) / 2
        return ap * ap.ln() - (am * am.ln() if am > 0 else 0)

    def at(digits):
        with localcontext() as ctx:
            ctx.prec = digits
            m = [[Decimal(x) for x in row] for row in cm]
            a, c, b = [r[:2] for r in m[:2]], [r[2:] for r in m[:2]], [r[2:] for r in m[2:]]
            delta, d = _det(a) + _det(b) + 2 * _det(c), _det(m)
            nu1 = ((delta + max(delta * delta - 4 * d, Decimal(0)).sqrt()) / 2).sqrt()
            adj = ((b[1][1] + 1, -b[0][1]), (-b[1][0], b[0][0] + 1))  # of B + I
            cond = [[a[i][j] - sum(c[i][k] * adj[k][l] * c[j][l] for k in (0, 1) for l in (0, 1))
                     / _det(adj) for j in (0, 1)] for i in (0, 1)]
            return ((g(nu1) + g(d.sqrt() / nu1) - g(_det(cond).sqrt())) / Decimal(2).ln(),)

    return float(_at_agreed_precision(at)[0])  # correctly rounded


class KeyRateNotFinite(ValueError):
    """The key rate of a point, a probe or a k is not finite, or its equivalent
    channel has T = 0: the channel or the kernels overflow or underflow
    there (finite but extreme inputs). The message names the fixed
    gain, when the gain is fixed, the legs, k, T and eps'."""


def _evaluate(scenario: Scenario, terms: tuple, g: float) -> tuple:
    """(I_AB, chi_BE, K) of the scenario at gain g, from its `gain_free_terms`,
    K = beta * I_AB - chi_BE: the one key-rate guard (see the module
    docstring); its `KeyRateNotFinite` names the k of g."""
    t, eps = channel_at(terms, g)  # outside the try: T and eps' name a failure
    try:
        i_ab = kernels.block_mutual_information(scenario.v_a, t, eps)
        chi = kernels.block_holevo_reverse(scenario.v_a, t, eps)
        rate = scenario.beta_r * i_ab - chi
    except (ArithmeticError, ValueError):  # a float power, log or division past its range
        rate = math.nan
    if t > 0.0 and math.isfinite(rate):
        return i_ab, chi, rate
    fixed = f"scenario.gain = {scenario.gain!r}: " if scenario.gain_mode == "fixed" else ""
    raise KeyRateNotFinite(
        f"{fixed}the key rate at legs of {scenario.channel_a.length_km!r} and "
        f"{scenario.channel_b.length_km!r} km and k = {k_from_gain(g, scenario.v_b)!r} is not "
        f"finite: the equivalent channel has T = {t!r} and eps' = {eps!r}, and a key rate "
        f"needs T > 0 and a block that the key-rate kernels evaluate without overflow")


def secret_key_rate(scenario: Scenario) -> KeyRatePoint:
    """The key rate of the scenario at its resolved gain, with I_AB and chi_BE.

    Where T = 0 or the key rate is not finite (finite but extreme inputs), a
    `KeyRateNotFinite` names the scenario's legs.
    """
    terms = gain_free_terms(scenario)
    g = terms[-1]  # the resolved gain
    i_ab, chi, rate = _evaluate(scenario, terms, g)
    # a sweep or a search builds one point per cell or probe: `_frozen`
    # skips the generated __init__
    return _frozen(KeyRatePoint, {"scenario": scenario, "g_used": g, "i_ab": i_ab,
                                  "chi_be": chi, "k": rate})


def key_rate_at(scenario: Scenario, l_ac_km: float, l_bc_km: float) -> float:
    return secret_key_rate(scenario.with_lengths(l_ac_km, l_bc_km)).k


def _root(f, a: float, fa: float, b: float, fb: float, tol: float) -> float:
    """The point where f changes sign between a and b, in either order, given
    fa = f(a) and fb = f(b), one > 0 and the other <= 0.

    Brent's zeroin (Algorithms for Minimization without Derivatives, 1973,
    ch. 4): an inverse quadratic or secant step where it falls well inside
    the bracket, else bisection. b is the best point so far and c holds f's
    other sign, so [b, c] always brackets the sign change. The result is the
    midpoint of that bracket once it is at most tol wide, or after
    BISECT_MAX_ITER evaluations.
    """
    # the shortest step: a step across a converged b leaves a bracket of
    # tol/4, whose midpoint is within tol/8 of the root
    step = 0.25 * tol
    c, fc = a, fa
    d = e = b - a
    for _ in range(BISECT_MAX_ITER):
        if (fb > 0.0) == (fc > 0.0):  # the last step crossed: a holds the other sign
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        m = 0.5 * (c - b)
        if abs(c - b) <= tol:
            break
        if abs(e) >= step and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation through a, b and c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < 3.0 * m * q - abs(step * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > step else math.copysign(step, m)
        fb = f(b)
    return 0.5 * (b + c)


def _max_distance(f) -> float:
    """Largest axis value with f > 0; inf if f stays positive up to
    MAX_DISTANCE_CAP_KM, or up to a leg whose transmittance underflows to 0.

    Doubles hi from 1 km until f(hi) <= 0; lo is the last probe with f > 0
    (0 when f(1 km) <= 0 already), so `_root` starts from a checked bracket
    and the probes' values.
    """
    f_lo = f(0.0)
    if f_lo <= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    try:
        while (f_hi := f(hi)) > 0.0:
            lo, f_lo, hi = hi, f_hi, 2.0 * hi
            if hi > MAX_DISTANCE_CAP_KM:
                return math.inf
    except TransmittanceUnderflow:  # the search ends where the fiber does
        return math.inf
    return _root(f, lo, f_lo, hi, f_hi, BISECT_TOL_KM)


def max_total_distance_symmetric(scenario: Scenario) -> float:
    """Largest total distance (both legs equal) with positive key rate."""
    leg = _max_distance(lambda l: key_rate_at(scenario, l, l))
    return 2.0 * leg if math.isfinite(leg) else math.inf


def max_distance_asymmetric(scenario: Scenario, l_bc_km: float) -> float:
    """Largest first-leg length with positive key rate at fixed second leg.

    The second leg is built once, and each probe copies the first leg alone,
    so the probes share its terms of the reduction; a sweep passes its
    curve's scenario, whose second leg is already l_bc_km.
    """
    leg_b = scenario.channel_b
    if leg_b.length_km != l_bc_km:
        leg_b = leg_b.with_length(l_bc_km)
        scenario = scenario.with_channels(scenario.channel_a, leg_b)
    leg_a = scenario.channel_a
    return _max_distance(
        lambda l: secret_key_rate(scenario.with_channels(leg_a.with_length(l), leg_b)).k)


def _floats(values) -> tuple:
    """A sequence of numbers (a list, a tuple, an array) as a tuple of floats;
    an array converts in one `tolist()`."""
    if hasattr(values, "tolist"):
        values = values.tolist()
    return tuple(map(float, values))


def sweep_symmetric(scenario: Scenario, l_grid) -> SweepResult:
    """Key rate vs total distance with both legs equal (grid of leg lengths)."""
    l_grid = _floats(l_grid)
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
    l_ac_grid = _floats(l_ac_grid)
    try:
        l_bc_values = _floats(l_bc_values)
    except TypeError:  # not iterable: one length
        l_bc_values = (float(l_bc_values),)
    if not (l_ac_grid and l_bc_values) or any(l < 0 for l in l_ac_grid + l_bc_values):
        raise ValueError("grids must be nonempty and nonnegative")
    # each channel is built once: a first leg per grid length, a second leg per
    # curve, in the curve's scenario, which its points and its range copy, so
    # they share its terms of the reduction
    legs_a = [scenario.channel_a.with_length(l) for l in l_ac_grid]
    curves = []
    for l_bc in l_bc_values:
        leg_b = scenario.channel_b.with_length(l_bc)
        curve = scenario.with_channels(scenario.channel_a, leg_b)
        points = tuple(secret_key_rate(curve.with_channels(leg_a, leg_b)) for leg_a in legs_a)
        curves.append(SweepCurve(
            label=f"l_bc={_length_label(l_bc)}km",
            axis_km=l_ac_grid,
            points=points,
            max_distance_km=max_distance_asymmetric(curve, l_bc),
        ))
    return SweepResult(axis_name="L_AC_km", curves=tuple(curves))


def analytic_k(scenario: Scenario) -> float:
    """Data-domain amplification coefficient matching the scenario's gain."""
    return k_from_gain(scenario.resolved_gain(), scenario.v_b)


_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0  # Brent's golden-section fraction


def _maximize(f, lo: float, hi: float) -> tuple[float, float]:
    """The best (x, f(x)) that f evaluates on [lo, hi], lo < 0 < hi.

    f is evaluated at both ends and at 0. Steps out from 0, of K_FIRST_STEP
    and doubling while f rises, bracket a peak; the walk stops at an end of
    the span. Brent's method (R. P. Brent, Algorithms for Minimization
    without Derivatives, 1973, ch. 5) refines the peak to K_XTOL. The result
    is never below f at 0 or at either end.
    """
    ends = [(lo, f(lo)), (hi, f(hi))]
    x, fx = 0.0, f(0.0)
    step = K_FIRST_STEP
    v, fv = -step, f(-step)
    w, fw = (step, f(step)) if fv <= fx else (v, fv)
    if max(fv, fw) > fx:  # f rises on one side: walk that way
        sign, (end, f_end) = (-1.0, ends[0]) if fv > fx else (1.0, ends[1])
        v, fv, x, fx = x, fx, w, fw
        while x != end:
            step *= 2.0
            w = x + sign * step
            w, fw = (end, f_end) if sign * (w - end) >= 0.0 else (w, f(w))
            if fw <= fx:
                break
            v, fv, x, fx = x, fx, w, fw
    if fv > fw:
        v, fv, w, fw = w, fw, v, fv
    # x is the best point evaluated so far and v, w bracket it, fw >= fv; a
    # walk that rose up to the end of the span leaves w = x there
    a, b = min(v, w), max(v, w)
    # d: the last step, e: the one before; both span the bracket, so that the
    # first two steps may be parabolic
    d = e = b - a
    while True:
        m = 0.5 * (a + b)
        if abs(x - m) <= 2.0 * K_XTOL - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > K_XTOL:  # the parabola through x, v and w
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                d = p / q
                u = x + d
                if u - a < 2.0 * K_XTOL or b - u < 2.0 * K_XTOL:
                    d = math.copysign(K_XTOL, m - x)
                parabolic = True
        if not parabolic:
            e = (a - x) if x >= m else (b - x)
            d = _GOLDEN * e
        u = x + (d if abs(d) >= K_XTOL else math.copysign(K_XTOL, d))
        fu = f(u)
        if fu > fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return max([(x, fx)] + ends, key=lambda point: point[1])


def optimize_k_detection_scheme(scenario: Scenario) -> tuple[float, float]:
    """The maximum (k, K) of the key rate over k in k0 * K_GRID_SPAN, k0 =
    `analytic_k`, by `_maximize` in ln(k / k0): about a dozen scalar
    evaluations. The search starts at the scenario's own gain, so K is never
    below `secret_key_rate(scenario).k`, nor below K at either end of the span.

    A k whose key rate is not finite (the equivalent channel or the kernels
    overflow there) raises the `KeyRateNotFinite` of `_evaluate`,
    which names it.
    """
    terms = gain_free_terms(scenario)  # once per maximum: only g changes
    g0 = terms[-1]  # the resolved gain
    u, best = _maximize(lambda u: _evaluate(scenario, terms, g0 * math.exp(u))[2],
                        math.log(K_GRID_SPAN[0]), math.log(K_GRID_SPAN[1]))
    return k_from_gain(g0 * math.exp(u), scenario.v_b), best


def max_distance_detection_scheme(scenario: Scenario) -> float:
    """Largest first-leg length with positive k-optimized key rate; each probe
    copies the first leg alone, so the probes share the scenario's terms of
    the reduction that its second leg fixes."""
    leg_a, leg_b = scenario.channel_a, scenario.channel_b
    return _max_distance(lambda l: optimize_k_detection_scheme(
        scenario.with_channels(leg_a.with_length(l), leg_b))[1])


def min_detector_efficiency(scenario: Scenario) -> float:
    """Smallest relay detector efficiency with K > 0 at vanishing distance,
    to within DETECTOR_EFFICIENCY_TOL."""
    at_zero = scenario.with_lengths(0.0, 0.0)
    v_el = scenario.detector.electronic_noise

    def rate(eta_d: float) -> float:
        return secret_key_rate(at_zero.with_detector(DetectorParams(eta_d, v_el))).k

    lo, hi = 0.999999, 0.2
    f_lo = rate(lo)
    if f_lo <= 0.0:
        raise ValueError("key rate not positive even for a near-perfect detector")
    while (f_hi := rate(hi)) > 0.0:
        hi /= 2.0
        if hi < 1e-6:
            return 0.0
    return _root(rate, lo, f_lo, hi, f_hi, DETECTOR_EFFICIENCY_TOL)
