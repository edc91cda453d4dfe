"""Key-rate kernels: functions of the equivalent channel (V_A, T, eps') alone.

Its block covariance [[a*I2, c*sigma_z], [c*sigma_z, b*I2]] (shot-noise
units) has a = V_A, b = T(V_A - 1) + 1 + T eps', c^2 = T(V_A - 1)(V_A + 1);
`protocol` gives (T, eps'). A block read from data converts first: T =
c^2/((a - 1)(a + 1)), eps' = (b - 1)/T - (a - 1) (criterion 09 keeps
|dK_max| < 1e-9 through it). The kernels never form a, b or c, and no term
cancels (Weedbrook et al., RMP 84, 621 (2012); Higham, Accuracy and
Stability of Numerical Algorithms, ch. 1-4): det = ab - c^2 = V_A(1 - T +
T eps') + T; nu1 - nu2 = |b - a|, so one square root gives nu1; I_AB =
log1p(T(V_A - 1)/(2 + T eps'))/ln 2, as (a + 1)(b + 1) - c^2 = (V_A + 1)(2 +
T eps'); g(nu) = log2(ap) + am log1p(1/am)/ln 2; and g(nu1) - g(nu3) comes
from (nu1 - nu3)/2 in closed form (`symplectic_excesses`). Floats in and
out, plain `math`.

Every key rate of the package is one `keyrate._evaluate`: one
`block_mutual_information` and one `block_holevo_reverse` call, at each point
of `keyrate.secret_key_rate` (every sweep, range and threshold search) and
each k of the detection scheme's k maximum. Callers outside this module call
them as `kernels.<name>`, so that a test or a tracer that replaces the
module's attribute sees every evaluation.
"""

from math import log, log1p, sqrt

_LN2 = log(2.0)


def _entropy(am: float) -> float:
    """g(nu) in nats from am = (nu - 1)/2 != 0: ln(ap) + am log1p(1/am), ap = am + 1."""
    return log1p(am) + am * log1p(1.0 / am)


def g_entropy(nu: float) -> float:
    """Bosonic entropy g(nu) in bits; 0 for nu <= 1 (clamps roundoff)."""
    if nu <= 1.0:
        return 0.0
    return _entropy((nu - 1.0) / 2.0) / _LN2


def symplectic_excesses(v_a: float, t: float, eps: float) -> tuple:
    """((nu1 - 1)/2, (nu2 - 1)/2, (nu3 - 1)/2, (nu1 - nu3)/2): nu1 >= nu2 the
    block's symplectic eigenvalues, nu3 Alice's given Bob's heterodyne. With
    b - a = (T - 1)(V_A - 1) + T eps', S = sqrt((b - a)^2 + 4 det), q = 2 - 2T
    + T eps': nu1 = (S + |b - a|)/2; nu3 - 1 = (V_A - 1) q/(b + 1); nu2 - 1 =
    (det - nu1)/nu1, det - nu1 = 2 det X/(2 det - |b - a| + S), X = T eps'
    (V_A + 1) if b <= a, else (V_A - 1) q. Where b <= a and 2 nu3 > a - b,
    nu1 - nu3 = 2 T (V_A - 1)^2 (V_A + 1) q/((b + 1)^2 (S + 2 nu3 - (a - b)));
    elsewhere it does not cancel. Excesses below 0 (q < 0) clamp to 0.
    """
    te = t * eps
    tv = t * (v_a - 1.0)
    b1 = tv + 2.0 + te  # b + 1
    gap = (t - 1.0) * (v_a - 1.0) + te  # b - a
    det = v_a * (1.0 - t + te) + t
    root = sqrt(gap * gap + 4.0 * det)
    width = abs(gap)
    nu1 = 0.5 * (root + width)
    q = 2.0 - 2.0 * t + te
    am3 = (v_a - 1.0) * q / (2.0 * b1)
    am3 = 0.0 if 0.0 > am3 else am3  # `max(am3, 0.0)` without the builtin's call
    am2 = det * (te * (v_a + 1.0) if gap <= 0.0 else 2.0 * b1 * am3) / (
        nu1 * (2.0 * det - width + root))
    am2 = 0.0 if 0.0 > am2 else am2
    am1 = am2 + 0.5 * width
    nu3 = 2.0 * am3 + 1.0
    if gap <= 0.0 and 2.0 * nu3 > width:
        half = tv / b1 * (v_a - 1.0) / b1 * (v_a + 1.0) * q / (root + 2.0 * nu3 - width)
    else:
        half = am1 - am3
    return am1, am2, am3, half


def block_mutual_information(v_a: float, t: float, eps: float) -> float:
    """Two-quadrature Gaussian mutual information for dual heterodyne, bits."""
    return log1p(t * (v_a - 1.0) / (2.0 + t * eps)) / _LN2


def block_holevo_reverse(v_a: float, t: float, eps: float) -> float:
    """Holevo bound on Eve's information about mode-B heterodyne data, bits:
    g(nu1) + g(nu2) - g(nu3), with g(nu1) - g(nu3) from d = (nu1 - nu3)/2 as
    log1p(d/ap3) + d log1p(1/am1) + am3 log1p(-d/(ap3 am1)), am1 = am3 + d."""
    _, am2, am3, d = symplectic_excesses(v_a, t, eps)
    # `!= 0.0`, not `> 0.0`: a NaN of an overflowed channel reaches the result
    chi = _entropy(am2) if am2 != 0.0 else 0.0
    am1 = am3 + d
    if am3 != 0.0:
        ap3 = am3 + 1.0
        chi += log1p(d / ap3) + d * log1p(1.0 / am1) + am3 * log1p(-d / (ap3 * am1))
    elif am1 != 0.0:
        chi += _entropy(am1)
    return chi / _LN2
