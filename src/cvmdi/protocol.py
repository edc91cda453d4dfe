"""The relay-based protocol under two independent entangling-cloner attacks.

This module holds the paper's reduction, once: at displacement gain g the
scheme is one-way coherent-state CV QKD with heterodyne detection over an
equivalent channel of transmittance T and input-referred excess noise eps'
(the relay detector's penalty included). It is two steps, which the key
rate (`keyrate`) and the oracle (`oracle.run_oracle_suites`) compose
themselves (see the reduction's comment): `gain_free_terms`, once per
scenario, whose second leg's part also holds the gain rule (read by
`Scenario.resolved_gain`); and
`channel_at`, (T, eps') at one g. The key-rate kernels take (V_A, T, eps')
as they are; `block_params` gives the block covariance (a, b, c) from (T,
eps') for the oracle's covariance suite. Around it: the parameter types,
which sweeps and searches copy rather than construct again, and the exact
reference's composition (`compose_eb_simulated`): the entanglement-based
scheme composed mode by mode in stdlib `decimal`, which cross-checks the
reduction. The module needs only `math`; `compose_eb_simulated` loads
`decimal` when it is called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

DEFAULT_ATTENUATION_DB_PER_KM = 0.2

# smallest batch `montecarlo.estimate_params` accepts; `load_config` holds mc.n
# to it. It lives here, the one module both import, so that loading a config
# does not load the Monte Carlo layer.
MIN_ESTIMATION_SAMPLES = 1000


def _non_finite(params) -> ValueError:
    """The error for a parameter set with a NaN or infinite number field."""
    values = [(f.name, getattr(params, f.name)) for f in fields(params)]
    bad = [f"{name} = {v}" for name, v in values
           if isinstance(v, (int, float)) and not math.isfinite(v)]
    return ValueError(f"{', '.join(bad)} must be finite")


def _frozen(cls, values: dict, base=None):
    """An instance of the frozen dataclass cls with these field values, set over
    those of base (an instance of cls that it copies) when given. It is made
    without the generated `__init__`, which calls `object.__setattr__` once
    per field, and without `__post_init__`: the caller has checked what it
    sets. Equality, hash, repr and `FrozenInstanceError` are those of the
    constructed instance."""
    new = object.__new__(cls)
    state = new.__dict__
    if base is not None:
        state.update(base.__dict__)
    state.update(values)
    return new


class TransmittanceUnderflow(ValueError):
    """A fiber so long at its attenuation that its transmittance underflows
    to 0: no key rate is defined there, and a range search stops before it."""


def _check_length(length_km):
    """The check of a fiber length, with the constructor's error texts; the
    fiber's other fields are checked before it."""
    if not math.isfinite(length_km):
        raise ValueError(f"length_km = {length_km} must be finite")
    if length_km < 0:
        raise ValueError(f"channel length {length_km} km must be >= 0")


def _transmittance(length_km, attenuation_db_per_km):
    """10^(-attenuation * length / 10) of a checked fiber, not 0."""
    t = 10.0 ** (-attenuation_db_per_km * length_km / 10.0)
    if t == 0.0:
        raise TransmittanceUnderflow(f"channel length {length_km} km at {attenuation_db_per_km} "
                                     f"dB/km: transmittance underflows to 0")
    return t


@dataclass(frozen=True)
class ChannelParams:
    """One fiber link: length, attenuation, and input-referred excess noise.

    `transmittance` = 10^(-attenuation * length / 10) is set once at
    construction; it is not a field, so equality, hash and repr are those of
    the three fields.
    """

    length_km: float
    attenuation_db_per_km: float = DEFAULT_ATTENUATION_DB_PER_KM
    excess_noise: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.attenuation_db_per_km) and math.isfinite(self.excess_noise)):
            raise _non_finite(self)
        _check_length(self.length_km)
        if self.attenuation_db_per_km <= 0:
            raise ValueError("attenuation must be > 0 dB/km")
        if self.excess_noise < 0:
            raise ValueError("excess noise must be >= 0")
        # stored, not a property: it is read several times per key-rate point
        self.__dict__["transmittance"] = _transmittance(self.length_km,
                                                        self.attenuation_db_per_km)

    def with_length(self, length_km: float) -> "ChannelParams":
        """The same fiber at another length: one copy, which holds its
        transmittance. Its attenuation and excess noise were checked when this
        fiber was built, so only the new length is checked, before its power
        is computed, with the constructor's checks and error texts."""
        _check_length(length_km)
        return _frozen(ChannelParams, {"length_km": length_km, "transmittance": _transmittance(
            length_km, self.attenuation_db_per_km)}, self)


@dataclass(frozen=True)
class DetectorParams:
    """Relay homodyne detector efficiency and electronic noise variance."""

    efficiency: float = 1.0
    electronic_noise: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.efficiency) and math.isfinite(self.electronic_noise)):
            raise _non_finite(self)
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"detector efficiency {self.efficiency} outside (0, 1]")
        if self.electronic_noise < 0:
            raise ValueError("electronic noise must be >= 0")


@dataclass(frozen=True)
class Scenario:
    """Full protocol parameter set for one key-rate evaluation."""

    v_a: float
    v_b: float
    channel_a: ChannelParams
    channel_b: ChannelParams
    beta_r: float = 1.0
    detector: DetectorParams = field(default_factory=DetectorParams)
    gain_mode: str = "optimal"  # "optimal" | "fixed"
    gain: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.v_a) and math.isfinite(self.v_b) and math.isfinite(self.beta_r)
                and (self.gain is None or math.isfinite(self.gain))):
            raise _non_finite(self)
        if self.v_a < 1:
            raise ValueError(f"modulation variance v_a = {self.v_a} must be >= 1")
        if self.v_b <= 1:
            raise ValueError(f"modulation variance v_b = {self.v_b} must be > 1: Bob's "
                             f"modulation defines the displacement gain")
        if not 0.0 < self.beta_r <= 1.0:
            raise ValueError(f"reconciliation efficiency {self.beta_r} outside (0, 1]")
        if self.gain_mode not in ("optimal", "fixed"):
            raise ValueError(f"unknown gain_mode {self.gain_mode!r}")
        if self.gain_mode == "fixed":
            if self.gain is None or self.gain <= 0:
                raise ValueError("fixed gain_mode requires gain > 0")
        elif self.gain is not None:
            raise ValueError(f"scenario.gain = {self.gain} has no effect under gain_mode "
                             f"'optimal'; set gain_mode to 'fixed' to use it")

    def with_lengths(self, l_ac_km: float, l_bc_km: float) -> "Scenario":
        return self.with_channels(self.channel_a.with_length(l_ac_km),
                                  self.channel_b.with_length(l_bc_km))

    def with_channels(self, channel_a: ChannelParams, channel_b: ChannelParams) -> "Scenario":
        """This scenario over other channels.

        A copy, not a new construction: every field `__post_init__` checks is
        this scenario's, and each `ChannelParams` checked itself when built.
        """
        return _frozen(Scenario, {"channel_a": channel_a, "channel_b": channel_b}, self)

    def with_detector(self, detector: DetectorParams) -> "Scenario":
        """This scenario with another relay detector, a copy as `with_channels` makes."""
        return _frozen(Scenario, {"detector": detector}, self)

    def resolved_gain(self) -> float:
        """The run's gain, the last of the scenario's `_leg_b_terms`, which
        hold the one gain rule; a caller that has the terms reads it there."""
        return _leg_b_terms(self)[-1]


def optimal_gain(scenario: Scenario) -> float:
    """Displacement gain minimizing the equivalent excess noise, a float.

    `math.sqrt`, not `** 0.5`: CPython's float power is libm `pow`, which is
    not always correctly rounded at 0.5, and `sqrt` is.
    """
    eta_b = scenario.channel_b.transmittance
    return math.sqrt(2.0 / eta_b) * _k_per_gain(scenario.v_b)


# -- the reduction -------------------------------------------------------------
# The relay scheme at displacement gain g is one-way coherent-state CV QKD with
# heterodyne detection over a channel of transmittance T = eta_a g^2 / 2 and
# input-referred excess noise eps', to which a relay detector of input-referred
# noise chi_det adds 2 chi_det / eta_a; `kernels` evaluates the key rate of
# (V_A, T, eps'). Each step is written once: `gain_free_terms` computes the
# terms of (T, eps') that do not depend on g, with the optimal gain and the
# run's gain, `channel_at` gives (T, eps') at one g from them, and
# `block_params` gives the block covariance (a, b, c) from (T, eps'). No term
# of eps' cancels: its matched part is eps_a + (2(1 - eta_b) + eta_b eps_b)/eta_a,
# and its mismatch r+ (g_opt/g - 1) is exactly 0.0 at the optimal gain, so a
# pure-loss channel at L_BC = 0 has eps' = 0.0 at every leg. A scenario's
# gain-free terms are computed once, also for a search over g (the detection
# scheme's k maximum) and for an oracle run, and no wrapper composes the
# steps for one value. They are two parts: `_leg_b_terms`, fixed by the
# second leg, v_b, the relay detector and the gain rule, and their
# completion by the first leg (eta_a, eps_a), `_with_first_leg`;
# `gain_free_terms` composes them, and a sweep or search that moves only the
# first leg (`keyrate._first_leg`) computes the first part once per curve or
# search and completes it per point or probe. These functions take
# and return floats. Their square roots are `** 0.5`, not `math.sqrt`, because
# that keeps every published cell unchanged: CPython's float power is libm
# `pow`, which is not always correctly rounded at 0.5, so `math.sqrt` would
# move some cells by an ulp.

_SQRT2 = 2.0 ** 0.5


def _k_per_gain(v_b):
    """Data-domain amplification k per unit displacement gain g."""
    return ((v_b - 1.0) / (v_b + 1.0)) ** 0.5


def k_from_gain(g, v_b):
    """Data-domain amplification equivalent to displacement gain g."""
    return g * _k_per_gain(v_b)


def block_params(v_a, t, eps):
    """(a, b, c) of [[a I2, c sigma_z], [c sigma_z, b I2]] for modulation v_a
    sent through transmittance t with input-referred excess noise eps; c reads
    v_a^2 - 1 as (v_a - 1)(v_a + 1), which does not cancel near v_a = 1."""
    return v_a, t * (v_a - 1.0) + 1.0 + t * eps, (t * ((v_a - 1.0) * (v_a + 1.0))) ** 0.5


def detector_noise(eta_d: float, v_el: float) -> float:
    """Input-referred homodyne detector noise (1 - eta_d)/eta_d + v_el/eta_d of
    a `DetectorParams`' fields, whose construction checks their range."""
    return (1.0 - eta_d) / eta_d + v_el / eta_d


def _leg_b_terms(scenario: Scenario) -> tuple:
    """The part of `gain_free_terms` that the second leg, v_b, the relay
    detector and the gain rule fix, a tuple of floats: 2(1 - eta_b) + eta_b
    eps_b, the second leg's noise, which `_with_first_leg` divides by eta_a;
    sqrt(eta_b) sqrt(v_b + 1); the optimal gain g_opt; 2 chi_det; and the
    run's gain, the one gain rule: `gain` when fixed, else g_opt."""
    ch_b, v_b = scenario.channel_b, scenario.v_b
    eta_b = ch_b.transmittance
    det = scenario.detector
    g_opt = optimal_gain(scenario)
    return (2.0 * (1.0 - eta_b) + eta_b * ch_b.excess_noise, eta_b ** 0.5 * (v_b + 1.0) ** 0.5,
            g_opt, 2.0 * detector_noise(det.efficiency, det.electronic_noise),
            scenario.gain if scenario.gain_mode == "fixed" else g_opt)


def _with_first_leg(leg_b: tuple, channel_a: ChannelParams) -> tuple:
    """`_leg_b_terms` completed by the first leg into `gain_free_terms`."""
    noise_b, root_plus, g_opt, penalty, g = leg_b
    eta_a = channel_a.transmittance
    return eta_a, channel_a.excess_noise + noise_b / eta_a, root_plus, g_opt, penalty / eta_a, g


def gain_free_terms(scenario: Scenario) -> tuple:
    """The terms of the equivalent channel that do not depend on the gain g at
    which `channel_at` evaluates it, a tuple of floats: eta_a; eps' less its
    mismatch term and the detector penalty, eps_a + (2(1 - eta_b) + eta_b
    eps_b)/eta_a, whose terms do not cancel; sqrt(eta_b) sqrt(v_b + 1); the
    optimal gain g_opt; the relay detector penalty 2 chi_det / eta_a; and the
    run's gain."""
    return _with_first_leg(_leg_b_terms(scenario), scenario.channel_a)


def channel_at(terms: tuple, g):
    """(T, eps') of the equivalent channel at gain g, from `gain_free_terms`.

    The mismatch term of eps', sqrt(eta_b) sqrt(v_b + 1) (g_opt/g - 1), is
    exactly 0.0 at the optimal gain, where eps' is smallest; a perfect
    detector's penalty is exactly 0.0.
    """
    eta_a, eps_matched, root_plus, g_opt, penalty, _ = terms
    mismatch = root_plus * (g_opt / g - 1.0)
    return eta_a / 2.0 * g * g, eps_matched + mismatch * mismatch / eta_a + penalty


# -- the exact reference, in `decimal`: this composition and `keyrate`'s two
# `*_generic` functions. They share no formula with the reduction or the kernels.
def _at_agreed_precision(at):
    """The reference's precision rule: at(digits), a tuple of Decimals, at 240
    significant digits when each value is within 1e-40 (1 + |value|) of its
    value at 120, else at 600 (a cancellation took more than 80 of 120
    digits, as on legs of thousands of km, or all of them, as at V_A = 1e79,
    where a root or a log at 120 or 240 digits has no value)."""
    try:
        low, high = at(120), at(240)
    except ArithmeticError:  # decimal's InvalidOperation: a root or log of a value <= 0
        return at(600)
    if all(abs(x - y) * 10 ** 40 <= 1 + abs(y) for x, y in zip(low, high)):
        return high
    return at(600)


def compose_eb_simulated(scenario: Scenario, g: float) -> tuple:
    """The covariance of (x_A1, p_A1, x_B1', p_B1'), 4 rows of 4 Decimals, of
    the entanglement-based scheme at gain g, composed mode by mode: A1 A2 and
    B1 B2 are two-mode squeezed vacua; A2 and B2 pass entangling cloners
    (Eve's two-mode squeezed vacuum of variance 1 + eta eps/(1 - eta), an arm
    mixed in at eta = 10^(-attenuation * length / 10); eps added at eta = 1);
    the relay mixes them 50:50 into C and D, its detector mixes each with
    vacuum at eta_d, adds v_el to x of C and p of D and rescales them by
    1/sqrt(eta_d); Bob displaces B1 by g times these readings."""
    from decimal import Decimal, localcontext

    if g <= 0:
        raise ValueError("gain must be > 0")
    det = scenario.detector

    def at(digits):
        with localcontext() as ctx:
            ctx.prec = digits
            # the covariances of the modes' x and of their p: no step of the
            # scheme correlates an x with a p
            xs, ps = [], []

            def tms(v):  # two new modes
                c = ((v - 1) * (v + 1)).sqrt()
                for cov, corr in ((xs, c), (ps, -c)):
                    n = len(cov)
                    cov[:] = [row + [0, 0] for row in cov] + [[0] * n + [v, corr],
                                                              [0] * n + [corr, v]]

            def mix(i, j, tau):  # a beam splitter: i <- t i - r j, j <- r i + t j
                t, r = tau.sqrt(), (1 - tau).sqrt()
                for cov in (xs, ps):
                    cov[i], cov[j] = ([t * x - r * y for x, y in zip(cov[i], cov[j])],
                                      [r * x + t * y for x, y in zip(cov[i], cov[j])])
                    for row in cov:
                        row[i], row[j] = t * row[i] - r * row[j], r * row[i] + t * row[j]

            def discard():  # trace out the two newest modes
                for cov in (xs, ps):
                    cov[:] = [row[:-2] for row in cov[:-2]]

            tms(Decimal(scenario.v_a))  # modes 0 = A1, 1 = A2
            tms(Decimal(scenario.v_b))  # modes 2 = B1, 3 = B2
            for mode, ch in ((1, scenario.channel_a), (3, scenario.channel_b)):
                eta = 10 ** (-Decimal(ch.attenuation_db_per_km) * Decimal(ch.length_km) / 10)
                if eta == 1:
                    xs[mode][mode] += Decimal(ch.excess_noise)
                    ps[mode][mode] += Decimal(ch.excess_noise)
                else:  # Eve's modes 4 and 5
                    tms(1 + eta * Decimal(ch.excess_noise) / (1 - eta))
                    mix(4, mode, eta)
                    discard()
            mix(1, 3, Decimal(0.5))  # mode 1 is C, mode 3 is D
            tms(Decimal(1))  # the detector's vacua, modes 4 and 5
            mix(4, 1, Decimal(det.efficiency))
            mix(5, 3, Decimal(det.efficiency))
            discard()
            xs[1][1] += Decimal(det.electronic_noise)
            ps[3][3] += Decimal(det.electronic_noise)
            h = Decimal(g) / Decimal(det.efficiency).sqrt()
            # A1 is mode 0, B1' mode 2 plus h times mode 1 (x) or mode 3 (p)
            (xa, xab, xb), (pa, pab, pb) = (
                (cov[0][0], cov[0][2] + h * cov[0][m],
                 cov[2][2] + 2 * h * cov[2][m] + h * h * cov[m][m])
                for cov, m in ((xs, 1), (ps, 3)))
            return xa, 0, xab, 0, 0, pa, 0, pab, xab, 0, xb, 0, 0, pab, 0, pb

    flat = [Decimal(x) for x in _at_agreed_precision(at)]
    return tuple(tuple(flat[i:i + 4]) for i in range(0, 16, 4))
