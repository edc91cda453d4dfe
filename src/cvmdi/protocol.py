"""The relay-based protocol under two independent entangling-cloner attacks.

This module holds the paper's reduction, once: at displacement gain g the
scheme is one-way coherent-state CV QKD with heterodyne detection over an
equivalent channel of transmittance T and input-referred excess noise eps'
(the relay detector's penalty included). It is three steps, which the key
rate (`keyrate`) and the oracle (`oracle.run_oracle_suites`) compose
themselves (see the reduction's comment): `gain_free_terms`, once per
scenario; `channel_at`, (T, eps') at one g; and `block_params`, the block
covariance (a, b, c) from (T, eps'). Around it: the parameter types, which
sweeps and searches copy rather than construct again, the gain rule
(`Scenario.resolved_gain`), and the explicit mode-by-mode Gaussian
composition (`compose_eb_simulated`) that cross-checks the reduction. The
module itself needs only `math`; `compose_eb_simulated` loads numpy and
`gaussian` when it is called.
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
        self._check_length()
        if self.attenuation_db_per_km <= 0:
            raise ValueError("attenuation must be > 0 dB/km")
        if self.excess_noise < 0:
            raise ValueError("excess noise must be >= 0")
        self._set_transmittance()

    def _check_length(self):
        if not math.isfinite(self.length_km):
            raise _non_finite(self)
        if self.length_km < 0:
            raise ValueError(f"channel length {self.length_km} km must be >= 0")

    def _set_transmittance(self):
        # stored, not a property: it is read several times per key-rate point
        t = self.__dict__["transmittance"] = 10.0 ** (-self.attenuation_db_per_km
                                                       * self.length_km / 10.0)
        if t == 0.0:
            raise TransmittanceUnderflow(f"channel length {self.length_km} km at "
                                         f"{self.attenuation_db_per_km} dB/km: transmittance "
                                         f"underflows to 0")

    def with_length(self, length_km: float) -> "ChannelParams":
        """The same fiber at another length: a copy, whose attenuation and
        excess noise were checked when this fiber was built, so only the new
        length is checked, with the constructor's checks and error texts."""
        new = _frozen(ChannelParams, {"length_km": length_km}, self)
        new._check_length()
        new._set_transmittance()
        return new


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
        """The one gain rule: `gain` when fixed, else `optimal_gain`; callers pass it on."""
        return self.gain if self.gain_mode == "fixed" else optimal_gain(self)


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
# noise chi_det adds 2 chi_det / eta_a; (T, eps') give the block covariance
# (a, b, c) that `kernels` evaluates. Each step is written once:
# `gain_free_terms` computes the terms of (T, eps') that do not depend on g,
# `channel_at` gives (T, eps') at one g from them, and `block_params` gives
# (a, b, c) from (T, eps'). A scenario's gain-free terms are computed once,
# also for a search over g (the detection scheme's k maximum) and for an oracle
# run, and no wrapper composes the steps for one value. These functions take
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


def gain_free_terms(scenario: Scenario) -> tuple:
    """The terms of the equivalent channel that do not depend on the gain, a
    tuple of floats for `channel_at`: eta_a; eps' less its mismatch term and
    the detector penalty; sqrt(v_b - 1); sqrt(eta_b) sqrt(v_b + 1); and the
    relay detector penalty 2 chi_det / eta_a."""
    ch_a, ch_b, v_b = scenario.channel_a, scenario.channel_b, scenario.v_b
    eta_a, eta_b = ch_a.transmittance, ch_b.transmittance
    chi_a = (1.0 - eta_a) / eta_a + ch_a.excess_noise
    chi_b = (1.0 - eta_b) / eta_b + ch_b.excess_noise
    det = scenario.detector
    return (eta_a, 1.0 + (eta_b * (chi_b - 1.0) + eta_a * chi_a) / eta_a,
            (v_b - 1.0) ** 0.5, eta_b ** 0.5 * (v_b + 1.0) ** 0.5,
            2.0 * detector_noise(det.efficiency, det.electronic_noise) / eta_a)


def channel_at(terms: tuple, g):
    """(T, eps') of the equivalent channel at gain g, from `gain_free_terms`.

    The mismatch term of eps' vanishes, and eps' is smallest, at
    `optimal_gain`; a perfect detector's penalty is exactly 0.0.
    """
    eta_a, eps_matched, root_minus, root_plus, penalty = terms
    mismatch = _SQRT2 / g * root_minus - root_plus
    return eta_a / 2.0 * g * g, eps_matched + mismatch * mismatch / eta_a + penalty


def entangling_cloner_variance(eta: float, eps: float) -> float:
    """Variance of Eve's EPR pair realizing transmittance eta and noise eps."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"transmittance {eta} outside (0, 1)")
    return 1.0 + eta * eps / (1.0 - eta)


def compose_eb_simulated(scenario: Scenario, g: float) -> "CovarianceMatrix":
    """Post-protocol covariance by explicit Gaussian composition.

    Chain: two EPR sources, entangling-cloner channels, the 50:50 relay
    beamsplitter C = (A'-B')/sqrt(2), D = (A'+B')/sqrt(2), and Bob's
    outcome-driven displacement B1x' = B1x + g Cx, B1p' = B1p + g Dp. The
    ensemble covariance over announced outcomes is the covariance of these
    linear quadrature combinations. A lossless leg adds its excess noise eps
    to both quadrature variances of its mode, the cloner's eta -> 1 limit.
    """
    import numpy as np

    from .gaussian import CovarianceMatrix, apply_beamsplitter, tensor, tms_state

    if g <= 0:
        raise ValueError("gain must be > 0")

    # modes: 0=A1, 1=A2, 2=B1, 3=B2, then Eve's cloner pair of each lossy leg
    state = tensor(tms_state(scenario.v_a), tms_state(scenario.v_b))
    for mode, ch in ((1, scenario.channel_a), (3, scenario.channel_b)):
        eta = ch.transmittance
        if eta < 1.0:
            injected = state.n_modes  # kept arm at injected + 1
            state = tensor(state, tms_state(entangling_cloner_variance(eta, ch.excess_noise)))
            state = apply_beamsplitter(state, injected, mode, eta)
        else:
            noise = np.zeros(2 * state.n_modes)
            noise[2 * mode:2 * mode + 2] = ch.excess_noise
            state = CovarianceMatrix(state.entries + np.diag(noise))
    # relay: mode 1 -> C = (A'-B')/sqrt(2), mode 3 -> D = (A'+B')/sqrt(2)
    state = apply_beamsplitter(state, 1, 3, 0.5)

    dim = 2 * state.n_modes
    sel = np.zeros((4, dim))
    sel[0, 0] = 1.0                 # A1 x
    sel[1, 1] = 1.0                 # A1 p
    sel[2, 4] = 1.0                 # B1 x
    sel[2, 2] = g                   # + g Cx
    sel[3, 5] = 1.0                 # B1 p
    sel[3, 7] = g                   # + g Dp
    return CovarianceMatrix(sel @ state.entries @ sel.T)
