"""Protocol composition: channels, gain optimization, dual-path covariance."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvmdi import ChannelParams, DetectorParams, Scenario, kernels, protocol
from cvmdi.keyrate import secret_key_rate
from cvmdi.protocol import (
    _frozen,
    channel_at,
    compose_eb_simulated,
    detector_noise,
    gain_free_terms,
    optimal_gain,
)
from conftest import composition_deviation, make_scenario, random_scenario, reduced_block, \
    reduced_channel, reference_key_rate, ref_reduction


class TestChannelParams:
    def test_transmittance(self):
        assert ChannelParams(0.0).transmittance == 1.0
        assert ChannelParams(50.0, 0.2).transmittance == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(-1.0)
        with pytest.raises(ValueError):
            ChannelParams(1.0, excess_noise=-0.1)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                ChannelParams(bad)
            with pytest.raises(ValueError, match="must be finite"):
                ChannelParams(1.0, excess_noise=bad)
        with pytest.raises(ValueError, match="underflows"):
            ChannelParams(1e5)


class TestScenario:
    def test_with_lengths(self):
        s = make_scenario(1.0, 2.0).with_lengths(5.0, 6.0)
        assert s.channel_a.length_km == 5.0
        assert s.channel_b.length_km == 6.0
        assert s.channel_a.excess_noise == 0.002  # other fields preserved

    @pytest.mark.parametrize("bad", [-1.0, -1e5, math.nan, math.inf, 1e5])
    def test_derived_scenarios_keep_the_length_checks(self, bad):
        # 1e5 km at 0.2 dB/km: the transmittance underflows to 0; at -1e5 km
        # 10^2000 overflows, so only a sign check before the power gives the
        # constructor's error
        s = make_scenario(1.0, 2.0, eps=0.004)
        with pytest.raises(ValueError) as built:
            make_scenario(bad, 2.0, eps=0.004)
        for derive in (lambda: s.with_lengths(bad, 2.0), lambda: s.with_lengths(2.0, bad),
                       lambda: s.channel_a.with_length(bad), lambda: s.channel_b.with_length(bad),
                       lambda: s.with_channels(s.channel_a.with_length(bad), s.channel_b),
                       lambda: s.with_channels(s.channel_a, s.channel_b.with_length(bad))):
            with pytest.raises(ValueError) as derived:
                derive()
            assert str(derived.value) == str(built.value)

    def test_derived_scenario_is_the_constructed_one(self):
        built = make_scenario(5.0, 6.0, eta_d=0.9, gain_mode="fixed", gain=1.3)
        base = make_scenario(1.0, 2.0, eta_d=0.9, gain_mode="fixed", gain=1.3)
        for derived in (base.with_lengths(5.0, 6.0),
                        base.with_channels(ChannelParams(5.0, 0.2, 0.002),
                                           ChannelParams(6.0, 0.2, 0.002))):
            assert derived == built and hash(derived) == hash(built)
            assert repr(derived) == repr(built)
            with pytest.raises(dataclasses.FrozenInstanceError):
                derived.channel_a = base.channel_a
        detector = DetectorParams(0.8, 0.01)
        derived = base.with_detector(detector)
        replaced = dataclasses.replace(base, detector=detector)
        assert derived == replaced and hash(derived) == hash(replaced)
        assert repr(derived) == repr(replaced)
        # a channel at another length is the one built at that length, its
        # transmittance the same float
        for length in (0.0, 5.0, 6.0, 123.456, 1e4):
            channel = ChannelParams(length, 0.2, 0.002)
            derived = base.channel_a.with_length(length)
            assert derived == channel and hash(derived) == hash(channel)
            assert repr(derived) == repr(channel)
            assert derived.transmittance.hex() == channel.transmittance.hex()
            with pytest.raises(dataclasses.FrozenInstanceError):
                derived.length_km = 1.0
        assert base.channel_a.length_km == 1.0  # the source is not changed
        assert base.detector.efficiency == 0.9

    def test_fixed_gain_requires_value(self):
        with pytest.raises(ValueError):
            make_scenario(gain_mode="fixed")

    def test_resolved_gain(self):
        s = make_scenario(3.0, 3.0)
        assert s.resolved_gain() == pytest.approx(optimal_gain(s))
        f = make_scenario(3.0, 3.0, gain_mode="fixed", gain=1.7)
        assert f.resolved_gain() == 1.7

    def test_beta_range(self):
        with pytest.raises(ValueError):
            make_scenario(beta=1.2)

    def test_rejects_non_finite_and_unmodulated_bob(self):
        from dataclasses import replace
        s = make_scenario()
        with pytest.raises(ValueError, match="v_a = nan must be finite"):
            replace(s, v_a=math.nan)
        with pytest.raises(ValueError, match="gain = inf must be finite"):
            replace(s, gain_mode="fixed", gain=math.inf)
        with pytest.raises(ValueError, match="electronic_noise = inf must be finite"):
            DetectorParams(0.9, math.inf)
        with pytest.raises(ValueError, match="v_b"):
            replace(s, v_b=1.0)


# The underflow limit of a leg at 0.2 dB/km: 10^(-0.02 L) is the smallest
# subnormal, 5e-324, at L = 16165.3 km
UNDERFLOW_KM = 16165.0
LEGS = st.floats(0.0, 10.0) | st.floats(0.0, UNDERFLOW_KM)
CHANNELS = st.builds(ChannelParams, LEGS, st.just(0.2), st.floats(0.0, 0.1))
DETECTORS = st.builds(DetectorParams, st.floats(0.5, 1.0), st.floats(0.0, 0.1))


@st.composite
def scenarios(draw):
    """V_A and V_B up to 1e20, legs up to the underflow limit, an imperfect
    relay detector, the optimal gain or a fixed one."""
    fixed = draw(st.booleans())
    return Scenario(v_a=10.0 ** draw(st.floats(0.0, 20.0)), v_b=10.0 ** draw(st.floats(0.01, 20.0)),
                    channel_a=draw(CHANNELS), channel_b=draw(CHANNELS),
                    beta_r=draw(st.floats(0.9, 1.0)), detector=draw(DETECTORS),
                    gain_mode="fixed" if fixed else "optimal",
                    gain=draw(st.floats(0.01, 100.0)) if fixed else None)


# Each way to derive a scenario from s, drawing what it changes
DERIVATIONS = {
    "with_lengths": lambda s, draw: s.with_lengths(draw(LEGS), draw(LEGS)),
    "with_channels, same second leg": lambda s, draw: s.with_channels(draw(CHANNELS),
                                                                      s.channel_b),
    "with_channels, new second leg": lambda s, draw: s.with_channels(s.channel_a, draw(CHANNELS)),
    "with_channels, both legs new": lambda s, draw: s.with_channels(draw(CHANNELS),
                                                                    draw(CHANNELS)),
    "with_detector": lambda s, draw: s.with_detector(draw(DETECTORS)),
    "replace": lambda s, draw: dataclasses.replace(
        s, v_b=10.0 ** draw(st.floats(0.01, 20.0)), channel_b=draw(CHANNELS),
        detector=draw(DETECTORS)),
}


def rebuilt(s: Scenario) -> Scenario:
    """The scenario of s's fields, constructed anew."""
    a, b, det = s.channel_a, s.channel_b, s.detector
    return Scenario(s.v_a, s.v_b,
                    ChannelParams(a.length_km, a.attenuation_db_per_km, a.excess_noise),
                    ChannelParams(b.length_km, b.attenuation_db_per_km, b.excess_noise),
                    s.beta_r, DetectorParams(det.efficiency, det.electronic_noise),
                    s.gain_mode, s.gain)


def stale(scenarios) -> list:
    """The scenarios whose gain-free terms differ in any bit from those of
    their fields constructed anew, or whose equality, hash or repr differ
    from the new one's."""
    found = []
    for s in scenarios:
        new = rebuilt(s)
        if ([x.hex() for x in gain_free_terms(s)] != [x.hex() for x in gain_free_terms(new)]
                or s != new or hash(s) != hash(new) or repr(s) != repr(new)):
            found.append(s)
    return found


class TestSharedLegBTerms:
    """A scenario's copies that keep its second leg and detector share its
    terms of the reduction that these fix; no other copy may read them."""

    @settings(max_examples=300, deadline=None)
    @given(base=scenarios(), data=st.data())
    def test_property_derived_scenarios_hold_no_stale_terms(self, base, data):
        # chains of derivations, with the terms of drawn scenarios computed
        # between them, so that a copy can inherit a filled record
        pool = [base]
        for _ in range(data.draw(st.integers(1, 6))):
            if data.draw(st.booleans()):
                gain_free_terms(data.draw(st.sampled_from(pool)))
            derive = DERIVATIONS[data.draw(st.sampled_from(sorted(DERIVATIONS)))]
            pool.append(derive(data.draw(st.sampled_from(pool)), data.draw))
        assert stale(pool) == []

    def test_a_copy_that_keeps_the_record_of_another_leg_is_stale(self, monkeypatch):
        # the control: a `with_channels` that keeps the record when the second
        # leg changes serves its copies the old leg's terms
        def keeping(self, channel_a, channel_b):
            return _frozen(Scenario, {"channel_a": channel_a, "channel_b": channel_b}, self)

        base = make_scenario(1.0, 2.0, eta_d=0.9, v_el=0.01)
        gain_free_terms(base)
        copies = [base.with_channels(base.channel_a, base.channel_b.with_length(5.0)),
                  base.with_lengths(1.0, 5.0)]
        assert stale([base] + copies) == []
        monkeypatch.setattr(Scenario, "with_channels", keeping)
        copies = [base.with_channels(base.channel_a, base.channel_b.with_length(5.0)),
                  base.with_lengths(1.0, 5.0)]
        assert stale([base] + copies) == copies

    def test_building_and_copying_call_no_public_function(self, monkeypatch):
        # the benchmark's tracer wraps the public functions of `protocol` and
        # `kernels`; building or copying parameters outside a timed item must
        # not record a span there, so none of them may run
        def refusing(name):
            def refuse(*args, **kwargs):
                raise AssertionError(f"{name} called")
            return refuse

        for module in (protocol, kernels):
            for name, obj in list(vars(module).items()):
                if (callable(obj) and not isinstance(obj, type) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    monkeypatch.setattr(module, name, refusing(name))
        channel = ChannelParams(3.0, 0.2, 0.002)
        detector = DetectorParams(0.9, 0.01)
        s = Scenario(40.0, 40.0, channel, channel.with_length(2.0), detector=detector)
        fixed = Scenario(40.0, 40.0, channel, channel, detector=detector, gain_mode="fixed",
                         gain=1.3)
        copies = [s.with_lengths(1.0, 2.0), s.with_channels(channel, s.channel_b),
                  s.with_channels(channel, channel), s.with_detector(DetectorParams()),
                  dataclasses.replace(fixed, gain=1.4), dataclasses.replace(channel, length_km=4.0),
                  dataclasses.replace(detector, efficiency=0.8)]
        assert [type(c).__name__ for c in copies] == ["Scenario"] * 5 + ["ChannelParams",
                                                                         "DetectorParams"]
        with pytest.raises(AssertionError, match="gain_free_terms called"):
            s.resolved_gain()  # the patches are in force


class TestEquivalentChannel:
    def test_closed_form_matches_general_at_optimal_gain(self, rng):
        # the paper's closed form at the optimal gain, from the independent reference
        for _ in range(300):
            s = random_scenario(rng)
            ch_a, ch_b = s.channel_a, s.channel_b
            t, eps = ref_reduction(ch_a.transmittance, ch_b.transmittance,
                                   ch_a.excess_noise, ch_b.excess_noise, s.v_b)
            t_lib, eps_lib = reduced_channel(s, s.resolved_gain())
            assert eps_lib == pytest.approx(eps, abs=1e-12)
            assert t_lib == pytest.approx(t, rel=1e-12)

    def test_reduction_returns_floats(self, rng):
        # floats in, floats out: 500 scenarios, an imperfect relay detector
        # included, each at four gains
        for _ in range(500):
            v_a, v_b = rng.uniform(1.5, 100.0, 2)
            # leg lengths for transmittances uniform in [0.05, 1] at 0.2 dB/km
            l_ac, l_bc = -50.0 * np.log10(rng.uniform(0.05, 1.0, 2))
            eps_a, eps_b = rng.uniform(0.0, 0.1, 2)
            s = Scenario(v_a=float(v_a), v_b=float(v_b),
                         channel_a=ChannelParams(float(l_ac), 0.2, float(eps_a)),
                         channel_b=ChannelParams(float(l_bc), 0.2, float(eps_b)),
                         detector=DetectorParams(rng.uniform(0.6, 1.0), rng.uniform(0.0, 0.05)))
            for g in rng.uniform(0.1, 5.0, 4).tolist():
                values = (*gain_free_terms(s), *reduced_channel(s, g), *reduced_block(s, g))
                assert all(type(x) is float for x in values)

    def test_optimal_gain_minimizes_noise(self, rng):
        for _ in range(30):
            s = random_scenario(rng)
            g_star = optimal_gain(s)
            terms = gain_free_terms(s)
            best = channel_at(terms, g_star)[1]
            grid = g_star * np.logspace(-1, 1, 10_000)
            vals = [channel_at(terms, g)[1] for g in grid]
            assert best <= min(vals) + 1e-12

    def test_lossless_noiseless_legs_are_noise_free(self):
        # at zero distance and zero channel noise the optimal gain cancels
        # Bob's source contribution exactly
        s = make_scenario(0.0, 0.0, eps=0.0)
        assert reduced_channel(s, s.resolved_gain())[1] == pytest.approx(0.0, abs=1e-12)

    def test_effective_transmittance(self):
        s = make_scenario(10.0, 0.0)
        g = optimal_gain(s)
        assert reduced_channel(s, g)[0] == pytest.approx(
            s.channel_a.transmittance * g * g / 2.0)

    def test_noise_increases_with_bob_leg_loss(self):
        scenarios = [make_scenario(5.0, l) for l in (0.0, 2.0, 5.0)]
        vals = [reduced_channel(s, s.resolved_gain())[1] for s in scenarios]
        assert vals[0] < vals[1] < vals[2]


class TestDetectorNoise:
    def test_value(self):
        assert detector_noise(1.0, 0.0) == 0.0
        assert detector_noise(0.5, 0.1) == pytest.approx(1.0 + 0.2)

    def test_penalty_is_additive(self):
        s = make_scenario(5.0, 5.0, eta_d=0.9, v_el=0.05)
        perfect = dataclasses.replace(s, detector=DetectorParams())
        g = s.resolved_gain()
        chi_det = detector_noise(0.9, 0.05)
        assert reduced_channel(s, g)[1] == pytest.approx(
            reduced_channel(perfect, g)[1] + 2.0 * chi_det / s.channel_a.transmittance)

    @pytest.mark.parametrize("eta_d, v_el", [(0.9, 0.01), (0.6, 0.05), (0.99, 0.1)])
    def test_penalty_is_the_physical_detector(self, eta_d, v_el):
        # the reference mixes each relay reading with vacuum at eta_d, adds
        # v_el and rescales by 1/sqrt(eta_d): the penalty's chi_det must be
        # (1 - eta_d)/eta_d + v_el/eta_d, electronic noise included
        s = make_scenario(5.0, 1.0, eta_d=eta_d, v_el=v_el, beta=0.95)
        for g in (s.resolved_gain(), 1.5 * s.resolved_gain()):
            assert composition_deviation(s, g) <= 1e-12
        assert secret_key_rate(s).k == pytest.approx(
            reference_key_rate(s, s.resolved_gain()), abs=1e-12)


class TestDualPathComposition:
    """The reduction's block against the reference's mode-by-mode composition."""

    @staticmethod
    def draws(rng):
        """40 random scenarios, then 20 with one leg at 0 km."""
        for _ in range(40):
            yield random_scenario(rng)
        for leg in ("channel_a", "channel_b"):
            for _ in range(10):
                s = random_scenario(rng)
                zero = dataclasses.replace(getattr(s, leg), length_km=0.0)
                yield dataclasses.replace(s, **{leg: zero})

    def test_identity_at_optimal_gain(self, rng):
        for s in self.draws(rng):
            assert composition_deviation(s, s.resolved_gain()) <= 1e-10

    def test_identity_at_random_gain(self, rng):
        for s in self.draws(rng):
            assert composition_deviation(s, optimal_gain(s) * rng.uniform(0.3, 3.0)) <= 1e-10

    def test_identity_with_imperfect_detector(self, rng):
        # the reference models the relay detector physically, the reduction
        # as the penalty 2 chi_det / eta_a on eps'
        for _ in range(50):
            s = dataclasses.replace(random_scenario(rng), detector=DetectorParams(
                rng.uniform(0.6, 1.0), rng.uniform(0.0, 0.05)))
            for g in (s.resolved_gain(), optimal_gain(s) * rng.uniform(0.3, 3.0)):
                assert composition_deviation(s, g) <= 1e-10

    def test_identity_with_lossless_noiseless_legs(self):
        s = make_scenario(0.0, 0.0, eps=0.0)
        assert composition_deviation(s, s.resolved_gain()) <= 1e-10

    def test_lossless_noisy_legs_keep_their_noise(self):
        # a zero-length leg carries eps as additive noise, the L -> 0+ limit
        # that the analytic path and the sampler also take
        for l_ac, l_bc in ((0.0, 0.0), (88.82, 0.0), (0.0, 5.0)):
            s = make_scenario(l_ac, l_bc, eps=0.002)
            assert composition_deviation(s, s.resolved_gain()) <= 1e-10

    def test_lossless_noisy_legs_with_imperfect_detector(self):
        # a zero-length noisy leg and the relay detector composed together:
        # no extra noise on the first leg can stand for the detector there
        for l_ac, l_bc in ((0.0, 0.0), (0.0, 5.0), (20.0, 0.0)):
            s = make_scenario(l_ac, l_bc, eps=0.002, eta_d=0.85, v_el=0.02)
            for g in (s.resolved_gain(), 0.7 * s.resolved_gain()):
                assert composition_deviation(s, g) <= 1e-10

    def test_output_block_structure(self, rng):
        # no step of the scheme correlates an x with a p, and x and p see the
        # same variances: the composed state has the block form
        s = dataclasses.replace(random_scenario(rng), detector=DetectorParams(0.8, 0.03))
        m = [[float(x) for x in row] for row in compose_eb_simulated(s, s.resolved_gain())]
        assert m[0][0] == pytest.approx(m[1][1], rel=1e-15)
        assert m[2][2] == pytest.approx(m[3][3], rel=1e-15)
        assert m[0][2] == pytest.approx(-m[1][3], rel=1e-15)
        assert [m[i][j] for i, j in ((0, 1), (0, 3), (1, 2), (2, 3))] == [0.0] * 4
        assert all(m[i][j] == m[j][i] for i in range(4) for j in range(4))

    def test_rejects_nonpositive_gain(self):
        with pytest.raises(ValueError):
            compose_eb_simulated(make_scenario(), 0.0)
