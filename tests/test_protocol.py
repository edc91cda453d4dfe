"""Protocol composition: channels, gain optimization, dual-path covariance."""

import dataclasses
import math

import numpy as np
import pytest

from cvmdi import ChannelParams, DetectorParams, Scenario
from cvmdi.gaussian import block_cm
from cvmdi.protocol import (
    channel_at,
    compose_eb_simulated,
    detector_noise,
    entangling_cloner_variance,
    gain_free_terms,
    optimal_gain,
)
from conftest import make_scenario, random_scenario, reduced_block, reduced_channel, ref_reduction


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

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, 1e5])
    def test_derived_scenarios_keep_the_length_checks(self, bad):
        # 1e5 km at 0.2 dB/km: the transmittance underflows to 0
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


class TestCloner:
    def test_variance_identity(self, rng):
        # a thermal input of variance V leaves with eta*V + (1-eta)*W = eta*(V + chi)
        for _ in range(100):
            eta = rng.uniform(0.05, 0.95)
            eps = rng.uniform(0.0, 0.2)
            v = rng.uniform(1.0, 60.0)
            w = entangling_cloner_variance(eta, eps)
            chi = (1.0 - eta) / eta + eps
            assert eta * v + (1.0 - eta) * w == pytest.approx(eta * (v + chi), abs=1e-10)

    def test_lossless_noisy_is_rejected(self):
        with pytest.raises(ValueError):
            entangling_cloner_variance(1.0, 0.1)


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


class TestDualPathComposition:
    @staticmethod
    def draws(rng):
        """200 random scenarios, then 40 with one leg at 0 km."""
        for _ in range(200):
            yield random_scenario(rng)
        for leg in ("channel_a", "channel_b"):
            for _ in range(20):
                s = random_scenario(rng)
                zero = dataclasses.replace(getattr(s, leg), length_km=0.0)
                yield dataclasses.replace(s, **{leg: zero})

    def test_identity_at_optimal_gain(self, rng):
        for s in self.draws(rng):
            g = s.resolved_gain()
            d = np.abs(block_cm(*reduced_block(s, g)).entries - compose_eb_simulated(s, g).entries)
            assert np.max(d) <= 1e-10

    def test_identity_at_random_gain(self, rng):
        for s in self.draws(rng):
            g = optimal_gain(s) * rng.uniform(0.3, 3.0)
            d = np.abs(block_cm(*reduced_block(s, g)).entries - compose_eb_simulated(s, g).entries)
            assert np.max(d) <= 1e-10

    def test_identity_with_imperfect_detector(self, rng):
        # the detector penalty 2 chi_det / eta_a on eps' is 2 chi_det / eta_a
        # more excess noise on the first leg before a perfect detector
        for _ in range(300):
            s = dataclasses.replace(random_scenario(rng), detector=DetectorParams(
                rng.uniform(0.6, 1.0), rng.uniform(0.0, 0.05)))
            chi_det = detector_noise(s.detector.efficiency, s.detector.electronic_noise)
            noisier_a = dataclasses.replace(s.channel_a, excess_noise=s.channel_a.excess_noise
                                            + 2.0 * chi_det / s.channel_a.transmittance)
            perfect = dataclasses.replace(s, channel_a=noisier_a, detector=DetectorParams())
            for g in (s.resolved_gain(), optimal_gain(s) * rng.uniform(0.3, 3.0)):
                d = np.abs(block_cm(*reduced_block(s, g)).entries
                           - compose_eb_simulated(perfect, g).entries)
                assert np.max(d) <= 1e-10

    def test_identity_with_lossless_noiseless_legs(self):
        s = make_scenario(0.0, 0.0, eps=0.0)
        g = s.resolved_gain()
        d = np.abs(block_cm(*reduced_block(s, g)).entries - compose_eb_simulated(s, g).entries)
        assert np.max(d) <= 1e-10

    def test_lossless_noisy_legs_keep_their_noise(self):
        # a zero-length leg carries eps as additive noise, the L -> 0+ limit
        # that the analytic path and the sampler also take
        for l_ac, l_bc in ((0.0, 0.0), (88.82, 0.0), (0.0, 5.0)):
            s = make_scenario(l_ac, l_bc, eps=0.002)
            g = s.resolved_gain()
            d = np.abs(block_cm(*reduced_block(s, g)).entries - compose_eb_simulated(s, g).entries)
            assert np.max(d) <= 1e-10

    def test_output_block_structure(self, rng):
        s = random_scenario(rng)
        m = block_cm(*reduced_block(s, s.resolved_gain())).entries
        assert m[0, 0] == pytest.approx(m[1, 1])
        assert m[2, 2] == pytest.approx(m[3, 3])
        assert m[0, 2] == pytest.approx(-m[1, 3])
        assert m[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert m[0, 3] == pytest.approx(0.0, abs=1e-12)
