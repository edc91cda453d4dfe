"""Monte Carlo layer: reproducibility, the exact identities of the sampler's
law (covariance, picture equivalence, measurement rescaling), parameter
estimation, and the data key rate maximised over k. Every estimate reads
moments drawn from the law (`sample_moments`); the PM rows (`simulate_pm`)
serve the CSV export."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvmdi import ChannelParams, DetectorParams, Scenario
from cvmdi import montecarlo as mc
from cvmdi.config import load_config
from cvmdi.keyrate import analytic_k, secret_key_rate
from cvmdi.oracle import (
    V_LIMIT,
    Z_LIMIT,
    _attack_suite,
    _cov_suite,
    _equivalence_suite,
    _identity,
    run_oracle_suites,
)
from cvmdi.protocol import k_from_gain, optimal_gain
from conftest import data_k_maximum, data_key_rate, make_scenario, reduced_block, \
    reduced_channel

N_FAST = 200_000
SEED = 20260823


@pytest.fixture(scope="module")
def scenario():
    return make_scenario(5.0, 2.0)


@pytest.fixture(scope="module")
def pm_batch(scenario):
    return mc.simulate_pm(scenario, analytic_k(scenario), N_FAST, SEED + 1)


@pytest.fixture(scope="module")
def eb_moments(scenario):
    return mc.sample_moments(scenario, "EB", scenario.resolved_gain(), N_FAST, SEED)


@pytest.fixture(scope="module")
def pm_moments(scenario):
    return mc.sample_moments(scenario, "PM", analytic_k(scenario), N_FAST, SEED + 1)


def one_sided_scenario(v: float, t: float, eps: float) -> Scenario:
    """A scenario whose equivalent channel at the optimal gain is (t, eps):
    leg B lossless and noiseless, so eps' = eps_A and T = eta_A (V - 1)/(V + 1),
    and leg A at 0.2 dB/km of transmittance t (V + 1)/(V - 1)."""
    eta_a = t * (v + 1.0) / (v - 1.0)
    return Scenario(v, v, ChannelParams(-50.0 * math.log10(eta_a), 0.2, eps),
                    ChannelParams(0.0, 0.2, 0.0))


class TestReproducibility:
    def test_eb_bit_identical(self, scenario, eb_moments):
        again = mc.sample_moments(scenario, "EB", scenario.resolved_gain(), N_FAST, SEED)
        assert again.cov == eb_moments.cov

    def test_pm_bit_identical(self, scenario, pm_batch):
        again = mc.simulate_pm(scenario, pm_batch.coeff, N_FAST, SEED + 1)
        assert np.array_equal(pm_batch.data_matrix(), again.data_matrix())

    def test_seed_changes_samples(self, scenario, pm_batch):
        other = mc.simulate_pm(scenario, pm_batch.coeff, N_FAST, SEED + 7)
        assert not np.array_equal(pm_batch.x_a, other.x_a)

    def test_rejects_empty_batch(self, scenario):
        with pytest.raises(ValueError):
            mc.simulate_pm(scenario, analytic_k(scenario), 0, SEED)


class TestCovarianceOracle:
    def test_final_data_matches_analytic_image(self, scenario):
        # the law of the final data, L L^T through Bob's displacement, is the
        # analytic image; the rows are L z (TestLinearMap)
        g = scenario.resolved_gain()
        r = _cov_suite(reduced_block(scenario, g), *mc.row_law(scenario, "EB", g), False)
        assert r.passed, r

    def test_relay_outcome_variances(self, scenario, pm_batch):
        # C and D are full quadrature readings of the mixed channel outputs:
        # a cloner of transmittance eta mixes Eve's variance 1 + eta eps/(1 - eta)
        # into V, which leaves eta V + 1 - eta + eta eps
        def output(v, ch):
            eta = ch.transmittance
            return eta * v + 1.0 - eta + eta * ch.excess_noise

        expected = (output(scenario.v_a, scenario.channel_a)
                    + output(scenario.v_b, scenario.channel_b)) / 2.0
        assert np.var(pm_batch.x_c) == pytest.approx(expected, rel=0.02)
        assert np.var(pm_batch.p_d) == pytest.approx(expected, rel=0.02)

    def test_kurtosis_is_gaussian(self, pm_batch):
        # excess kurtosis of every final column consistent with normality
        for col in pm_batch.columns().values():
            std = col.std()
            kurt = np.mean(((col - col.mean()) / std) ** 4) - 3.0
            assert abs(kurt) < 6.0 * math.sqrt(24.0 / N_FAST)

    def test_zero_length_noisy_leg_keeps_its_noise(self):
        # the analytic path keeps eps at L = 0 (the L -> 0+ limit of the
        # entangling cloner); the sampler must draw the same noise
        s = Scenario(v_a=5.0, v_b=5.0,
                     channel_a=ChannelParams(5.0, 0.2, 0.01),
                     channel_b=ChannelParams(0.0, 0.2, 0.2))
        g = s.resolved_gain()
        r = _cov_suite(reduced_block(s, g), *mc.row_law(s, "EB", g), False)
        assert r.passed, r

    def test_wrong_prediction_is_rejected(self, scenario):
        g = scenario.resolved_gain()
        law, scale = mc.row_law(scenario, "EB", g)
        predicted = np.array(mc.heterodyne_image(*reduced_block(scenario, g)))
        final, scale = np.array(law.final_covariance())[:4, :4], np.array(scale)[:4, :4]
        assert _identity("x", final, predicted, scale).passed
        assert not _identity("x", final, predicted * (1.0 + 1e-9), scale).passed

    def test_entry_without_scale_must_match_exactly(self):
        # an entry whose scale is 0 (an x column against a p column) is exact
        scale = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert _identity("x", np.eye(2), np.eye(2), scale).detail == "max|dev|/scale=0.00e+00"
        tiny = np.array([[1.0, 1e-300], [0.0, 1.0]])
        assert _identity("x", tiny, np.eye(2), scale).detail == "max|dev|/scale=inf"


class TestAmplificationFit:
    def test_bridge_round_trip(self):
        # k = g sqrt((V - 1)/(V + 1)), and modulation_scale is the k of g = sqrt(2)
        assert k_from_gain(1.7, 40.0) == pytest.approx(1.7 * math.sqrt(39.0 / 41.0))
        assert mc.modulation_scale(40.0) == k_from_gain(math.sqrt(2.0), 40.0)


class TestPictureEquivalence:
    @staticmethod
    def laws(scenario, k_factor=1.0):
        """The EB law at the optimal gain g and the PM law at k_factor times
        the k equivalent to g, each with its scale."""
        g = optimal_gain(scenario)
        k = k_factor * k_from_gain(g, scenario.v_b)
        return mc.row_law(scenario, "EB", g), mc.row_law(scenario, "PM", k)

    def test_joint_covariances_agree(self, scenario):
        eb, pm = self.laws(scenario)
        r = _equivalence_suite(*eb, *pm)
        assert r.passed, r

    def test_negative_control_double_k_fails(self, scenario):
        eb, pm = self.laws(scenario, k_factor=2.0)
        assert not _equivalence_suite(*eb, *pm).passed

    def test_rejects_swapped_schemes(self, scenario):
        eb, pm = self.laws(scenario)
        assert not _equivalence_suite(*pm, *eb).passed


class TestParameterEstimation:
    def test_eb_round_trip(self, scenario, eb_moments):
        est = mc.estimate_params(eb_moments)
        t, eps = reduced_channel(scenario, scenario.resolved_gain())
        assert abs(est.t_hat - t) < 4.0 * est.t_se
        assert abs(est.eps_hat - eps) < 4.0 * est.eps_se

    def test_pm_round_trip(self, scenario, pm_moments):
        est = mc.estimate_params(pm_moments)
        t, eps = reduced_channel(scenario, scenario.resolved_gain())
        assert abs(est.t_hat - t) < 4.0 * est.t_se
        assert abs(est.eps_hat - eps) < 4.0 * est.eps_se

    def test_generative_round_trip(self):
        # the channel is chosen, and the scenario built to have it
        t_in, eps_in = 0.5, 0.1
        s = one_sided_scenario(40.0, t_in, eps_in)
        g = s.resolved_gain()
        assert reduced_channel(s, g) == pytest.approx((t_in, eps_in), rel=1e-12)
        est = mc.estimate_params(mc.sample_moments(s, "EB", g, 400_000, SEED))
        assert abs(est.t_hat - t_in) < 4.0 * est.t_se
        assert abs(est.eps_hat - eps_in) < 4.0 * est.eps_se

    def test_rejects_tiny_batches(self, scenario):
        g = scenario.resolved_gain()
        with pytest.raises(ValueError, match="samples"):
            mc.estimate_params(mc.sample_moments(scenario, "EB", g, 100, SEED))
        # one row has no sample covariance
        with pytest.raises(ValueError, match="normals"):
            mc.sample_moments(scenario, "EB", g, 1, SEED)

    def test_rejects_the_law(self, scenario):
        # the law L L^T is no sample: its n is 0
        law, _ = mc.row_law(scenario, "EB", scenario.resolved_gain())
        assert law.n == 0
        with pytest.raises(ValueError, match="samples"):
            mc.estimate_params(law)

    def test_rejects_a_zero_variance_column(self):
        # at V_A = 1 Alice's modulation data are exactly 0
        s = dataclasses.replace(make_scenario(3.0, 2.0), v_a=1.0)
        law, _ = mc.row_law(s, "PM", analytic_k(s))
        with pytest.raises(ValueError, match="degenerate"):
            mc.estimate_params(dataclasses.replace(law, n=10_000))


class TestEstimationErrors:
    """The estimation errors: the delta method on Cov(a, b, c), the Isserlis
    covariance of the readings of `mc._reading`."""

    @staticmethod
    def params(a, b, c):
        t = c * c / (a * a - 1.0)
        return np.array([t, (b - 1.0) / t - (a - 1.0)])

    @pytest.mark.parametrize("s", [make_scenario(5.0, 2.0), make_scenario(3.0, 2.0, eps=0.01),
                                   make_scenario(2.0, 1.0, v=1e5, eps=0.01)],
                             ids=["V40-5+2km", "V40-eps0.01", "V1e5"])
    def test_gradient_matches_central_differences(self, s):
        abc = np.array(reduced_block(s, s.resolved_gain()))
        numeric = np.zeros((2, 3))
        for i in range(3):
            h = np.zeros(3)
            h[i] = 1e-6 * abc[i]
            numeric[:, i] = (self.params(*(abc + h)) - self.params(*(abc - h))) / (2 * h[i])
        assert np.allclose(mc._param_gradient(*abc), numeric, rtol=1e-6, atol=1e-12)

    @pytest.mark.parametrize("which", ["eb_moments", "pm_moments"])
    def test_reading_covariance_matches_central_differences(self, which, request):
        # Jacobian of (a, b, c) in the base covariance C by central differences
        # of `_read_block_params`, carried through Cov(C_ij, C_kl) =
        # (C_ik C_jl + C_il C_jk)/n entry by entry
        m = request.getfixturevalue(which)
        cov, n = np.array(m.cov), m.n

        def read(c):
            return np.array(mc._read_block_params(dataclasses.replace(m, cov=c.tolist()))[0])

        h = 1e-6 * np.abs(cov).max()
        jac = np.zeros((3, 6, 6))
        for i, j in np.ndindex(6, 6):
            step = np.zeros((6, 6))
            step[i, j] = h
            jac[:, i, j] = (read(cov + step) - read(cov - step)) / (2 * h)
        isserlis = (np.einsum("ik,jl->ijkl", cov, cov) + np.einsum("il,jk->ijkl", cov, cov)) / n
        brute = np.einsum("aij,ijkl,bkl->ab", jac, isserlis, jac)
        closed = mc._reading_covariance(mc._reading(m), m.final_covariance(), n)
        assert np.allclose(closed, brute, rtol=1e-6, atol=0.0)

    def test_single_entry_reading_is_entry_se(self, eb_moments):
        # one entry F_ij read alone has the Isserlis error sqrt((F_ii F_jj + F_ij^2)/n)
        f, n = np.array(eb_moments.final_covariance()), eb_moments.n
        weights = np.zeros((36, 6, 6))
        for idx, (i, j) in enumerate(np.ndindex(6, 6)):
            weights[idx, i, j] += 0.5
            weights[idx, j, i] += 0.5
        se = np.sqrt(np.diag(mc._reading_covariance(weights.tolist(), f.tolist(), n))).reshape(6, 6)
        entry_se = np.sqrt((np.outer(np.diag(f), np.diag(f)) + f**2) / n)
        assert np.allclose(se, entry_se, rtol=1e-12, atol=0.0)

    def test_negative_control_at_default_config(self):
        # T predicted 1% high must fail at the default n: se(T) is 1.0e-3 there
        # (0.10% of T), so the shift alone is 9.5 standard errors; measured
        # z(T) is 0.49 at the true T and 9.96 at 1.01 T
        cfg = load_config(environ={})
        s = cfg.scenario()
        g = s.resolved_gain()
        est = mc.estimate_params(mc.sample_moments(s, "EB", g, cfg["mc"]["n"], cfg["mc"]["seed"]))
        t = reduced_channel(s, g)[0]
        assert abs(est.t_hat - t) / est.t_se < Z_LIMIT
        assert abs(est.t_hat - 1.01 * t) / est.t_se >= Z_LIMIT


class TestRescalingAnalysis:
    # Bob re-optimises k on his own data: the maximum over k does not see a
    # rescaling of the relay data by eta, and its k moves to k / sqrt(eta)
    ETAS = (0.25, 0.64, 1.44)

    def test_maximum_rate_is_invariant(self, scenario, pm_moments):
        k0 = analytic_k(scenario)
        _, base = data_k_maximum(pm_moments, k0, scenario.beta_r)
        for eta in self.ETAS:
            scaled = pm_moments.rescaled(eta)
            assert abs(base - data_k_maximum(scaled, k0, scenario.beta_r)[1]) < 1e-9

    def test_argmax_scales_inversely(self, scenario, pm_moments):
        k0 = analytic_k(scenario)
        k_base, _ = data_k_maximum(pm_moments, k0, scenario.beta_r)
        for eta in self.ETAS:
            k_scaled, _ = data_k_maximum(pm_moments.rescaled(eta), k0, scenario.beta_r)
            assert k_scaled * math.sqrt(eta) == pytest.approx(k_base, rel=1e-6)

    def test_fixed_k_negative_control(self, scenario, pm_moments):
        k0 = analytic_k(scenario)
        base = data_key_rate(pm_moments, k0, scenario.beta_r)
        scaled = data_key_rate(pm_moments.rescaled(0.64), k0, scenario.beta_r)
        assert abs(base - scaled) > 1e-2

    def test_batch_rate_matches_analytic(self, scenario, pm_moments):
        empirical = data_key_rate(pm_moments, analytic_k(scenario), scenario.beta_r)
        assert empirical == pytest.approx(secret_key_rate(scenario).k, abs=0.02)

    def test_grid_matches_scalar_kernel_loop(self, scenario, pm_moments):
        # the blocks of many k read at once (the rescaling suite reads three)
        # against the expansion of the moments' covariance at each k, one at a time
        grid = analytic_k(scenario) * np.logspace(np.log10(0.3), np.log10(3.0), 2001)
        blocks = mc._read_block_params(pm_moments, grid.tolist())
        m = np.array(pm_moments.cov)
        s_a = mc.modulation_scale(pm_moments.v_a)
        s_b = mc.modulation_scale(pm_moments.v_b)
        a = (m[0, 0] + m[1, 1]) / (s_a * s_a) - 1.0
        assert len(blocks) == len(grid)
        for k, block in zip(grid.tolist(), blocks):
            var_xb = m[2, 2] + 2 * k * m[2, 4] + k * k * m[4, 4]
            var_pb = m[3, 3] - 2 * k * m[3, 5] + k * k * m[5, 5]
            cov_x = m[0, 2] + k * m[0, 4]
            cov_p = m[1, 3] - k * m[1, 5]
            b = (var_xb + var_pb) / (s_b * s_b) - 1.0
            c = (cov_x - cov_p) / (s_a * s_b)
            assert block == pytest.approx((a, b, c), abs=1e-12)

    def test_estimation_and_k_scan_read_the_same_block(self, pm_moments):
        # one reading of data as (a, b, c): at the batch's own k, the reading
        # of many k gives the block that estimation fits
        est = mc.estimate_params(pm_moments)
        assert mc._read_block_params(pm_moments, [pm_moments.coeff])[0] == (est.a, est.b, est.c)

    def test_rejects_bad_scale(self, pm_moments):
        for eta in (0.0, -0.64):
            with pytest.raises(ValueError):
                pm_moments.rescaled(eta)


# bit patterns of the positive doubles 1e-7 and 1e18
_BULK_BITS = tuple(int(np.float64(x).view(np.uint64)) for x in (1e-7, 1e18))


def _cell_text(rows: np.ndarray) -> bytes:
    """The export's body by its rule: '%.16e' of each cell, one at a time."""
    return "".join(",".join("%.16e" % v for v in row) + "\n" for row in rows.tolist()).encode()


def _export_round_trip(values: np.ndarray, tmp_path) -> tuple[np.ndarray, np.ndarray]:
    """Exports values as X_A, P_A, X_B and P_B, rolled (X_C = P_D = 1 and
    coeff 0, so X_B = x_b + 0.0), checks the body against `_cell_text` and
    returns what np.loadtxt reads back and the batch's data matrix."""
    ones = np.ones_like(values)
    batch = mc.SampleBatch(0, len(values), 5.0, 5.0, 0.0,
                           *(np.roll(values, j) for j in range(4)), ones, ones)
    path = tmp_path / "samples.csv"
    mc.export_csv(batch, path)
    expected = batch.data_matrix()
    assert path.read_bytes().split(b"\n", 2)[2] == _cell_text(expected)
    return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2), expected


class TestExport:
    def test_csv_round_trip(self, scenario, tmp_path):
        batch = mc.simulate_pm(scenario, 1.3, 500, SEED)
        path = tmp_path / "samples.csv"
        mc.export_csv(batch, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "X_A,P_A,X_B,P_B,X_C,P_D"
        data = np.loadtxt(lines[2:], delimiter=",")
        assert np.array_equal(data, batch.data_matrix())

    def test_awkward_values_round_trip(self, tmp_path):
        # signed zeros, the smallest subnormal and normal, the largest finite
        # floats, integers past 2^53, integral floats and 2.0 +- one ulp
        values = np.array([0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                           1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e17,
                           2.0, -3.0, 1e6, np.nextafter(2.0, 0.0), np.nextafter(2.0, 3.0)])
        cols = [np.roll(values, j) for j in range(6)]
        batch = mc.SampleBatch(0, len(values), 5.0, 5.0, 0.0, *cols)
        path = tmp_path / "samples.csv"
        mc.export_csv(batch, path)
        data = np.loadtxt(path, delimiter=",", skiprows=2)
        expected = batch.data_matrix()
        assert np.signbit(expected).any()
        assert np.array_equal(data, expected)
        assert np.array_equal(np.signbit(data), np.signbit(expected))

    def test_csv_rows_are_16e_cells(self, scenario, tmp_path):
        # block boundaries are crossed; the reference is the per-cell '%.16e'
        batch = mc.simulate_pm(scenario, 1.3, mc.CHUNK_ROWS + 3, SEED)
        path = tmp_path / "samples.csv"
        mc.export_csv(batch, path)
        body = path.read_bytes().split(b"\n", 2)[2]
        assert body == _cell_text(batch.data_matrix())

    @pytest.mark.filterwarnings("error")
    def test_cells_at_powers_of_ten_ties_and_non_finite(self, tmp_path):
        # each power of ten and its neighbours, where log10 can miss the
        # exponent; two half-way significands, rounded half to even
        # (…0.2 and …0.8); a shortest repr that needs 17 digits; inf and NaN
        values = [0.30000000000000004, 1000000000000000.25, 1000000000000000.75,
                  math.inf, -math.inf, math.nan]
        for e in range(-8, 19):
            x = float(f"1e{e}")
            values += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
        values = np.array(values + [-x for x in values])
        data, expected = _export_round_trip(values, tmp_path)
        text = (tmp_path / "samples.csv").read_bytes()
        assert b",1.0000000000000002e+15," in text and b",1.0000000000000008e+15," in text
        assert b",9.9999999999999995e-07," in text  # the double nearest 1e-6
        assert np.array_equal(data, expected, equal_nan=True)

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=40, deadline=None)
    @given(bits=st.lists(st.integers(0, 2**64 - 1) | st.integers(*_BULK_BITS), min_size=1,
                         max_size=60))
    def test_any_finite_double_exports_as_16e_and_back(self, bits, tmp_path_factory):
        # every exponent, both signs, subnormals and signed zeros; half the
        # draws from the bit patterns of [1e-7, 1e18], where most cells are
        # formatted in bulk
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)]
        if values.size:
            data, expected = _export_round_trip(values, tmp_path_factory.mktemp("bits"))
            assert np.array_equal(data.view(np.uint64), expected.view(np.uint64))

    def test_export_memory_is_blocked(self, scenario, tmp_path):
        # one block of rows and its text at a time: 9.0 MB at n = 2e5, of
        # which 3.2 MB are the final columns X_B and P_B; one '%' operation
        # per 32768-row block peaked at 16.8 MB, stacking the whole batch
        # first at 24.8 MB, one repr per cell over its row list at 64 MB
        import tracemalloc

        batch = mc.simulate_pm(scenario, 1.3, 200_000, SEED)
        tracemalloc.start()
        try:
            mc.export_csv(batch, tmp_path / "samples.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6, f"peak {peak / 1e6:.1f} MB"


class TestOracleSuites:
    @pytest.fixture(scope="class")
    def results(self, scenario):
        return run_oracle_suites(scenario, N_FAST, SEED)

    def test_same_seed_same_details(self, scenario, results):
        assert [r.passed for r in results] == [True] * 4
        assert run_oracle_suites(scenario, N_FAST, SEED) == results

    def test_oracle_memory_is_independent_of_n(self, scenario):
        # a float64 column of 1e6 rows alone is 8 MB
        import tracemalloc

        for n in (1_000_000, 1_000_000_000):
            tracemalloc.start()
            try:
                run_oracle_suites(scenario, n, SEED)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4e6, f"n={n}: peak {peak / 1e6:.1f} MB"

    # the covariance, equivalence and rescaling suites check the law, so no seed
    # or n moves them; read from Wishart draws and a k-grid maximum, they failed
    # the default scenario at seeds 8, 9, 14, 17, 29, 32 and 34 at n = 1000,
    # and at 21 of seeds 0-199 at n = 1e5, all in the rescaling suite
    IDENTITIES = (0, 2, 3)

    def test_identity_lines_do_not_depend_on_seed_or_n(self):
        s = load_config(environ={}).scenario()
        lines = {(seed, n): [run_oracle_suites(s, n, seed)[i] for i in self.IDENTITIES]
                 for seed in (0, 8, 11, 12345) for n in (1000, 100_000, 1_000_000_000)}
        first = lines[0, 1000]
        assert all(r.passed for r in first), first
        assert all(found == first for found in lines.values())

    def test_identity_suites_pass_for_every_seed(self):
        s = load_config(environ={}).scenario()
        for seed in range(200):
            results = run_oracle_suites(s, 100_000, seed)
            assert all(results[i].passed for i in self.IDENTITIES), (seed, results)

    def test_wrong_sign_fails_only_the_covariance_suite(self, scenario, results):
        bad = run_oracle_suites(scenario, N_FAST, SEED, wrong_sign=True)
        assert bad[0].name == "covariance_vs_analytic" and not bad[0].passed
        assert bad[1:] == results[1:]

    @pytest.mark.parametrize("gain", [1.0, 1.3, 2.0])
    def test_fixed_gain_scenario_passes(self, scenario, gain):
        # both batches are drawn, and every suite predicts, at the fixed gain
        fixed = dataclasses.replace(scenario, gain_mode="fixed", gain=gain)
        results = run_oracle_suites(fixed, N_FAST, SEED)
        assert [r.passed for r in results] == [True] * 4, results
        assert f"k={k_from_gain(gain, fixed.v_b):.4f}" in results[2].detail

    @pytest.mark.parametrize("change, field", [
        ({"detector": DetectorParams(0.9, 0.0)}, "scenario.eta_d"),
        ({"detector": DetectorParams(1.0, 0.01)}, "scenario.v_el"),
        ({"v_a": 1e8}, "scenario.v_a"),
        ({"v_b": 1e12}, "scenario.v_b"),
        ({"v_b": V_LIMIT}, "scenario.v_b"),
    ])
    def test_scenario_outside_the_sampler_is_refused(self, scenario, change, field):
        with pytest.raises(mc.UnsupportedScenario, match=field):
            run_oracle_suites(dataclasses.replace(scenario, **change), N_FAST, SEED)

    def test_v_below_the_limit_is_checked(self, scenario):
        v = math.nextafter(V_LIMIT, 0.0)
        results = run_oracle_suites(dataclasses.replace(scenario, v_a=v, v_b=v), N_FAST, SEED)
        assert all(results[i].passed for i in self.IDENTITIES), results


class TestChunkedSampling:
    def test_row_draw_memory_is_blocked(self, scenario):
        # past the 6 n output floats (9.6 MB at n = 2e5), the draw holds one
        # block of normals at a time: 4.7 MB; drawing all 12 n normals at
        # once adds about 19 MB more
        import tracemalloc

        n = 200_000
        tracemalloc.start()
        try:
            mc.simulate_pm(scenario, 1.3, n, SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 48 * n < 8e6, f"peak {peak / 1e6:.1f} MB"

    def test_moment_covariance_matches_np_cov(self, pm_batch):
        # `Moments` and the batch form the final columns alike: the base
        # columns' np.cov, carried by `final_covariance`, is the final
        # columns' np.cov
        base = np.column_stack([pm_batch.x_a, pm_batch.p_a, pm_batch.x_b,
                                pm_batch.p_b, pm_batch.x_c, pm_batch.p_d])
        m = mc.Moments("PM", pm_batch.v_a, pm_batch.v_b, pm_batch.coeff, pm_batch.n,
                       np.cov(base, rowvar=False).tolist())
        final = np.cov(pm_batch.data_matrix(), rowvar=False)
        assert np.allclose(m.final_covariance(), final,
                           rtol=1e-12, atol=1e-12 * np.abs(final).max())

    def test_high_v_estimate_is_unbiased(self):
        # one ddof for every covariance: mixing ddof 0 variances with a ddof 1
        # cross covariance biases eps' by about -2V/n, many standard errors
        # at V = 1e5 and n = 2e4
        t_in, eps_in = 0.5, 0.1
        s = one_sided_scenario(1e5, t_in, eps_in)
        est = mc.estimate_params(mc.sample_moments(s, "EB", s.resolved_gain(), 20_000, SEED))
        assert abs(est.t_hat - t_in) < 4.0 * est.t_se
        assert abs(est.eps_hat - eps_in) < 4.0 * est.eps_se


SCENARIOS = {
    "V1.5": make_scenario(3.0, 2.0, v=1.5),
    "V40": make_scenario(3.0, 2.0),
    "V1e5-eps0.01": make_scenario(2.0, 1.0, v=1e5, eps=0.01),
    "V1e7": make_scenario(5.0, 2.0, v=1e7),
    "0km-noisy-leg": Scenario(v_a=5.0, v_b=5.0, channel_a=ChannelParams(5.0, 0.2, 0.01),
                              channel_b=ChannelParams(0.0, 0.2, 0.2)),
    "eps0.05": make_scenario(4.0, 1.0, eps=0.05),
}


def map_covariance(s, scheme, coeff):
    """Final 6x6 covariance of one row of the sampler, L L^T carried through
    Bob's data processing at coeff."""
    return np.array(mc.row_law(s, scheme, coeff)[0].final_covariance())


def assert_close(actual, expected):
    assert np.allclose(actual, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


class TestLinearMap:
    """The sampler's linear map L, read off its own physics, has exactly the
    analytic covariance."""

    @pytest.mark.parametrize("s", SCENARIOS.values(), ids=SCENARIOS.keys())
    def test_map_covariance_is_the_analytic_image(self, s):
        g = s.resolved_gain()
        predicted = np.array(mc.heterodyne_image(*reduced_block(s, g)))
        assert_close(map_covariance(s, "EB", g)[:4, :4], predicted)

    @pytest.mark.parametrize("s", SCENARIOS.values(), ids=SCENARIOS.keys())
    def test_bridged_eb_covariance_is_the_pm_covariance(self, s):
        g = s.resolved_gain()
        bridge = np.array(mc.bridge_matrix(s.v_a, s.v_b))
        assert_close(bridge @ map_covariance(s, "EB", g) @ bridge,
                     map_covariance(s, "PM", k_from_gain(g, s.v_b)))

    @pytest.mark.parametrize("s", SCENARIOS.values(), ids=SCENARIOS.keys())
    def test_wrong_sign_map_misses(self, s):
        g = s.resolved_gain()
        predicted = np.array(mc.heterodyne_image(*reduced_block(s, g)))
        miss = np.abs(map_covariance(s, "EB", -g)[:4, :4] - predicted).max()
        assert miss > 0.5 * np.abs(predicted).max()

    def test_rows_are_the_map_of_the_row_stream(self):
        # row j is L z_j, z_j the stream's j-th p normals, across the block
        # boundary of the draw; so a batch is the first rows of a longer one
        s = SCENARIOS["V40"]
        lmap = np.array(mc.linear_map(s, "PM"))
        n = mc.CHUNK_ROWS + 100
        z = mc._row_rng(SEED).standard_normal((n, lmap.shape[1]))
        batch = mc.simulate_pm(s, 1.3, n, SEED)
        rows = np.stack([batch.x_a, batch.p_a, batch.x_b, batch.p_b, batch.x_c, batch.p_d])
        assert_close(rows, lmap @ z.T)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            mc.linear_map(SCENARIOS["V40"], "XX")


@st.composite
def sampler_scenarios(draw):
    """V_A, V_B in (1, 1e15], half of them log-uniform, far past the oracle's
    V_LIMIT: the sampler's law has no domain of its own, as its source
    factors are exact. Legs of 0-300 km, eps up to 0.05, and the optimal gain
    or a fixed one in [0.01, 100]."""
    v = st.floats(1.0, 1e15, exclude_min=True) | st.floats(1e-9, 15.0).map(lambda e: 10.0**e)
    leg, eps = st.floats(0.0, 300.0), st.floats(0.0, 0.05)
    gain = draw(st.none() | st.floats(0.01, 100.0))
    return Scenario(draw(v), draw(v), ChannelParams(draw(leg), 0.2, draw(eps)),
                    ChannelParams(draw(leg), 0.2, draw(eps)),
                    gain_mode="optimal" if gain is None else "fixed", gain=gain)


class TestExactIdentities:
    """At any V each identity of the oracle holds within IDENTITY_TOL of its
    rounding scale, and each control misses it. The suites are called
    directly, below `run_oracle_suites`' refusal of V >= V_LIMIT. A
    factorisation of the sources by `np.linalg.cholesky` raised at
    V = 1e8 and 1e12, and at some V from about 3.9e7 on."""

    @settings(max_examples=300, deadline=None)
    @example(s=Scenario(1e8, 1e12, ChannelParams(10.0, 0.2, 0.01), ChannelParams(5.0, 0.2, 0.01)))
    @given(s=sampler_scenarios())
    def test_identities_hold_and_controls_miss(self, s):
        g = s.resolved_gain()
        k = k_from_gain(g, s.v_b)
        eb, pm = mc.row_law(s, "EB", g), mc.row_law(s, "PM", k)
        block = reduced_block(s, g)
        for r in (_cov_suite(block, *eb, False), _equivalence_suite(*eb, *pm), _attack_suite(*pm)):
            assert r.passed, r
        if s.gain_mode == "optimal":
            assert not _cov_suite(block, *eb, True).passed
        assert not _equivalence_suite(*eb, *mc.row_law(s, "PM", 2.0 * k)).passed
        # the rescaled relay data read at the same k, not at k/0.8
        law, scale = pm
        ratio = np.array([0.3, 1.0, 3.0])
        read = mc._read_block_params(law, (k * ratio).tolist())
        same_k = mc._read_block_params(law.rescaled(0.64), (k * ratio).tolist())
        bound = np.einsum("rij,ij->r", np.abs(mc._reading(law)), scale)
        # one row per k, one column per entry of (a, b, c)
        assert not _identity("x", read, same_k, np.outer(np.maximum(ratio, 1.0) ** 2, bound)).passed

    @settings(max_examples=100, deadline=None)
    @given(s=sampler_scenarios(), scheme=st.sampled_from(["EB", "PM"]),
           eta=st.floats(0.01, 100.0).filter(lambda e: abs(e - 1.0) > 1e-3))
    def test_rescaled_law_is_the_law_of_the_rescaled_map(self, s, scheme, eta):
        # rescaling the relay data of the rows is D L, D = diag(1, 1, 1, 1,
        # r, r), r = sqrt(eta); its law (D L)(D L)^T, from no rows, against
        # `Moments.rescaled` of the law. Rescaling x_c alone misses by
        # |1 - 1/eta| of the scale of p_d's variance
        g = s.resolved_gain()
        law, _ = mc.row_law(s, scheme, g if scheme == "EB" else k_from_gain(g, s.v_b))
        lmap = np.array(mc.linear_map(s, scheme))
        r = math.sqrt(eta)

        def law_of(d):
            m = np.diag(d) @ lmap
            return m @ m.T, np.abs(m) @ np.abs(m).T

        exact, scale = law_of([1.0, 1.0, 1.0, 1.0, r, r])
        rescaled = law.rescaled(eta).cov
        found = _identity("rescaled", rescaled, exact, scale)
        assert found.passed, found
        x_c_only, _ = law_of([1.0, 1.0, 1.0, 1.0, r, 1.0])
        assert not _identity("x_c only", rescaled, x_c_only, scale).passed


class TestExactMoments:
    """`sample_moments` draws the sample covariance of n rows from its law:
    over many seeds its 21 entries agree in distribution with the np.cov of
    rows L z, z drawn here, and one draw is L A A^T L^T / (n - 1) of its
    Bartlett factor A to a few ulps."""

    SEEDS = range(200)
    N = 2_000
    Z_MEAN = 3.5  # per-entry |mean difference| / its standard error
    SD_RATIO = (0.75, 1.33)  # about 4 standard errors of a ratio of 200-seed sds
    # |drawn - exact| / (2^-52 scale): L A is rounded once per entry (each a
    # `math.fsum` of rounded products), its products once more, their sum
    # and the division by n - 1 once each; measured 1.02 at the default
    # scenario and seed, n = 1e5
    ULPS = 4.0

    @staticmethod
    def entries(m):
        return np.array(m.cov)[np.triu_indices(6)]

    def test_draw_is_its_bartlett_factor_in_exact_arithmetic(self):
        # the draw replayed from the same stream (`_moment_rng`): the diagonal
        # of A, then its lower rows of normals, row by row
        cfg = load_config(environ={})
        s, seed, n = cfg.scenario(), cfg["mc"]["seed"], 100_000
        lmap = mc.linear_map(s, "EB")
        p = len(lmap[0])
        rng = mc._moment_rng(seed)
        diag = [math.sqrt(rng.gammavariate((n - 1 - i) / 2.0, 2.0)) for i in range(p)]
        a = [[rng.gauss(0.0, 1.0) for _ in range(i)] + [diag[i]] + [0.0] * (p - 1 - i)
             for i in range(p)]

        def product(x, y, f=Fraction):
            return [[sum(f(u) * f(v) for u, v in zip(row, col)) for col in zip(*y)] for row in x]

        la = product(lmap, a)
        la_abs = product(lmap, a, lambda u: abs(Fraction(u)))
        exact = product(la, list(zip(*la)))
        scale = product(la_abs, list(zip(*la_abs)))
        drawn = mc.sample_moments(s, "EB", s.resolved_gain(), n, seed).cov
        ulps = max(abs(Fraction(drawn[i][j]) - exact[i][j] / (n - 1))
                   / (scale[i][j] / (n - 1) * Fraction(1, 2**52))
                   for i in range(6) for j in range(6))
        assert ulps <= self.ULPS, float(ulps)

    @pytest.mark.parametrize("scheme", ["EB", "PM"])
    def test_moments_have_the_rows_law(self, scheme):
        s = make_scenario(3.0, 2.0)
        g = s.resolved_gain()
        coeff = g if scheme == "EB" else k_from_gain(g, s.v_b)
        lmap = np.array(mc.linear_map(s, scheme))
        rows = np.array([np.cov(lmap @ np.random.default_rng(seed).standard_normal(
                                    (lmap.shape[1], self.N)))[np.triu_indices(6)]
                         for seed in self.SEEDS])
        exact = np.array([self.entries(mc.sample_moments(s, scheme, coeff, self.N, seed))
                          for seed in self.SEEDS])
        count = len(self.SEEDS)
        se = np.sqrt((rows.var(axis=0, ddof=1) + exact.var(axis=0, ddof=1)) / count)
        z = (exact.mean(axis=0) - rows.mean(axis=0)) / se
        assert np.abs(z).max() <= self.Z_MEAN, z
        ratio = exact.std(axis=0, ddof=1) / rows.std(axis=0, ddof=1)
        assert self.SD_RATIO[0] <= ratio.min() and ratio.max() <= self.SD_RATIO[1], ratio

    def test_estimation_z_is_calibrated(self):
        # 1000 seeds at n = 2e4: each z has mean 0 and sd 1 within about 4.5
        # standard errors of 1000-seed statistics
        s = make_scenario(3.0, 2.0)
        g = s.resolved_gain()
        truth = np.array(reduced_channel(s, g))
        z = []
        for seed in range(1000):
            est = mc.estimate_params(mc.sample_moments(s, "EB", g, 20_000, seed))
            z.append((np.array([est.t_hat, est.eps_hat]) - truth) / [est.t_se, est.eps_se])
        assert np.all(np.abs(np.mean(z, axis=0)) < 0.15)
        assert np.all(np.abs(np.std(z, axis=0, ddof=1) - 1.0) < 0.1)

    def test_needs_more_rows_than_normals(self, scenario):
        with pytest.raises(ValueError):
            mc.sample_moments(scenario, "EB", 1.3, 16, SEED)
        assert mc.sample_moments(scenario, "EB", 1.3, 17, SEED).n == 17
