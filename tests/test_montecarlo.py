"""Monte Carlo layer: reproducibility, covariance oracles, picture
equivalence, parameter estimation, and the measurement-rescaling analysis."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvmdi import ChannelParams, DetectorParams, Scenario, kernels
from cvmdi import montecarlo as mc
from cvmdi.config import load_config
from cvmdi.keyrate import analytic_k, secret_key_rate
from cvmdi.oracle import Z_LIMIT, _attack_suite, run_oracle_suites
from cvmdi.protocol import (
    effective_transmittance,
    equivalent_excess_noise,
    gain_from_k,
    k_from_gain,
    optimal_gain,
    scenario_block_params,
)
from conftest import lo_scaling_attack, make_scenario, sample_block_cm

N_FAST = 200_000
SEED = 20260823


@pytest.fixture(scope="module")
def scenario():
    return make_scenario(5.0, 2.0)


@pytest.fixture(scope="module")
def eb_batch(scenario):
    return mc.simulate_eb(scenario, scenario.resolved_gain(), N_FAST, SEED)


@pytest.fixture(scope="module")
def pm_batch(scenario):
    return mc.simulate_pm(scenario, analytic_k(scenario), N_FAST, SEED + 1)


@pytest.fixture(scope="module")
def eb_moments(eb_batch):
    return mc.Moments.of(eb_batch)


@pytest.fixture(scope="module")
def pm_moments(pm_batch):
    return mc.Moments.of(pm_batch)


class TestReproducibility:
    def test_eb_bit_identical(self, scenario, eb_batch):
        again = mc.simulate_eb(scenario, scenario.resolved_gain(), N_FAST, SEED)
        assert np.array_equal(eb_batch.data_matrix(), again.data_matrix())

    def test_pm_bit_identical(self, scenario, pm_batch):
        again = mc.simulate_pm(scenario, pm_batch.coeff, N_FAST, SEED + 1)
        assert np.array_equal(pm_batch.data_matrix(), again.data_matrix())

    def test_seed_changes_samples(self, scenario, eb_batch):
        other = mc.simulate_eb(scenario, scenario.resolved_gain(), N_FAST, SEED + 7)
        assert not np.array_equal(eb_batch.x_a, other.x_a)

    def test_rejects_empty_batch(self, scenario):
        with pytest.raises(ValueError):
            mc.simulate_eb(scenario, scenario.resolved_gain(), 0, SEED)


class TestCovarianceOracle:
    def test_final_data_matches_analytic_image(self, scenario, eb_moments):
        predicted = mc.heterodyne_image(*scenario_block_params(scenario, scenario.resolved_gain()))
        z = mc.covariance_z_scores(eb_moments.final_covariance()[:4, :4], predicted, N_FAST)
        assert np.max(np.abs(z)) < 4.0

    def test_relay_outcome_variances(self, scenario, eb_batch):
        # C and D are full quadrature readings of the mixed channel outputs
        eta_a = scenario.channel_a.transmittance
        eta_b = scenario.channel_b.transmittance
        from cvmdi.protocol import entangling_cloner_variance
        va = eta_a * scenario.v_a + (1 - eta_a) * entangling_cloner_variance(
            eta_a, scenario.channel_a.excess_noise)
        vb = eta_b * scenario.v_b + (1 - eta_b) * entangling_cloner_variance(
            eta_b, scenario.channel_b.excess_noise)
        expected = (va + vb) / 2.0
        assert np.var(eb_batch.x_c) == pytest.approx(expected, rel=0.02)
        assert np.var(eb_batch.p_d) == pytest.approx(expected, rel=0.02)

    def test_kurtosis_is_gaussian(self, eb_batch):
        # excess kurtosis of every final column consistent with normality
        for col in eb_batch.columns().values():
            std = col.std()
            kurt = np.mean(((col - col.mean()) / std) ** 4) - 3.0
            assert abs(kurt) < 6.0 * math.sqrt(24.0 / N_FAST)

    def test_zero_length_noisy_leg_keeps_its_noise(self):
        # the analytic path keeps eps at L = 0 (the L -> 0+ limit of the
        # entangling cloner); the sampler must draw the same noise
        s = Scenario(v_a=5.0, v_b=5.0,
                     channel_a=ChannelParams(5.0, 0.2, 0.01),
                     channel_b=ChannelParams(0.0, 0.2, 0.2))
        moments = mc.Moments.of(mc.simulate_eb(s, s.resolved_gain(), N_FAST, SEED))
        predicted = mc.heterodyne_image(*scenario_block_params(s, s.resolved_gain()))
        z = mc.covariance_z_scores(moments.final_covariance()[:4, :4], predicted, N_FAST)
        assert np.max(np.abs(z)) < 4.0

    def test_wrong_prediction_is_rejected(self, scenario, eb_moments):
        g = scenario.resolved_gain()
        predicted = mc.heterodyne_image(*scenario_block_params(scenario, g)) * 1.05
        z = mc.covariance_z_scores(eb_moments.final_covariance()[:4, :4], predicted, N_FAST)
        assert np.max(np.abs(z)) > 10.0


class TestAmplificationFit:
    def test_bridge_round_trip(self):
        assert gain_from_k(k_from_gain(1.7, 40.0), 40.0) == pytest.approx(1.7)


class TestPictureEquivalence:
    @staticmethod
    def max_abs_z(scenario, k_factor=1.0):
        """max |z| of EB moments at the optimal gain g (seed SEED) against PM
        moments at k_factor times the k equivalent to g (seed SEED + 1)."""
        g = optimal_gain(scenario)
        eb = mc.sample_moments(scenario, "EB", g, N_FAST, SEED)
        k = k_factor * k_from_gain(g, scenario.v_b)
        pm = mc.sample_moments(scenario, "PM", k, N_FAST, SEED + 1)
        return float(np.max(np.abs(mc.equivalence_z_scores(eb, pm))))

    def test_joint_covariances_agree(self, scenario):
        zmax = self.max_abs_z(scenario)
        assert zmax < Z_LIMIT, f"max|z|={zmax}"

    def test_negative_control_double_k_fails(self, scenario):
        assert self.max_abs_z(scenario, k_factor=2.0) >= Z_LIMIT

    def test_rejects_swapped_schemes(self, eb_moments, pm_moments):
        with pytest.raises(ValueError):
            mc.equivalence_z_scores(pm_moments, eb_moments)


class TestParameterEstimation:
    def test_eb_round_trip(self, scenario, eb_moments):
        est = mc.estimate_params(eb_moments)
        g = scenario.resolved_gain()
        assert abs(est.t_hat - effective_transmittance(scenario, g)) < 4.0 * est.t_se
        assert abs(est.eps_hat - equivalent_excess_noise(scenario, g)) < 4.0 * est.eps_se

    def test_pm_round_trip(self, scenario, pm_moments):
        est = mc.estimate_params(pm_moments)
        g = scenario.resolved_gain()
        assert abs(est.t_hat - effective_transmittance(scenario, g)) < 4.0 * est.t_se
        assert abs(est.eps_hat - equivalent_excess_noise(scenario, g)) < 4.0 * est.eps_se

    def test_generative_round_trip(self):
        t_in, eps_in = 0.5, 0.1
        batch = sample_block_cm(40.0, t_in, eps_in, 400_000, seed=SEED)
        est = mc.estimate_params(mc.Moments.of(batch))
        assert abs(est.t_hat - t_in) < 4.0 * est.t_se
        assert abs(est.eps_hat - eps_in) < 4.0 * est.eps_se

    def test_rejects_tiny_batches(self, scenario):
        small = mc.simulate_eb(scenario, scenario.resolved_gain(), 100, SEED)
        with pytest.raises(ValueError):
            mc.estimate_params(mc.Moments.of(small))


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
        abc = np.array(scenario_block_params(s, s.resolved_gain()))
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
        cov, n = m.covariance(), m.n

        def read(c):
            moments = dataclasses.replace(m, sums=np.zeros(6), gram=(n - 1) * c)
            return np.array(mc._read_block_params(moments))

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
        f, n = eb_moments.final_covariance(), eb_moments.n
        weights = np.zeros((36, 6, 6))
        for idx, (i, j) in enumerate(np.ndindex(6, 6)):
            weights[idx, i, j] += 0.5
            weights[idx, j, i] += 0.5
        se = np.sqrt(np.diag(mc._reading_covariance(weights, f, n))).reshape(6, 6)
        assert np.allclose(se, mc._entry_se(f, n), rtol=1e-12, atol=0.0)

    def test_negative_control_at_default_config(self):
        # T predicted 1% high must fail at the default n: se(T) is 1.0e-3 there
        # (0.10% of T), so the shift alone is 9.5 standard errors; measured
        # z(T) is 0.32 at the true T and 9.23 at 1.01 T
        cfg = load_config(environ={})
        s = cfg.scenario()
        g = s.resolved_gain()
        est = mc.estimate_params(mc.sample_moments(s, "EB", g, cfg["mc"]["n"], cfg["mc"]["seed"]))
        t = effective_transmittance(s, g)
        assert abs(est.t_hat - t) / est.t_se < Z_LIMIT
        assert abs(est.t_hat - 1.01 * t) / est.t_se >= Z_LIMIT


class TestEstimationCalibration:
    """Over many seeds, z = (estimate - truth)/se has sd 1 when se is right.

    EB batches of N = 1e4 rows, seeds 0-299, V = 40, legs 3 + 2 km,
    eps = 0.002, at the optimal gain. Measured sd (ddof 1) of (z(T), z(eps')):
    1.043 and 0.917 with the delta-method errors of `estimate_params`; 1.250
    and 0.993 with the spread over 10 contiguous blocks, the rule those errors
    replaced, whose z is a Student t with 9 degrees of freedom (sd 1.13).
    """

    SEEDS = range(300)
    N = 10_000
    BLOCKS = 10
    BAND = 0.15  # |sd - 1| allowed

    @pytest.fixture(scope="class")
    def z_scores(self):
        s = make_scenario(3.0, 2.0)
        g = s.resolved_gain()
        truth = np.array([effective_transmittance(s, g), equivalent_excess_noise(s, g)])
        size = self.N // self.BLOCKS
        delta, spread = [], []
        for seed in self.SEEDS:
            batch = mc.simulate_eb(s, g, self.N, seed)
            est = mc.estimate_params(mc.Moments.of(batch))
            err = np.array([est.t_hat, est.eps_hat]) - truth
            delta.append(err / [est.t_se, est.eps_se])
            blocks = []
            for lo in range(0, self.N, size):
                cols = {c: getattr(batch, c)[lo:lo + size]
                        for c in ("x_a", "p_a", "x_b", "p_b", "x_c", "p_d")}
                b = mc.estimate_params(mc.Moments.of(dataclasses.replace(batch, n=size, **cols)))
                blocks.append((b.t_hat, b.eps_hat))
            spread.append(err / (np.std(blocks, axis=0, ddof=1) / math.sqrt(self.BLOCKS)))
        return np.std(delta, axis=0, ddof=1), np.std(spread, axis=0, ddof=1)

    def test_delta_errors_are_calibrated(self, z_scores):
        sd = z_scores[0]
        assert np.all(np.abs(sd - 1.0) <= self.BAND), sd

    def test_block_errors_fail_the_band(self, z_scores):
        sd = z_scores[1]
        assert abs(sd[0] - 1.0) > self.BAND, sd


class TestRescalingAnalysis:
    def grid(self, scenario):
        k0 = analytic_k(scenario)
        return k0 * np.logspace(np.log10(0.3), np.log10(3.0), 2001)

    def test_maximum_rate_is_invariant(self, scenario, pm_batch, pm_moments):
        grid = self.grid(scenario)
        base = mc.key_rates_vs_k_from_batch(pm_moments, grid, scenario.beta_r)
        for eta in (0.25, 0.64, 1.44):
            scaled = mc.key_rates_vs_k_from_batch(
                mc.Moments.of(lo_scaling_attack(pm_batch, eta)), grid, scenario.beta_r)
            assert abs(float(np.max(base)) - float(np.max(scaled))) < 1e-3

    def test_argmax_scales_inversely(self, scenario, pm_batch, pm_moments):
        grid = self.grid(scenario)
        base = mc.key_rates_vs_k_from_batch(pm_moments, grid, scenario.beta_r)
        k_base = grid[int(np.argmax(base))]
        for eta in (0.25, 0.64, 1.44):
            scaled = mc.key_rates_vs_k_from_batch(
                mc.Moments.of(lo_scaling_attack(pm_batch, eta)), grid, scenario.beta_r)
            k_scaled = grid[int(np.argmax(scaled))]
            assert k_scaled * math.sqrt(eta) == pytest.approx(k_base, rel=0.01)

    def test_fixed_k_negative_control(self, scenario, pm_batch, pm_moments):
        k0 = np.array([analytic_k(scenario)])
        base = float(mc.key_rates_vs_k_from_batch(pm_moments, k0, scenario.beta_r)[0])
        scaled = float(mc.key_rates_vs_k_from_batch(
            mc.Moments.of(lo_scaling_attack(pm_batch, 0.64)), k0, scenario.beta_r)[0])
        assert abs(base - scaled) > 1e-2

    def test_batch_rate_matches_analytic(self, scenario, pm_moments):
        k0 = np.array([analytic_k(scenario)])
        empirical = float(mc.key_rates_vs_k_from_batch(pm_moments, k0, scenario.beta_r)[0])
        assert empirical == pytest.approx(secret_key_rate(scenario).k, abs=0.02)

    def test_grid_matches_scalar_kernel_loop(self, scenario, pm_batch, pm_moments):
        grid = self.grid(scenario)
        rates = mc.key_rates_vs_k_from_batch(pm_moments, grid, scenario.beta_r)
        m = np.cov(np.column_stack([pm_batch.x_a, pm_batch.p_a, pm_batch.x_b,
                                    pm_batch.p_b, pm_batch.x_c, pm_batch.p_d]),
                   rowvar=False)
        s_a = mc.modulation_scale(pm_batch.v_a)
        s_b = mc.modulation_scale(pm_batch.v_b)
        a = (m[0, 0] + m[1, 1]) / (s_a * s_a) - 1.0
        for k, rate in zip(grid.tolist(), rates.tolist()):
            var_xb = m[2, 2] + 2 * k * m[2, 4] + k * k * m[4, 4]
            var_pb = m[3, 3] - 2 * k * m[3, 5] + k * k * m[5, 5]
            cov_x = m[0, 2] + k * m[0, 4]
            cov_p = m[1, 3] - k * m[1, 5]
            b = (var_xb + var_pb) / (s_b * s_b) - 1.0
            c = (cov_x - cov_p) / (s_a * s_b)
            assert rate == pytest.approx(
                float(kernels.block_key_rate(a, b, c, scenario.beta_r)), abs=1e-12)

    def test_estimation_and_k_scan_read_the_same_block(self, scenario, pm_moments):
        # one reading of data as (a, b, c): at the batch's own k, the k-scan
        # evaluates the block that estimation fits
        est = mc.estimate_params(pm_moments)
        rate = float(kernels.block_key_rate(est.a, est.b, est.c, scenario.beta_r))
        scan = mc.key_rates_vs_k_from_batch(pm_moments, [pm_moments.coeff], scenario.beta_r)
        assert rate == pytest.approx(float(scan[0]), abs=1e-12)

    def test_rejects_eb_batch(self, eb_moments):
        with pytest.raises(ValueError):
            mc.key_rates_vs_k_from_batch(eb_moments, [1.0])

    def test_rejects_bad_scale(self, pm_moments):
        # eta_scale = 0: see test_rescaling_moments_matches_rescaling_batch
        with pytest.raises(ValueError):
            pm_moments.rescaled(-0.64)


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
    batch = mc.SampleBatch("PM", 0, len(values), 5.0, 5.0, 0.0,
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
        batch = mc.SampleBatch("PM", 0, len(values), 5.0, 5.0, 0.0, *cols)
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

    @pytest.mark.filterwarnings("error")
    def test_small_batch_rescaling_skips_unphysical_k(self):
        # at n = 1000 the PM sample block is unphysical on part of the k grid
        # at seeds 11, 16, 18, 24, 37, 38 and 39, where np.max of the scan was
        # NaN; each scan's maximum is now over its finite points
        s = load_config(environ={}).scenario()
        results = {seed: run_oracle_suites(s, 1000, seed)[3] for seed in range(40)}
        for seed, r in results.items():
            assert math.isfinite(float(r.detail.partition("=")[2])), (seed, r)
        assert all(results[seed].passed for seed in (11, 16, 18, 24, 37, 38, 39))

    def test_rescaling_without_a_finite_key_rate_fails(self, scenario):
        # x_a, x_b correlated beyond what a physical block allows, x_c = p_d = 0:
        # the key rate is NaN at every k
        cov = np.zeros((6, 6))
        cov[:4, :4] = [[1, 0, 0.9, 0], [0, 1, 0, -0.9], [0.9, 0, 1, 0], [0, -0.9, 0, 1]]
        m = mc.Moments("PM", scenario.v_a, scenario.v_b, 1.3, 10_000, np.zeros(6), 1e4 * cov)
        r = _attack_suite(scenario, m)
        assert not r.passed and r.detail == "no finite key rate on the k grid"

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
    ])
    def test_scenario_outside_the_sampler_is_refused(self, scenario, change, field):
        with pytest.raises(mc.UnsupportedScenario, match=field):
            run_oracle_suites(dataclasses.replace(scenario, **change), N_FAST, SEED)


class TestChunkedSampling:
    def test_row_draw_memory_is_blocked(self, scenario):
        # past the 6 n output floats (9.6 MB at n = 2e5), the draw holds one
        # block of normals at a time: 5.8 MB for EB, 4.7 MB for PM; drawing
        # all 16 n EB normals at once adds 25.6 MB more
        import tracemalloc

        n = 200_000
        for simulate in (mc.simulate_eb, mc.simulate_pm):
            tracemalloc.start()
            try:
                simulate(scenario, 1.3, n, SEED)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - 48 * n < 8e6, f"{simulate.__name__}: peak {peak / 1e6:.1f} MB"

    def test_moment_covariance_matches_np_cov(self, eb_batch):
        base = np.column_stack([eb_batch.x_a, eb_batch.p_a, eb_batch.x_b,
                                eb_batch.p_b, eb_batch.x_c, eb_batch.p_d])
        m = mc.Moments.of(eb_batch)
        ref = np.cov(base, rowvar=False)
        assert np.allclose(m.covariance(), ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        final = np.cov(eb_batch.data_matrix(), rowvar=False)
        assert np.allclose(m.final_covariance(), final,
                           rtol=1e-12, atol=1e-12 * np.abs(final).max())

    def test_rescaling_moments_matches_rescaling_batch(self, pm_batch):
        for eta in (0.25, 0.64, 1.44):
            on_moments = mc.Moments.of(pm_batch).rescaled(eta)
            on_batch = mc.Moments.of(lo_scaling_attack(pm_batch, eta))
            for a, b in ((on_moments.sums, on_batch.sums), (on_moments.gram, on_batch.gram)):
                assert np.allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())
        with pytest.raises(ValueError):
            mc.Moments.of(pm_batch).rescaled(0.0)

    @pytest.mark.parametrize("value", [0.0, 0.3, 3.14159, 12.3])
    def test_constant_column_is_degenerate(self, eb_batch, value):
        # G/n - mean^2 of a non-zero constant column is rounding noise that
        # may come out positive; it must still be rejected
        flat = dataclasses.replace(eb_batch, x_a=np.full(eb_batch.n, value))
        with pytest.raises(ValueError, match="degenerate"):
            mc.estimate_params(mc.Moments.of(flat))

    def test_high_v_estimate_is_unbiased(self):
        # one ddof for every covariance: mixing ddof 0 variances with a ddof 1
        # cross covariance biases eps' by about -2V/n, many standard errors
        # at V = 1e5 and n = 2e4
        t_in, eps_in = 0.5, 0.1
        batch = sample_block_cm(1e5, t_in, eps_in, 20_000, seed=SEED)
        est = mc.estimate_params(mc.Moments.of(batch))
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
    lmap = mc.linear_map(s, scheme)
    return mc.Moments(scheme, s.v_a, s.v_b, coeff, 2, np.zeros(6), lmap @ lmap.T).final_covariance()


def assert_close(actual, expected):
    assert np.allclose(actual, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


class TestLinearMap:
    """The sampler's linear map L, read off its own physics, has exactly the
    analytic covariance."""

    @pytest.mark.parametrize("s", SCENARIOS.values(), ids=SCENARIOS.keys())
    def test_map_covariance_is_the_analytic_image(self, s):
        g = s.resolved_gain()
        predicted = mc.heterodyne_image(*scenario_block_params(s, g))
        assert_close(map_covariance(s, "EB", g)[:4, :4], predicted)

    @pytest.mark.parametrize("s", SCENARIOS.values(), ids=SCENARIOS.keys())
    def test_bridged_eb_covariance_is_the_pm_covariance(self, s):
        g = s.resolved_gain()
        bridge = mc.bridge_matrix(s.v_a, s.v_b)
        assert_close(bridge @ map_covariance(s, "EB", g) @ bridge,
                     map_covariance(s, "PM", k_from_gain(g, s.v_b)))

    @pytest.mark.parametrize("s", SCENARIOS.values(), ids=SCENARIOS.keys())
    def test_wrong_sign_map_misses(self, s):
        g = s.resolved_gain()
        predicted = mc.heterodyne_image(*scenario_block_params(s, g))
        miss = np.abs(map_covariance(s, "EB", -g)[:4, :4] - predicted).max()
        assert miss > 0.5 * np.abs(predicted).max()

    @pytest.mark.parametrize("scheme, simulate", [("EB", mc.simulate_eb), ("PM", mc.simulate_pm)])
    def test_rows_are_the_map_of_the_row_stream(self, scheme, simulate):
        # row j is L z_j, z_j the stream's j-th p normals, across the block
        # boundary of the draw; so a batch is the first rows of a longer one
        s = SCENARIOS["V40"]
        lmap = mc.linear_map(s, scheme)
        n = mc.CHUNK_ROWS + 100
        z = mc._rng(SEED, "rows").standard_normal((n, lmap.shape[1]))
        batch = simulate(s, 1.3, n, SEED)
        rows = np.stack([getattr(batch, c) for c in mc._BASE])
        assert_close(rows, lmap @ z.T)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            mc.linear_map(SCENARIOS["V40"], "XX")


class TestExactMoments:
    """`sample_moments` draws the moments of n rows from their law: over many
    seeds they agree in distribution with the moments of drawn rows."""

    SEEDS = range(200)
    N = 2_000
    Z_MEAN = 3.5  # per-entry |mean difference| / its standard error
    SD_RATIO = (0.75, 1.33)  # about 4 standard errors of a ratio of 200-seed sds

    @staticmethod
    def entries(m):
        return np.concatenate([m.sums, m.gram[np.triu_indices(6)]])

    @pytest.mark.parametrize("scheme, simulate", [("EB", mc.simulate_eb), ("PM", mc.simulate_pm)])
    def test_moments_have_the_rows_law(self, scheme, simulate):
        s = make_scenario(3.0, 2.0)
        g = s.resolved_gain()
        coeff = g if scheme == "EB" else k_from_gain(g, s.v_b)
        rows = np.array([self.entries(mc.Moments.of(simulate(s, coeff, self.N, seed)))
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
        truth = np.array([effective_transmittance(s, g), equivalent_excess_noise(s, g)])
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
