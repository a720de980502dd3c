"""Pilot-phase simulation and MMSE estimator statistics."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from cellfree_sim.channel import build_channel_stats, sample_channels
from cellfree_sim.errors import ConfigError
from cellfree_sim.estimation import PilotEstimator
from cellfree_sim.scenario import AreaConfig, assign_pilots_and_clusters, deploy

from conftest import build_instance, make_cfg, make_plan, make_stats
from oracles import error_statistics_check, estimate_per_ue_innovation


def identity_cov(K, L, N, scale=1.0):
    cov = np.zeros((K, L, N, N), dtype=complex)
    cov[..., np.arange(N), np.arange(N)] = scale
    return cov


class TestPsiMatrix:
    def test_unused_pilot_is_noise_only(self):
        stats = make_stats(np.zeros((1, 1, 2)), identity_cov(1, 1, 2))
        plan = make_plan([0], [[0]])
        cfg = make_cfg(L=1, K=1, N=2, tau_p=2, sigma2=0.3)
        psi = PilotEstimator(stats, plan, cfg).psi[1, 0]
        np.testing.assert_allclose(psi, 0.3 * np.eye(2), atol=1e-15)

    def test_single_ue_identity_covariance(self):
        # eta * tau_p = 1 with R = I gives (1 + sigma^2) I
        stats = make_stats(np.zeros((1, 1, 2)), identity_cov(1, 1, 2))
        plan = make_plan([0], [[0]], pilot_powers=[1.0])
        cfg = make_cfg(L=1, K=1, N=2, tau_p=1, sigma2=0.25)
        psi = PilotEstimator(stats, plan, cfg).psi[0, 0]
        np.testing.assert_allclose(psi, 1.25 * np.eye(2), atol=1e-15)

    def test_two_copilot_ues_sum_term_by_term(self, rng):
        N = 3
        a = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        b = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        r1, r2 = a @ a.conj().T, b @ b.conj().T
        cov = np.stack([r1, r2])[:, None]
        stats = make_stats(np.zeros((2, 1, N)), cov)
        plan = make_plan([0, 0], [[0], [0]], pilot_powers=[0.2, 0.7])
        cfg = make_cfg(L=1, K=2, N=N, tau_p=2, sigma2=0.1)
        psi = PilotEstimator(stats, plan, cfg).psi[0, 0]
        expected = 0.2 * 2 * r1 + 0.7 * 2 * r2 + 0.1 * np.eye(N)
        np.testing.assert_allclose(psi, expected, rtol=1e-12)


class TestErrorCovariance:
    def test_scalar_closed_form(self):
        # N=1, single UE: C = r sigma^2 / (eta tau r + sigma^2)
        r, eta, tau, sigma2 = 0.8, 0.5, 3, 0.12
        stats = make_stats(np.zeros((1, 1, 1)), r * identity_cov(1, 1, 1))
        plan = make_plan([0], [[0]], pilot_powers=[eta])
        cfg = make_cfg(L=1, K=1, N=1, tau_p=tau, sigma2=sigma2)
        est = PilotEstimator(stats, plan, cfg)
        expected = r * sigma2 / (eta * tau * r + sigma2)
        assert est.err_cov[0, 0, 0, 0].real == pytest.approx(expected, rel=1e-12)
        assert est.err_cov[0, 0, 0, 0].imag == pytest.approx(0.0, abs=1e-15)

    def test_vanishing_noise_gives_perfect_estimation(self):
        stats = make_stats(np.zeros((1, 1, 2)), identity_cov(1, 1, 2, scale=0.7))
        plan = make_plan([0], [[0]])
        cfg = make_cfg(L=1, K=1, N=2, tau_p=1, sigma2=1e-12)
        est = PilotEstimator(stats, plan, cfg)
        assert np.abs(est.err_cov).max() < 1e-11

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_error_cov_between_zero_and_prior(self, seed):
        cfg = AreaConfig(side_length_m=400.0, ap_count=4, ue_count=5, antennas_per_ap=3,
                         pilot_count=2, pilot_power_w=0.1)
        dep = deploy(cfg, np.random.default_rng(seed))
        plan = assign_pilots_and_clusters(dep, cfg)
        stats = build_channel_stats(dep, cfg, np.random.default_rng(seed + 50))[0]
        est = PilotEstimator(stats, plan, cfg)
        for k in range(cfg.ue_count):
            for l in range(cfg.ap_count):
                tol = 1e-10 * max(np.trace(stats.nlos_cov[k, l]).real, 1e-300)
                assert np.linalg.eigvalsh(est.err_cov[k, l]).min() >= -tol
                gap = stats.nlos_cov[k, l] - est.err_cov[k, l]
                assert np.linalg.eigvalsh(gap).min() >= -tol

    @staticmethod
    def _instance():
        cfg = AreaConfig(side_length_m=400.0, ap_count=4, ue_count=5, antennas_per_ap=3,
                         pilot_count=2, pilot_power_w=0.1)
        dep = deploy(cfg, np.random.default_rng(4))
        plan = assign_pilots_and_clusters(dep, cfg)
        stats = build_channel_stats(dep, cfg, np.random.default_rng(54))[0]
        return cfg, plan, stats, PilotEstimator(stats, plan, cfg)

    def test_batched_factorizations_match_a_per_pair_loop(self):
        cfg, plan, stats, est = self._instance()

        tau_p = cfg.pilot_count
        psi = np.empty_like(est.psi)
        psi[:] = cfg.noise_power_w * np.eye(cfg.antennas_per_ap)
        for i in range(cfg.ue_count):
            psi[plan.pilot_of_ue[i]] += plan.pilot_powers_w[i] * tau_p * stats.nlos_cov[i]
        np.testing.assert_array_equal(est.psi, psi)

        gain = np.zeros_like(est.gain)
        err_cov = np.zeros_like(est.err_cov)
        for l in range(cfg.ap_count):
            for k in range(cfg.ue_count):
                eta = plan.pilot_powers_w[k]
                cov = stats.nlos_cov[k, l]
                solved = np.linalg.solve(est.psi[plan.pilot_of_ue[k], l], cov)
                gain[k, l] = np.sqrt(eta) * solved.conj().T
                err = cov - eta * tau_p * (solved.conj().T @ cov)
                err_cov[k, l] = 0.5 * (err + err.conj().T)
        np.testing.assert_array_equal(est.gain, gain)
        np.testing.assert_array_equal(est.err_cov, err_cov)
        np.testing.assert_array_equal(
            est.c_matrices, np.einsum("k,klnm->lnm", plan.powers_w, err_cov)
            + cfg.noise_power_w * np.eye(cfg.antennas_per_ap))

    def test_gain_and_error_covariance_match_a_cholesky_oracle(self):
        # scipy's Cholesky solve is an independent oracle for the LU solve
        cfg, plan, stats, est = self._instance()
        tau_p = cfg.pilot_count
        for l in range(cfg.ap_count):
            for k in range(cfg.ue_count):
                eta = plan.pilot_powers_w[k]
                cov = stats.nlos_cov[k, l]
                solved_h = cho_solve(cho_factor(est.psi[plan.pilot_of_ue[k], l]), cov).conj().T
                err = cov - eta * tau_p * (solved_h @ cov)
                np.testing.assert_allclose(est.gain[k, l], np.sqrt(eta) * solved_h, rtol=1e-12)
                np.testing.assert_allclose(est.err_cov[k, l], 0.5 * (err + err.conj().T),
                                           rtol=1e-12)

    def test_copilot_ue_never_improves_estimation(self, rng):
        # adding a contaminating UE cannot reduce the error covariance trace
        N = 2
        for _ in range(20):
            a = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            b = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            cov = np.stack([a @ a.conj().T, b @ b.conj().T])[:, None]
            stats = make_stats(np.zeros((2, 1, N)), cov)
            cfg = make_cfg(L=1, K=2, N=N, tau_p=1, sigma2=0.2)
            alone = PilotEstimator(
                stats, make_plan([0, 1], [[0], [0]]),
                make_cfg(L=1, K=2, N=N, tau_p=2, sigma2=0.2),
            )
            contaminated = PilotEstimator(stats, make_plan([0, 0], [[0], [0]]), cfg)
            tr_alone = np.trace(alone.err_cov[0, 0]).real
            tr_cont = np.trace(contaminated.err_cov[0, 0]).real
            assert tr_cont >= tr_alone * (1 - 1e-10)


class TestEstimates:
    def test_pilot_sums_match_one_product(self, rng):
        # UEs 0, 2, 4 share pilot 0 and UEs 1, 3 pilot 1; pilot 2 is unused. `estimate`
        # sums the pilot signal with one small product per pilot, and must agree with
        # an estimate from one product over all UEs
        cfg, _, stats = build_instance(11, L=6, K=5, N=2, tau_p=3)
        plan = make_plan([0, 1, 0, 1, 0], [[2], [0, 1], [1, 2, 3], [0, 3, 4, 5], [1, 3, 5]],
                         pilot_powers=rng.uniform(0.05, 0.1, 5))
        estimator = PilotEstimator(stats, plan, cfg)
        draws = sample_channels(stats, rng, 7)
        H = draws.true_channels
        est = estimator.estimate(draws, np.random.default_rng(3))
        one_product = (H.reshape(-1, 5) @ estimator._pilot_coef).reshape(H.shape[:3] + (3,))
        np.testing.assert_array_equal(one_product[..., 2], 0.0)
        expected = estimate_per_ue_innovation(estimator, H, np.random.default_rng(3),
                                              received=one_product)
        np.testing.assert_allclose(est.estimates, expected, rtol=1e-13)

    def test_pure_los_estimates_are_exact(self):
        los = np.array([[[1.0 + 0.5j, -0.3j]]])
        stats = make_stats(los, np.zeros((1, 1, 2, 2)), phases=[[0.7]])
        plan = make_plan([0], [[0]])
        cfg = make_cfg(L=1, K=1, N=2, tau_p=1, sigma2=0.5)
        draws = sample_channels(stats, np.random.default_rng(0), 6)
        estimator = PilotEstimator(stats, plan, cfg)
        est = estimator.estimate(draws, np.random.default_rng(1))
        phased = stats.los_mean.transpose(1, 2, 0)
        for r in range(6):
            np.testing.assert_array_equal(est.estimates[r], phased)
        assert np.all(estimator.err_cov == 0)

    def test_estimator_moments_on_contaminated_pair(self):
        # two UEs sharing one pilot at two APs; all three moment checks must
        # hold within 5 standard errors
        cfg = AreaConfig(side_length_m=300.0, ap_count=2, ue_count=2, antennas_per_ap=2,
                         pilot_count=1, pilot_power_w=0.1)
        dep = deploy(cfg, np.random.default_rng(8))
        plan = assign_pilots_and_clusters(dep, cfg)
        stats = build_channel_stats(dep, cfg, np.random.default_rng(9))[0]
        report = error_statistics_check(PilotEstimator(stats, plan, cfg), 30_000, 10,
                                        min_draws=1000)
        assert report.within(5.0), report
        # shared pilot signal induces visible estimate correlation
        assert report.copilot_pairs == ((0, 1),)
        assert report.copilot_estimate_corr[0] > 0.1

    def test_pure_los_diagnostics_are_exactly_zero(self):
        cfg = AreaConfig(side_length_m=300.0, ap_count=2, ue_count=2, antennas_per_ap=2,
                         pilot_count=1, pilot_power_w=0.1)
        dep = deploy(cfg, np.random.default_rng(8))
        plan = assign_pilots_and_clusters(dep, cfg)
        stats = build_channel_stats(dep, cfg, np.random.default_rng(9), [np.inf])[0]
        report = error_statistics_check(PilotEstimator(stats, plan, cfg), 2000, 10,
                                        min_draws=1000)
        # the error and cross moments vanish identically; the mean deviation
        # is pure accumulation roundoff
        assert report.max_mean_dev_se < 1e-3
        assert report.max_errcov_dev_se == 0.0
        assert report.max_cross_dev_se == 0.0

    def test_orthogonal_pilots_have_no_copilot_pairs(self):
        cfg = AreaConfig(side_length_m=300.0, ap_count=2, ue_count=2, antennas_per_ap=2,
                         pilot_count=2, pilot_power_w=0.1)
        dep = deploy(cfg, np.random.default_rng(8))
        plan = assign_pilots_and_clusters(dep, cfg)
        stats = build_channel_stats(dep, cfg, np.random.default_rng(9))[0]
        report = error_statistics_check(PilotEstimator(stats, plan, cfg), 5000, 10,
                                        min_draws=1000)
        assert report.within(5.0)
        assert report.copilot_pairs == ()

    def test_draw_budget_guard(self):
        cfg = AreaConfig(side_length_m=300.0, ap_count=2, ue_count=2, antennas_per_ap=2,
                         pilot_count=1, pilot_power_w=0.1)
        dep = deploy(cfg, np.random.default_rng(8))
        plan = assign_pilots_and_clusters(dep, cfg)
        stats = build_channel_stats(dep, cfg, np.random.default_rng(9))[0]
        with pytest.raises(ConfigError):
            error_statistics_check(PilotEstimator(stats, plan, cfg), 10, 0)
