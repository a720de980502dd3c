"""Spectral-efficiency bounds and the Monte Carlo engine."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellfree_sim import beamforming, evaluation
from cellfree_sim.beamforming import (
    CHUNK,
    DRAW_BLOCK,
    Scheme,
    assemble_lmmse_lsfd,
    assemble_ltmmse,
    estimated_draws,
    lmmse_local_matrices,
    lsfd_weights,
    mmse_combiner,
    stage2_all,
    statistics_pass,
)
from cellfree_sim.channel import sample_channels
from cellfree_sim.errors import ConfigError
from cellfree_sim.estimation import PilotEstimator
from cellfree_sim.evaluation import (
    _uatf_from_moments,
    cd_se,
    evaluate_schemes,
    uatf_se,
)
from cellfree_sim.rng import ROLE_EVALUATION, ROLE_STATISTICS, subsequence

from conftest import build_instance
from oracles import (
    dense_mmse_combiner,
    densify,
    estimate_per_ue_innovation,
    lmmse_local_whole_chunk,
    mmse_combiner_all_rows,
    sample_channels_whole_chunk,
)

# CPU seconds that threads other than the caller spend on one desk-scale
# evaluation (36 APs, 16 UEs, N=2, 4 pilots). Run in a fresh interpreter, so
# that no BLAS call of an earlier test is still spinning.
HELPER_THREAD_CPU = """
import os, threading, time
from cellfree_sim.beamforming import Scheme
from cellfree_sim.evaluation import evaluate_schemes
from conftest import build_instance

def cpu_seconds():
    tick = os.sysconf("SC_CLK_TCK")
    seconds = {}
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:   # the thread has ended
            continue
        seconds[tid] = (int(fields[11]) + int(fields[12])) / tick   # utime + stime
    return seconds

cfg, plan, stats = build_instance(3, L=36, K=16, N=2, tau_p=4, side=1000.0)
time.sleep(0.3)   # a BLAS pool woken by the setup stops spinning
before = cpu_seconds()
evaluate_schemes(stats, plan, cfg, list(Scheme), 128, 128, 7)
time.sleep(0.3)   # a woken OpenBLAS worker busy-waits about 0.1 s
after = cpu_seconds()
caller = str(threading.get_native_id())
print(sum(after[t] - before[t] for t in before.keys() & after.keys() if t != caller))
"""


class TestUatfBound:
    def test_deterministic_single_ue_collapses_to_snr(self):
        # constant combined gain: the fluctuation term vanishes and the SINR
        # reduces to p |v^H h|^2 / (sigma^2 ||v||^2)
        g = np.full((32, 1, 1), 0.8 - 0.6j)
        vnorm2 = np.full((32, 1), 2.5)
        p = np.array([0.7])
        sigma2 = 0.3
        est, _ = uatf_se(g, vnorm2, p, sigma2, prelog=0.975)
        expected = 0.975 * np.log2(1.0 + 0.7 * 1.0 / (0.3 * 2.5))
        assert est.se[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_combiner_gives_zero_se(self):
        est, _ = uatf_se(np.zeros((8, 2, 2)), np.zeros((8, 2)), np.ones(2), 0.1, 1.0)
        assert np.all(est.se == 0.0)

    def test_scale_invariance(self, rng):
        R, K = 64, 3
        g = rng.standard_normal((R, K, K)) + 1j * rng.standard_normal((R, K, K))
        vnorm2 = rng.uniform(0.5, 2.0, size=(R, K))
        p = rng.uniform(0.1, 1.0, size=K)
        lam = 3.0 - 4.0j
        base, _ = uatf_se(g, vnorm2, p, 0.2, 0.975)
        scaled, _ = uatf_se(g * np.conj(lam), vnorm2 * abs(lam) ** 2, p, 0.2, 0.975)
        np.testing.assert_allclose(scaled.se, base.se, rtol=1e-12)

    def test_negative_fluctuation_is_clamped_and_flagged(self):
        # feed one draw whose moments say Monte Carlo noise pushed the second
        # moment below the squared mean
        se, clamped = _uatf_from_moments(
            own=np.array([[1.0 + 0j]]),
            abs2=np.array([[[0.999]]]),
            vnorm2=np.array([[1.0]]),
            powers=np.array([1.0]),
            sigma2=0.5,
            prelog=1.0,
        )
        assert clamped[0]
        assert se[0] == pytest.approx(np.log2(1 + 1.0 / 0.5), rel=1e-12)

    @given(R=st.integers(2, 64), K=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           exponent=st.integers(-8, 8), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_fluctuation_is_nonnegative_up_to_rounding(self, R, K, seed, exponent, data):
        # interference - signal = p_k (mean|g_kk|^2 - |mean g_kk|^2)
        # + sum_{i != k} p_i mean|g_ki|^2 >= 0 by Jensen's inequality, since both
        # moments come from the same draws. A UE whose own gain never changes
        # sits at the edge, where only rounding can push it below zero.
        rng = np.random.default_rng(seed)
        g = 10.0 ** exponent * (rng.standard_normal((R, K, K))
                                + 1j * rng.standard_normal((R, K, K)))
        steady = data.draw(st.integers(0, K - 1))
        g[:, steady, steady] = g[0, steady, steady]
        p = rng.uniform(0.01, 1.0, size=K)
        _, clamped_ues = uatf_se(g, rng.uniform(0.5, 2.0, size=(R, K)), p, 0.1, 1.0)
        # the bound's own moments, in the order uatf_se forms them
        signal = p * np.abs(g[:, np.arange(K), np.arange(K)].mean(axis=0)) ** 2
        interference = (np.abs(g) ** 2).mean(axis=0) @ p
        fluctuation = interference - signal
        assert np.all(fluctuation >= -1e-12 * interference)
        for k in clamped_ues:
            assert -1e-12 * interference[k] <= fluctuation[k] < 0.0

    def test_needs_two_draws(self):
        with pytest.raises(ConfigError):
            uatf_se(np.zeros((1, 1, 1)), np.zeros((1, 1)), np.ones(1), 0.1, 1.0)


class TestCdBound:
    def test_matches_per_draw_hand_loop(self, rng):
        R, K, prelog = 40, 2, 0.975
        g = rng.standard_normal((R, K, K)) + 1j * rng.standard_normal((R, K, K))
        quad = rng.uniform(0.1, 1.0, size=(R, K))
        p = np.array([0.6, 1.0])
        est = cd_se(g, quad, p, prelog)

        expected = np.zeros(K)
        for r in range(R):
            for k in range(K):
                num = p[k] * abs(g[r, k, k]) ** 2
                interference = sum(p[i] * abs(g[r, k, i]) ** 2 for i in range(K)) - num
                den = interference + quad[r, k]
                expected[k] += np.log2(1 + num / den) / R
        np.testing.assert_allclose(est.se, prelog * expected, rtol=1e-10)

    def test_scalar_per_draw_sinr(self, rng):
        # K=1 with zero error covariance, C = s2 I: per-draw SINR is p |g|^2 / (s2 |v|^2)
        R = 24
        g = (rng.standard_normal((R, 1, 1)) + 1j * rng.standard_normal((R, 1, 1)))
        vnorm2 = rng.uniform(0.5, 2.0, size=(R, 1))
        p, sigma2 = 0.8, 0.2
        est = cd_se(g, sigma2 * vnorm2, np.array([p]), 1.0)
        sinr = p * np.abs(g[:, 0, 0]) ** 2 / (sigma2 * vnorm2[:, 0])
        assert est.se[0] == pytest.approx(np.log2(1 + sinr).mean(), rel=1e-12)

    def test_needs_two_draws(self):
        with pytest.raises(ConfigError):
            cd_se(np.zeros((1, 1, 1)), np.zeros((1, 1)), np.ones(1), 1.0)


class TestEngine:
    def test_deterministic_channel_makes_bounds_coincide(self):
        cfg, plan, stats = build_instance(5, kappa_override=np.inf)
        reports = evaluate_schemes(stats, plan, cfg, list(Scheme), 4, 8, 21)
        for rep in reports.values():
            np.testing.assert_allclose(rep.cd.se, rep.uatf.se, rtol=1e-12)

    def test_pure_los_single_link_matches_analytic_snr(self):
        # one AP, one UE, one antenna, deterministic channel: any combiner
        # scale gives SINR = p beta / sigma^2 and the pilot overhead prelog
        cfg, plan, stats = build_instance(2, kappa_override=np.inf, L=1, K=1, N=1, tau_p=1)
        rep = evaluate_schemes(stats, plan, cfg, [Scheme.MMSE], 2, 4, 3)[Scheme.MMSE]
        beta = np.sum(np.abs(stats.los_mean[0, 0]) ** 2)   # N = 1, all power in LoS
        snr = plan.powers_w[0] * beta / cfg.noise_power_w
        prelog = (cfg.coherence_symbols - cfg.pilot_count) / cfg.coherence_symbols
        assert prelog == pytest.approx((200 - 1) / 200)
        assert rep.uatf.se[0] == pytest.approx(prelog * np.log2(1 + snr), rel=1e-10)

    def test_zero_scattered_pair_inside_rician_network(self):
        # one serving pair without scattered power: nothing to estimate there,
        # while every other pair stays Rician
        cfg, plan, stats = build_instance(10)
        k, l = 0, int(plan.cluster_of_ue[0][0])
        nlos_cov, cov_factor = stats.nlos_cov.copy(), stats.cov_factor.copy()
        nlos_cov[k, l] = cov_factor[k, l] = 0.0
        stats = dataclasses.replace(stats, nlos_cov=nlos_cov, cov_factor=cov_factor)

        estimator = PilotEstimator(stats, plan, cfg)
        assert not np.any(estimator.gain[k, l]) and not np.any(estimator.err_cov[k, l])
        assert np.any(estimator.gain[k]) and np.any(estimator.err_cov[k])
        _, est = next(estimated_draws(estimator, 32, np.random.SeedSequence(4)))
        phased = stats.los_mean[k, l]
        np.testing.assert_array_equal(est.estimates[:, l, :, k],
                                      np.broadcast_to(phased, (32, len(phased))))

        reports = evaluate_schemes(stats, plan, cfg, list(Scheme), 50, 60, 23)
        for rep in reports.values():
            assert np.all(np.isfinite(rep.uatf.se)) and np.all(np.isfinite(rep.cd.se))

    def test_singular_lsfd_system_takes_the_ridge(self):
        # a serving pair with no channel at all: that AP's local combiner for
        # UE 0 is exactly zero, so UE 0's LSFD moment matrix is singular
        cfg, plan, stats = build_instance(10)
        k, l = 0, 2
        assert l in plan.cluster_of_ue[k]
        fields = {name: getattr(stats, name).copy()
                  for name in ("los_mean", "nlos_cov", "cov_factor")}
        for array in fields.values():
            array[k, l] = 0.0
        stats = dataclasses.replace(stats, **fields)

        reports = evaluate_schemes(stats, plan, cfg, list(Scheme), 50, 60, 23)
        assert reports[Scheme.LMMSE_LSFD].regularized_ues == (0,)
        for scheme in (Scheme.MMSE, Scheme.LTMMSE):
            assert reports[scheme].regularized_ues == () and reports[scheme].clamped_ues == ()
        for rep in reports.values():
            assert np.all(np.isfinite(rep.uatf.se)) and np.all(np.isfinite(rep.cd.se))

    def test_cd_dominates_uatf_for_mmse(self):
        cfg, plan, stats = build_instance(9)
        rep = evaluate_schemes(stats, plan, cfg, [Scheme.MMSE], 100, 400, 31)[Scheme.MMSE]
        slack = rep.uatf.ci + rep.cd.ci
        assert np.all(rep.cd.se >= rep.uatf.se - slack)

    def test_reproducible_and_paired_across_schemes(self):
        cfg, plan, stats = build_instance(6)
        joint = evaluate_schemes(stats, plan, cfg, [Scheme.MMSE, Scheme.LTMMSE], 40, 50, 77)
        again = evaluate_schemes(stats, plan, cfg, [Scheme.MMSE, Scheme.LTMMSE], 40, 50, 77)
        solo = evaluate_schemes(stats, plan, cfg, [Scheme.MMSE], 40, 50, 77)[Scheme.MMSE]
        for scheme in (Scheme.MMSE, Scheme.LTMMSE):
            np.testing.assert_array_equal(joint[scheme].uatf.se, again[scheme].uatf.se)
            np.testing.assert_array_equal(joint[scheme].cd.se, again[scheme].cd.se)
        # a single-scheme run sees the same draw streams as a joint run
        np.testing.assert_array_equal(solo.uatf.se, joint[Scheme.MMSE].uatf.se)

    def test_budget_doubling_moves_se_less_than_joint_ci(self):
        cfg, plan, stats = build_instance(8)
        small, large = (
            evaluate_schemes(stats, plan, cfg, [Scheme.MMSE], 50, n, 13)[Scheme.MMSE]
            for n in (300, 600)
        )
        gap = np.abs(small.uatf.se - large.uatf.se)
        assert np.all(gap <= 4.0 * np.sqrt(small.uatf.ci**2 + large.uatf.ci**2))

    def test_scheme_ordering_under_uatf(self):
        cfg, plan, stats = build_instance(12, side=300.0)
        reports = evaluate_schemes(stats, plan, cfg, list(Scheme), 400, 400, 19)
        mmse, lt, lsfd = (reports[s] for s in (Scheme.MMSE, Scheme.LTMMSE, Scheme.LMMSE_LSFD))
        tol_top = 1.96 * np.sqrt(mmse.uatf.ci**2 + lt.uatf.ci**2)
        tol_bot = 1.96 * np.sqrt(lt.uatf.ci**2 + lsfd.uatf.ci**2)
        assert np.all(mmse.uatf.se >= lt.uatf.se - tol_top)
        assert np.all(lt.uatf.se >= lsfd.uatf.se - tol_bot)

    def test_reported_moments_match_a_per_draw_hand_loop(self):
        # every combined gain, noise-plus-error quadratic and combiner norm recomputed
        # with np.vdot per (draw, UE k, UE i) on the same draw streams
        cfg, plan, stats = build_instance(3)
        stat_draws, eval_draws = 30, CHUNK + 22
        stream = 41
        reports = evaluate_schemes(stats, plan, cfg, list(Scheme), stat_draws, eval_draws, stream)

        sigma2, p = cfg.noise_power_w, plan.powers_w
        prelog = (cfg.coherence_symbols - cfg.pilot_count) / cfg.coherence_symbols
        estimator = PilotEstimator(stats, plan, cfg)
        pi, lsfd = statistics_pass(estimator, stat_draws,
                                   subsequence(stream, ROLE_STATISTICS), need_pi=True, need_lsfd=True)
        weights, _ = lsfd_weights(lsfd)
        stage2, _ = stage2_all(pi, plan)

        K = len(p)
        per_draw = {s: {"gain": [], "est_gain": [], "quad": [], "vnorm2": []} for s in Scheme}
        eval_seq = subsequence(stream, ROLE_EVALUATION)
        for draws, est in estimated_draws(estimator, eval_draws, eval_seq):
            local = lmmse_local_matrices(est, plan)
            combiners = {
                Scheme.MMSE: dense_mmse_combiner(est, plan),
                Scheme.LMMSE_LSFD: assemble_lmmse_lsfd(local, weights, plan),
                Scheme.LTMMSE: assemble_ltmmse(local, stage2),
            }
            for scheme, v in combiners.items():
                for r in range(est.n_draws):
                    vr, hr, hhat = v[r], draws.true_channels[r], est.estimates[r]
                    per_draw[scheme]["gain"].append(
                        [[np.vdot(vr[..., k], hr[..., i]) for i in range(K)] for k in range(K)])
                    per_draw[scheme]["est_gain"].append(
                        [[np.vdot(vr[..., k], hhat[..., i]) for i in range(K)] for k in range(K)])
                    per_draw[scheme]["quad"].append(
                        [sum(np.vdot(vr[l, :, k], est.c_matrices[l] @ vr[l, :, k]).real
                             for l in range(vr.shape[0])) for k in range(K)])
                    per_draw[scheme]["vnorm2"].append(
                        [np.vdot(vr[..., k], vr[..., k]).real for k in range(K)])

        for scheme, rep in reports.items():
            gain, est_gain, quad, vnorm2 = (np.array(per_draw[scheme][name]) for name in
                                            ("gain", "est_gain", "quad", "vnorm2"))
            assert gain.shape == (eval_draws, K, K)
            own_mean = np.array([gain[:, k, k].mean() for k in range(K)])
            signal = p * np.abs(own_mean) ** 2
            interference = (np.abs(gain) ** 2).mean(axis=0) @ p
            noise = sigma2 * vnorm2.mean(axis=0)
            sinr = signal / (np.maximum(interference - signal, 0.0) + noise)
            np.testing.assert_allclose(rep.uatf.se, prelog * np.log2(1.0 + sinr), rtol=1e-12)
            cd = cd_se(est_gain, quad, p, prelog)
            np.testing.assert_allclose(rep.cd.se, cd.se, rtol=1e-12)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs /proc/self/task and at least two CPUs")
    def test_desk_evaluation_leaves_blas_threads_asleep(self):
        # A single product large enough for OpenBLAS to thread leaves its
        # worker busy-waiting on a core the setup workers need.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
        run = subprocess.run([sys.executable, "-c", HELPER_THREAD_CPU], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        assert float(run.stdout) <= 0.03

    def test_budget_guard(self):
        # the config requires both budgets to be >= 2; the CIs need 2 draws
        cfg, plan, stats = build_instance(4)
        with pytest.raises(ConfigError, match="at least 2 draws"):
            evaluate_schemes(stats, plan, cfg, [Scheme.MMSE], 10, 1, 0)


def traced_peak(fn) -> int:
    """Peak bytes that `fn()` holds at once, as tracemalloc (numpy included) sees it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDrawBlocks:
    """Per-draw temporaries are formed DRAW_BLOCK draws at a time: the results
    match the whole-chunk expressions bit for bit, and memory stays a few
    chunk-sized arrays."""

    @staticmethod
    def oracle_case(case):
        """A small instance with a partial last block, a zero-power UE or an unused pilot."""
        if case == "unused_pilot":
            cfg, plan, stats = build_instance(3, K=3, tau_p=5)
            assert np.unique(plan.pilot_of_ue).size < cfg.pilot_count
        else:
            cfg, plan, stats = build_instance(3)
        if case == "zero_power_ue":
            plan = dataclasses.replace(plan, powers_w=plan.powers_w * [1.0, 0.0, 1.0, 1.0])
        return cfg, plan, stats

    @pytest.mark.parametrize("case", ["partial_block", "zero_power_ue", "unused_pilot"])
    def test_producers_equal_whole_chunk_oracles(self, case):
        cfg, plan, stats = self.oracle_case(case)
        n = CHUNK - 5
        assert n % DRAW_BLOCK != 0
        draws = sample_channels(stats, np.random.default_rng(5), n)
        channels = draws.true_channels
        assert np.array_equal(channels,
                              sample_channels_whole_chunk(stats, np.random.default_rng(5), n))
        estimator = PilotEstimator(stats, plan, cfg)
        est = estimator.estimate(draws, np.random.default_rng(6))
        assert np.array_equal(est.estimates, estimate_per_ue_innovation(
            estimator, channels, np.random.default_rng(6)))
        assert np.array_equal(lmmse_local_matrices(est, plan), lmmse_local_whole_chunk(est, plan))
        rows = mmse_combiner(est, plan)
        N = cfg.antennas_per_ap
        assert [r.shape for r in rows] == [(n, len(c), N) for c in plan.cluster_of_ue]
        assert np.array_equal(densify(rows, plan, cfg.ap_count), mmse_combiner_all_rows(est, plan))

    def test_per_draw_terms_equal_whole_chunk_products(self, monkeypatch):
        # the evaluation forms every scheme's terms block by block, from block
        # local matrices and scattered MMSE rows; CHUNK - 5 draws end in a
        # partial block
        recorded = []

        def record(bound):
            def recording(*args):
                recorded.append(args[:2])
                return bound(*args)
            return recording

        monkeypatch.setattr(evaluation, "uatf_se", record(evaluation.uatf_se))
        monkeypatch.setattr(evaluation, "cd_se", record(evaluation.cd_se))
        for case in ("partial_block", "zero_power_ue", "unused_pilot"):
            cfg, plan, stats = self.oracle_case(case)
            stat_draws, eval_draws, stream = 20, CHUNK - 5, 17
            recorded.clear()
            evaluate_schemes(stats, plan, cfg, list(Scheme), stat_draws, eval_draws, stream)

            estimator = PilotEstimator(stats, plan, cfg)
            pi, lsfd = statistics_pass(estimator, stat_draws, subsequence(stream, ROLE_STATISTICS),
                                       need_pi=True, need_lsfd=True)
            (draws, est), = estimated_draws(estimator, eval_draws,
                                            subsequence(stream, ROLE_EVALUATION))
            local = lmmse_local_whole_chunk(est, plan)
            combiners = (mmse_combiner_all_rows(est, plan),
                         assemble_lmmse_lsfd(local, lsfd_weights(lsfd)[0], plan),
                         assemble_ltmmse(local, stage2_all(pi, plan)[0]))
            for s, v in enumerate(combiners):
                R, L, N, K = v.shape
                v_h = v.reshape(R, L * N, K).conj().swapaxes(1, 2)
                c_v = est.c_matrices @ v
                (gains, vnorm2), (est_gains, quad) = recorded[2 * s], recorded[2 * s + 1]
                assert np.array_equal(gains, v_h @ draws.true_channels.reshape(R, L * N, K))
                assert np.array_equal(est_gains, v_h @ est.estimates.reshape(R, L * N, K))
                assert np.array_equal(quad, np.sum(v.real * c_v.real + v.imag * c_v.imag,
                                                   axis=(1, 2)))
                assert np.array_equal(vnorm2, np.sum(np.abs(v) ** 2, axis=(1, 2)))

    def test_pi_moments_equal_whole_chunk_scaled_estimates(self):
        cfg, plan, stats = build_instance(3)
        estimator = PilotEstimator(stats, plan, cfg)
        mc, stream = CHUNK - 5, 29
        pi, _ = statistics_pass(estimator, mc, stream, need_pi=True, need_lsfd=False)

        (_, est), = estimated_draws(estimator, mc, stream)
        local = lmmse_local_matrices(est, plan)
        scaled_h = (est.estimates.conj() * np.sqrt(plan.powers_w)).swapaxes(-1, -2)
        pi_sum = np.zeros(pi.pi.shape, dtype=complex)
        pi_sumsq = np.zeros(pi.pi.shape)
        for start in range(0, mc, DRAW_BLOCK):
            block = slice(start, start + DRAW_BLOCK)
            cross = scaled_h[block] @ local[block]
            pi_sum += cross.sum(axis=0)
            pi_sumsq += np.einsum("rlij,rlij->lij", cross.real, cross.real)
            pi_sumsq += np.einsum("rlij,rlij->lij", cross.imag, cross.imag)
        mean = pi_sum / mc
        variance = np.maximum(pi_sumsq / mc - (mean.real ** 2 + mean.imag ** 2), 0.0)
        assert np.array_equal(pi.pi, mean)
        assert np.array_equal(pi.se, np.sqrt(variance / mc))

    # Desk instance (36 APs, 16 UEs, N=2); peaks in units of one (CHUNK, L, N, K)
    # complex array. Forming whole-chunk temporaries read 8.1 and 5.7 units;
    # over three chunks, holding the previous chunk while the next one is
    # drawn read 9.8 and 8.6. Whole-chunk local matrices and combiners in the
    # evaluation, a dense MMSE combiner and whole-chunk copies in the
    # producers read 6.3 (all three schemes) and 4.9.
    DESK = dict(L=36, K=16, N=2, tau_p=4, side=1000.0)
    UNIT = CHUNK * 36 * 2 * 16 * np.dtype(complex).itemsize

    def test_evaluation_peak_memory(self):
        cfg, plan, stats = build_instance(3, **self.DESK)
        peak = traced_peak(lambda: evaluate_schemes(
            stats, plan, cfg, list(Scheme), CHUNK, CHUNK, 7))
        assert peak / self.UNIT <= 5.0

    def test_statistics_pass_peak_memory(self):
        cfg, plan, stats = build_instance(3, **self.DESK)
        estimator = PilotEstimator(stats, plan, cfg)
        peak = traced_peak(lambda: statistics_pass(
            estimator, CHUNK, subsequence(7, ROLE_STATISTICS), need_pi=True, need_lsfd=True))
        assert peak / self.UNIT <= 4.5

    # Reference instance (100 APs, 40 UEs, N=4, 5 pilots) on 100+100 draws, so
    # one chunk of 100 draws; peaks in units of one (100, 100, 4, 40) complex
    # array. Before every pass held at most three chunk-sized arrays they read
    # 5.3 and 4.8.
    REF = dict(L=100, K=40, N=4, tau_p=5, side=1000.0)
    REF_UNIT = 100 * 100 * 4 * 40 * np.dtype(complex).itemsize

    def test_reference_evaluation_peak_memory(self):
        cfg, plan, stats = build_instance(3, **self.REF)
        peak = traced_peak(lambda: evaluate_schemes(
            stats, plan, cfg, list(Scheme), 100, 100, 7))
        assert peak / self.REF_UNIT <= 4.0

    def test_reference_statistics_pass_peak_memory(self):
        cfg, plan, stats = build_instance(3, **self.REF)
        estimator = PilotEstimator(stats, plan, cfg)
        peak = traced_peak(lambda: statistics_pass(
            estimator, 100, subsequence(7, ROLE_STATISTICS), need_pi=True, need_lsfd=True))
        assert peak / self.REF_UNIT <= 3.8

    def test_channels_are_dropped_before_pi(self, monkeypatch):
        # the suspended generator holds no reference to the chunk it yielded,
        # and the statistics pass drops the chunk's true channels before it
        # forms its first Pi cross block
        cfg, plan, stats = build_instance(3)
        estimator = PilotEstimator(stats, plan, cfg)
        chunks = estimated_draws(estimator, 2 * CHUNK, 5)
        draws, est = next(chunks)
        suspended = weakref.ref(draws)
        del draws
        assert suspended() is None

        drawn, alive_at_pi = [], []
        sample, add_pi = beamforming.sample_channels, beamforming._add_pi_moments

        def recorded_sample(*args):
            draws = sample(*args)
            drawn.append(weakref.ref(draws))
            return draws

        def checked_add_pi(*args):
            alive_at_pi.append(drawn[-1]() is not None)
            return add_pi(*args)

        monkeypatch.setattr(beamforming, "sample_channels", recorded_sample)
        monkeypatch.setattr(beamforming, "_add_pi_moments", checked_add_pi)
        statistics_pass(estimator, 2 * CHUNK, 5, need_pi=True, need_lsfd=True)
        assert alive_at_pi == [False, False]

    def test_chunk_is_freed_before_the_next_one_is_drawn(self, monkeypatch):
        cfg, plan, stats = build_instance(3)
        chunks = estimated_draws(PilotEstimator(stats, plan, cfg), 2 * CHUNK, 5)
        draws, est = next(chunks)
        previous = weakref.ref(draws)
        del draws, est
        alive_at_draw = []
        sample = beamforming.sample_channels

        def checked_sample(*args):
            alive_at_draw.append(previous() is not None)
            return sample(*args)

        monkeypatch.setattr(beamforming, "sample_channels", checked_sample)
        next(chunks)
        assert alive_at_draw == [False]

    def test_evaluation_frees_each_chunk(self):
        cfg, plan, stats = build_instance(3, **self.DESK)
        peak = traced_peak(lambda: evaluate_schemes(
            stats, plan, cfg, [Scheme.LMMSE_LSFD, Scheme.LTMMSE], 3 * CHUNK, 3 * CHUNK, 7))
        assert peak / self.UNIT <= 6.5

    def test_statistics_pass_frees_each_chunk(self):
        cfg, plan, stats = build_instance(3, **self.DESK)
        estimator = PilotEstimator(stats, plan, cfg)
        peak = traced_peak(lambda: statistics_pass(
            estimator, 3 * CHUNK, subsequence(7, ROLE_STATISTICS), need_pi=True, need_lsfd=True))
        assert peak / self.UNIT <= 4.5
