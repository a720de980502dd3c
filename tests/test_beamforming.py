"""Combiner computation: formulas, optimality and scheme equivalences."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from cellfree_sim.beamforming import (
    LsfdMoments,
    PiSet,
    assemble_lmmse_lsfd,
    assemble_ltmmse,
    lmmse_local_matrices,
    lsfd_weights,
    ltmmse_stage2,
    stage2_all,
    statistics_pass,
)
from cellfree_sim.channel import sample_channels
from cellfree_sim.estimation import EstimateSet, PilotEstimator

from conftest import build_instance, make_cfg, make_plan, make_stats
from oracles import dense_mmse_combiner, mmse_cluster_solve


# sha256 of the MMSE combiners of 16 draws on a network whose every cluster
# holds all 25 APs, so M N = 100: large enough for OpenBLAS to thread an
# M N x M N LU factorization, and so to change its bits with the thread count.
BLAS_THREAD_CHILD = """
import hashlib
from cellfree_sim.beamforming import estimated_draws
from cellfree_sim.estimation import PilotEstimator
from conftest import build_instance
from oracles import dense_mmse_combiner

cfg, plan, stats = build_instance(5, L=25, K=2, N=4, tau_p=2, side=400.0)
assert all(len(cluster) == 25 for cluster in plan.cluster_of_ue)
(_, est), = estimated_draws(PilotEstimator(stats, plan, cfg), 16, 9)
print(hashlib.sha256(dense_mmse_combiner(est, plan).tobytes()).hexdigest())
"""


def synthetic_estimates(rng, R, L, N, K, err_scale=0.0, sigma2=0.0):
    """EstimateSet with Gaussian estimates, isotropic error covariances of
    unit-power UEs and noise power `sigma2`."""
    est = rng.standard_normal((R, L, N, K)) + 1j * rng.standard_normal((R, L, N, K))
    c = np.broadcast_to((K * err_scale + sigma2) * np.eye(N, dtype=complex), (L, N, N))
    return EstimateSet(estimates=est, c_matrices=c)


def combined_gains(vectors, channels):
    return np.einsum("rlnk,rlni->rki", vectors.conj(), channels)


def detection_mse(vectors, est, powers):
    """Model-implied detection MSE per UE, averaged over the draw set.

    Per draw: 1 - 2 sqrt(p_k) Re(v^H h_hat_k) + v^H (H_hat P H_hat^H + C) v
    with C = Z + sigma^2 I, evaluated on the full stacked arrays (the
    combiner support enforces the cluster restriction).
    """
    ghat = combined_gains(vectors, est.estimates)
    K = ghat.shape[1]
    own = ghat[:, np.arange(K), np.arange(K)]
    quad = np.einsum("rlnk,lnm,rlmk->rk", vectors.conj(), est.c_matrices, vectors).real
    second = (np.abs(ghat) ** 2) @ powers + quad
    return 1.0 - 2.0 * np.sqrt(powers) * own.real.mean(axis=0) + second.mean(axis=0)


def empirical_pi(est, local, powers):
    cross = np.einsum("rlni,rlnj->lij", est.estimates.conj(), local) / est.n_draws
    return PiSet(pi=cross * np.sqrt(powers)[None, :, None], se=np.zeros_like(cross, dtype=float))


def empirical_lsfd_moments(est, local, channels, plan, sigma2):
    R = est.n_draws
    K = est.estimates.shape[3]
    f, D = [], []
    for k in range(K):
        cluster = plan.cluster_of_ue[k]
        v_k = local[:, cluster][:, :, :, k]
        gains = np.einsum("rmn,rmni->rmi", v_k.conj(), channels[:, cluster])
        f.append(gains[:, :, k].mean(axis=0))
        G = np.einsum("i,rmi,rsi->ms", plan.powers_w, gains, gains.conj()) / R
        D.append(G + sigma2 * np.diag((np.abs(v_k) ** 2).sum(axis=2).mean(axis=0)))
    return LsfdMoments(mean_gain=tuple(f), denominator=tuple(D))


def unit_weights(plan, ap_count):
    """(K, L) LSFD weights of 1 on every serving pair, 0 elsewhere."""
    ap, ue = plan.serving_pairs
    weights = np.zeros((len(plan.cluster_of_ue), ap_count))
    weights[ue, ap] = 1.0
    return weights


class TestMmseCombiner:
    def test_scalar_closed_form(self, rng):
        # detected symbol is v^H y, so the scalar solution is h/(|h|^2 + s2):
        # the conjugation happens at application time
        est = synthetic_estimates(rng, R=16, L=1, N=1, K=1, sigma2=0.3)
        plan = make_plan([0], [[0]], powers=[1.0])
        v = dense_mmse_combiner(est, plan)
        h = est.estimates[:, 0, 0, 0]
        expected = h / (np.abs(h) ** 2 + 0.3)
        np.testing.assert_allclose(v[:, 0, 0, 0], expected, rtol=1e-12)
        detected_weight = v[:, 0, 0, 0].conj()
        np.testing.assert_allclose(detected_weight, h.conj() / (np.abs(h) ** 2 + 0.3),
                                   rtol=1e-12)

    def test_support_confined_to_cluster(self, rng):
        est = synthetic_estimates(rng, R=4, L=4, N=2, K=3, err_scale=0.1, sigma2=0.2)
        plan = make_plan([0, 0, 0], [[0, 2], [1], [2, 3]])
        v = dense_mmse_combiner(est, plan)
        assert np.all(v[:, [1, 3], :, 0] == 0)
        assert np.all(v[:, [0, 2, 3], :, 1] == 0)
        assert np.all(v[:, [0, 1], :, 2] == 0)
        assert np.any(v[:, [0, 2], :, 0] != 0)

    def test_first_order_optimality(self, rng):
        # random perturbations around the solution never reduce the
        # per-draw quadratic objective
        est = synthetic_estimates(rng, R=6, L=3, N=2, K=4, err_scale=0.15, sigma2=0.4)
        powers = np.array([1.0, 0.5, 0.8, 1.2])
        plan = make_plan([0, 0, 1, 1], [[0, 1], [1, 2], [0, 1, 2], [2]], powers=powers)
        v = dense_mmse_combiner(est, plan)
        base = detection_mse(v, est, powers)
        for trial in range(100):
            noise = np.random.default_rng(trial).standard_normal(v.shape) * 1e-3
            perturbed = v + noise * (np.abs(v) > 0)
            worse = detection_mse(perturbed, est, powers)
            assert np.all(base <= worse + 1e-12)

    def test_bits_do_not_depend_on_blas_threads(self):
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
            run = subprocess.run([sys.executable, "-c", BLAS_THREAD_CHILD], env=env,
                                 capture_output=True, text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout.strip())
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("N, clusters, powers", [
        (1, [[0], [1, 2], [0, 1, 2], [2], [0, 2], [1]], [1.0, 0.4, 0.8, 0.6, 1.2, 0.9]),
        (2, [[0, 1], [1, 2], [2], [0, 2]], [0.5, 1.0, 0.7, 0.9]),
        (4, [[0, 1, 2], [1]], [1.0, 0.3]),
        (2, [[0, 1], [2], [0, 1, 2]], [0.8, 0.0, 0.5]),
    ], ids=["mn_below_k", "mn_equal_k", "mn_above_k", "zero_power_ue"])
    def test_matches_cluster_solve(self, rng, N, clusters, powers):
        # the K x K push-through form against the M N x M N solve, with
        # Hermitian non-diagonal C_l and one-AP clusters in every case
        R, L, K = 16, 3, len(powers)
        x = rng.standard_normal((L, N, N)) + 1j * rng.standard_normal((L, N, N))
        c = x @ x.conj().swapaxes(1, 2) / N + 0.3 * np.eye(N)
        est = EstimateSet(estimates=synthetic_estimates(rng, R, L, N, K).estimates, c_matrices=c)
        plan = make_plan(np.zeros(K, dtype=int), clusters, powers=powers)
        v = dense_mmse_combiner(est, plan)
        reference = mmse_cluster_solve(est, plan)
        deviation = np.linalg.norm(v - reference, axis=(1, 2))          # (R, K)
        assert np.all(deviation <= 1e-12 * np.linalg.norm(reference, axis=(1, 2)))
        assert np.all(v[..., np.asarray(powers) == 0.0] == 0.0)


class TestLocalMatrix:
    def test_scalar_closed_form(self, rng):
        est = synthetic_estimates(rng, R=8, L=1, N=1, K=1)
        p, c, sigma2 = 0.7, 0.2, 0.15
        c_l = np.array([[[p * c + sigma2]]], dtype=complex)  # power-weighted error plus noise
        est = EstimateSet(estimates=est.estimates, c_matrices=c_l)
        V = lmmse_local_matrices(est, make_plan([0], [[0]], powers=[p]))
        h = est.estimates[:, 0, 0, 0]
        expected = np.sqrt(p) * h / (p * np.abs(h) ** 2 + p * c + sigma2)
        np.testing.assert_allclose(V[:, 0, 0, 0], expected, rtol=1e-12)

    def test_zero_estimates_give_zero_matrix(self):
        est = EstimateSet(
            estimates=np.zeros((3, 2, 2, 2), dtype=complex),
            c_matrices=np.broadcast_to(0.1 * np.eye(2, dtype=complex), (2, 2, 2)),
        )
        plan = make_plan([0, 0], [[0], [1]])
        V = lmmse_local_matrices(est, plan)
        assert np.all(V == 0)

    def test_single_ap_network_reduces_to_centralized(self, rng):
        est = synthetic_estimates(rng, R=5, L=1, N=2, K=3, err_scale=0.3, sigma2=0.25)
        plan = make_plan([0, 0, 0], [[0], [0], [0]])
        V = lmmse_local_matrices(est, plan)
        v = dense_mmse_combiner(est, plan)
        np.testing.assert_allclose(v[:, 0], V[:, 0], rtol=1e-10)


def one_ue_weights(f, D):
    """`lsfd_weights` of one UE whose moments are `f` and `D`, served by all
    len(f) APs of the network: its row of weights and the flagged UEs."""
    weights, flagged = lsfd_weights(LsfdMoments(mean_gain=(f,), denominator=(D,)),
                                    make_plan([0], [np.arange(len(f))]), len(f))
    return weights[0], flagged


class TestLsfdWeights:
    def test_silent_ap_gets_zero_weight(self):
        f = np.array([0.9 + 0.1j, 0.0])
        G = np.outer(f, f.conj()) + np.diag([0.2, 0.0])
        weights, flagged = one_ue_weights(f, G + 0.3 * np.diag([0.5, 0.4]))
        assert flagged == ()
        assert abs(weights[1]) < 1e-14 * abs(weights[0])

    def test_singular_moments_fall_back_to_ridge(self):
        f = np.array([1.0 + 0j, 0.0])
        # no noise power at the second AP: D = f f^H is singular
        weights, flagged = one_ue_weights(f, np.outer(f, f.conj()))
        assert flagged == (0,)
        assert np.all(np.isfinite(weights))

    def test_weights_are_laid_out_on_the_clusters(self, rng):
        # UE 0 is served by APs 1 and 3, UE 1 by AP 2 alone; AP 0 serves nobody
        clusters = [[1, 3], [2]]
        f = tuple(rng.standard_normal(len(c)) + 1j * rng.standard_normal(len(c))
                  for c in clusters)
        D = tuple(np.outer(g, g.conj()) + np.eye(len(g)) for g in f)
        weights, flagged = lsfd_weights(LsfdMoments(mean_gain=f, denominator=D),
                                        make_plan([0, 1], clusters), 4)
        assert weights.shape == (2, 4) and flagged == ()
        for k, cluster in enumerate(clusters):
            assert np.abs(weights[k]).max() == pytest.approx(1.0, rel=1e-15)
            np.testing.assert_array_equal(np.delete(weights[k], cluster), 0.0)
            a = np.linalg.solve(D[k], f[k])
            np.testing.assert_allclose(weights[k, cluster], a / np.abs(a).max(), rtol=1e-12)

    def test_overflowing_solve_falls_back_to_ridge(self):
        # D^-1 f = (1e318, 1) overflows to inf, and solve raises nothing
        f = np.array([1e10 + 0j, 1.0])
        D = np.diag([1e-308, 1.0]).astype(complex)
        assert not np.all(np.isfinite(np.linalg.solve(D, f)))
        weights, flagged = one_ue_weights(f, D)
        assert flagged == (0,)
        assert np.all(np.isfinite(weights))

    def test_rayleigh_quotient_maximality(self, rng):
        # the returned weights beat 200 random directions on the UatF SINR
        M, K, k = 3, 4, 1
        powers = np.array([0.5, 1.0, 0.7, 0.9])
        sigma2 = 0.2
        f = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        G = np.empty((K, M, M), dtype=complex)
        for i in range(K):
            X = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
            G[i] = X @ X.conj().T
        G[k] += np.outer(f, f.conj())
        S = rng.uniform(0.2, 1.0, size=M)
        D = np.einsum("i,imn->mn", powers, G) + sigma2 * np.diag(S)

        def sinr(a):
            num = powers[k] * abs(a.conj() @ f) ** 2
            B = D - powers[k] * np.outer(f, f.conj())
            return num / (a.conj() @ B @ a).real

        weights, _ = one_ue_weights(f, D)
        best = sinr(weights)
        for trial in range(200):
            a = (np.random.default_rng(trial).standard_normal(M)
                 + 1j * np.random.default_rng(trial + 999).standard_normal(M))
            assert sinr(a) <= best * (1 + 1e-9)

    @pytest.mark.parametrize("M", [1, 3, 8])
    def test_sherman_morrison_step(self, rng, M):
        # D^-1 f is a positive real multiple of the Rayleigh-quotient maximizer
        # (D - p f f^H)^-1 f, so both give the same UatF SINR
        p = 0.7
        f = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        X = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
        B = X @ X.conj().T + M * np.eye(M)          # D - p f f^H, Hermitian and > 0
        D = B + p * np.outer(f, f.conj())
        weights, flagged = one_ue_weights(f, D)
        assert flagged == () and np.abs(weights).max() == pytest.approx(1.0, rel=1e-15)
        # undo the largest-modulus scaling: the Sherman-Morrison scalar is that of D^-1 f
        a, b = weights * np.abs(np.linalg.solve(D, f)).max(), np.linalg.solve(B, f)

        scale = np.vdot(b, a) / np.vdot(b, b)
        assert scale.real > 0 and abs(scale.imag) <= 1e-12 * scale.real
        np.testing.assert_allclose(a, scale.real * b, rtol=1e-12)
        np.testing.assert_allclose(scale.real, 1.0 - p * np.vdot(f, a).real, rtol=1e-12)

        def sinr(w):
            return p * abs(np.vdot(w, f)) ** 2 / np.vdot(w, B @ w).real

        np.testing.assert_allclose(sinr(a), sinr(b), rtol=1e-12)


class TestPiEstimation:
    def test_deterministic_estimates_need_one_chunk(self):
        los = np.array([[[1.0 + 0.2j, 0.5j]], [[0.3, 1.0 - 0.4j]]])  # (K=2, L=1, N=2)
        stats = make_stats(los, np.zeros((2, 1, 2, 2)), phases=[[0.4], [2.0]])
        plan = make_plan([0, 1], [[0], [0]])
        cfg = make_cfg(L=1, K=2, N=2, tau_p=2, sigma2=0.2)
        est = PilotEstimator(stats, plan, cfg)
        pi, _ = statistics_pass(est, 2, 3, need_pi=True, need_lsfd=False)

        draws = sample_channels(stats, np.random.default_rng(0), 1)
        eset = est.estimate(draws, np.random.default_rng(1))
        local = lmmse_local_matrices(eset, plan)
        exact = empirical_pi(eset, local, plan.powers_w)
        np.testing.assert_allclose(pi.pi, exact.pi, rtol=1e-10)
        assert np.all(pi.se < 1e-12)

    def test_single_ue_pi_is_a_shrinkage_factor(self):
        stats = make_stats(np.zeros((1, 1, 1)), 0.9 * np.ones((1, 1, 1, 1)))
        plan = make_plan([0], [[0]], powers=[0.8])
        cfg = make_cfg(L=1, K=1, N=1, tau_p=1, sigma2=0.1)
        pi, _ = statistics_pass(PilotEstimator(stats, plan, cfg), 400, 5,
                                need_pi=True, need_lsfd=False)
        value = pi.pi[0, 0, 0]
        assert abs(value.imag) < 1e-3
        assert 0.0 < value.real < 1.0

    def test_standard_error_shrinks_with_sqrt_of_budget(self):
        stats = make_stats(np.zeros((2, 1, 2)), np.tile(np.eye(2), (2, 1, 1, 1)))
        plan = make_plan([0, 0], [[0], [0]])
        cfg = make_cfg(L=1, K=2, N=2, tau_p=1, sigma2=0.3)
        estimator = PilotEstimator(stats, plan, cfg)
        small, _ = statistics_pass(estimator, 1000, 5, need_pi=True, need_lsfd=False)
        large, _ = statistics_pass(estimator, 4000, 6, need_pi=True, need_lsfd=False)
        ratio = small.se.mean() / large.se.mean()
        assert 1.6 < ratio < 2.6  # budget x4 should halve the standard error


class TestLsfdMoments:
    def test_deterministic_channels_give_exact_moments_after_one_chunk(self):
        los = np.array([[[1.0 + 0.2j, 0.5j], [0.1, 0.8]],
                        [[0.3, 1.0 - 0.4j], [0.9j, 0.2]]])  # (K=2, L=2, N=2)
        stats = make_stats(los, np.zeros((2, 2, 2, 2)), phases=[[0.4, 1.3], [2.0, 0.2]])
        plan = make_plan([0, 1], [[0, 1], [1]])
        cfg = make_cfg(L=2, K=2, N=2, tau_p=2, sigma2=0.2)
        estimator = PilotEstimator(stats, plan, cfg)
        _, moments = statistics_pass(estimator, 3, np.random.SeedSequence(8),
                                     need_pi=False, need_lsfd=True)

        draws = sample_channels(stats, np.random.default_rng(0), 1)
        est = estimator.estimate(draws, np.random.default_rng(1))
        local = lmmse_local_matrices(est, plan)
        exact = empirical_lsfd_moments(est, local, draws.true_channels, plan, cfg.noise_power_w)
        for k in range(2):
            np.testing.assert_allclose(moments.mean_gain[k], exact.mean_gain[k], rtol=1e-12)
            np.testing.assert_allclose(moments.denominator[k], exact.denominator[k], rtol=1e-12)


class TestStageTwo:
    def test_single_ap_cluster_returns_basis_vector(self, rng):
        pi = PiSet(pi=rng.standard_normal((3, 4, 4)) + 0j, se=np.zeros((3, 4, 4)))
        c, fallback = ltmmse_stage2(pi, np.array([1]), k=2)
        assert not fallback
        np.testing.assert_array_equal(c, np.eye(4)[None, 2])

    def test_zero_coupling_returns_basis_vectors(self):
        pi = PiSet(pi=np.zeros((2, 3, 3), dtype=complex), se=np.zeros((2, 3, 3)))
        c, fallback = ltmmse_stage2(pi, np.array([0, 1]), k=0)
        assert not fallback
        np.testing.assert_array_equal(c, np.tile(np.eye(3)[0], (2, 1)))

    def test_two_ap_system_matches_dense_solve(self, rng):
        K = 2
        pi_mats = 0.3 * (rng.standard_normal((2, K, K)) + 1j * rng.standard_normal((2, K, K)))
        pi = PiSet(pi=pi_mats, se=np.zeros((2, K, K)))
        cluster = np.array([0, 1])
        c, fallback = ltmmse_stage2(pi, cluster, k=1)
        assert not fallback

        # independent path: assemble the 4x4 system explicitly and use scipy
        dense = np.zeros((4, 4), dtype=complex)
        dense[0:2, 0:2] = np.eye(2)
        dense[0:2, 2:4] = pi_mats[1]
        dense[2:4, 0:2] = pi_mats[0]
        dense[2:4, 2:4] = np.eye(2)
        rhs = np.array([0.0, 1.0, 0.0, 1.0], dtype=complex)
        expected = scipy.linalg.solve(dense, rhs)
        np.testing.assert_allclose(c.reshape(-1), expected, rtol=1e-12)

    def test_closed_form_matches_block_solve(self, rng):
        L, K = 6, 5
        # Hermitian Pi_l with spectrum in [0, 1), as the local MMSE stage produces
        q, _ = np.linalg.qr(rng.standard_normal((L, K, K)) + 1j * rng.standard_normal((L, K, K)))
        spectrum = rng.uniform(0.0, 0.95, (L, 1, K))
        pi = PiSet(pi=(q * spectrum) @ q.conj().swapaxes(1, 2), se=np.zeros((L, K, K)))
        clusters = [[2], [0, 1], [1, 2, 3], [0, 3, 4, 5], [1, 3, 5]]
        plan = make_plan([0, 1, 0, 1, 0], clusters)

        stage2, flagged = stage2_all(pi, plan)
        assert flagged == ()
        for k, cluster in enumerate(clusters):
            block, fallback = ltmmse_stage2(pi, np.array(cluster), k)
            assert not fallback
            np.testing.assert_array_equal(np.delete(stage2[k], cluster, axis=0), 0.0)
            assert np.linalg.norm(stage2[k, cluster] - block) <= 1e-12 * np.linalg.norm(block)

    def test_cluster_sums_match_one_product(self):
        # UE 0 is served by AP 2 alone; UEs share pilots 0 and 1, pilot 2 is unused
        cfg, _, stats = build_instance(11, L=6, K=5, N=2, tau_p=3)
        plan = make_plan([0, 1, 0, 1, 0], [[2], [0, 1], [1, 2, 3], [0, 3, 4, 5], [1, 3, 5]],
                         pilot_powers=np.full(5, 0.1))
        pi, _ = statistics_pass(PilotEstimator(stats, plan, cfg), 256, 5,
                                need_pi=True, need_lsfd=False)
        stage2, flagged = stage2_all(pi, plan)
        assert flagged == ()

        # the closed form with the cluster sums as one (K, L) x (L, K K) product
        L, K = pi.pi.shape[:2]
        member = np.zeros((K, L))
        for k, cluster in enumerate(plan.cluster_of_ue):
            member[k, cluster] = 1.0
        eye = np.eye(K)
        a_inv = np.linalg.solve(eye - pi.pi, np.broadcast_to(eye, (L, K, K)))
        system = (member @ a_inv.reshape(L, K * K)).reshape(K, K, K)
        system -= (member.sum(axis=1) - 1.0)[:, None, None] * eye
        y = np.linalg.solve(system, eye[:, :, None])[:, :, 0]
        one_product = member[:, :, None] * (a_inv @ y.T).transpose(2, 0, 1)
        np.testing.assert_allclose(stage2, one_product, rtol=1e-13)

    def test_singular_coupling_takes_least_squares_fallback(self):
        # Pi_0 = Pi_1 have eigenvalue 1, so I - Pi_l is singular and so is the
        # block system of UE 0, which is served by both APs
        K = 3
        pi_mats = np.stack([np.diag([1.0, 0.3, 0.2]), np.diag([1.0, 0.3, 0.2]),
                            0.5 * np.eye(K)]).astype(complex)
        pi = PiSet(pi=pi_mats, se=np.zeros((3, K, K)))
        plan = make_plan([0, 1, 2], [[0, 1], [2], [2]])

        block, fallback = ltmmse_stage2(pi, np.array([0, 1]), k=0)
        assert fallback
        stage2, flagged = stage2_all(pi, plan)
        assert flagged == (0,)
        np.testing.assert_array_equal(stage2[0, [0, 1]], block)
        np.testing.assert_array_equal(stage2[0, 2], 0.0)
        for k in (1, 2):
            np.testing.assert_allclose(stage2[k, 2], np.eye(K)[k], atol=1e-15)

    def test_singular_ap_with_regular_block_system_takes_exact_solve(self):
        # I - Pi_0 is singular, so the closed form of UE 0, served by APs 0
        # and 2, fails; its block system has the regular Schur complement
        # I - Pi_2 Pi_0 = diag(0.5, 0.85, 0.9). AP 1, also singular, serves nobody
        K = 3
        pi_mats = np.stack([np.diag([1.0, 0.3, 0.2]), np.diag([1.0, 0.3, 0.2]),
                            0.5 * np.eye(K)]).astype(complex)
        pi = PiSet(pi=pi_mats, se=np.zeros((3, K, K)))
        plan = make_plan([0, 1, 2], [[0, 2], [2], [2]])

        block, fallback = ltmmse_stage2(pi, np.array([0, 2]), k=0)
        assert not fallback
        stage2, flagged = stage2_all(pi, plan)
        assert flagged == (0,)
        np.testing.assert_array_equal(stage2[0, [0, 2]], block)
        np.testing.assert_array_equal(stage2[0, 1], 0.0)
        for k in (1, 2):
            np.testing.assert_array_equal(np.delete(stage2[k], 2, axis=0), 0.0)
            np.testing.assert_allclose(stage2[k, 2], np.eye(K)[k], atol=1e-15)

    def test_singular_ue_system_with_regular_aps_takes_least_squares_fallback(self):
        # A_0 = 0.5 and A_1 = -1 are regular, but the UE system
        # A_0^-1 + A_1^-1 - 1 = 2 - 1 - 1 is exactly 0. The block system
        # [[1, 2], [0.5, 1]] is singular too; its least-squares solution is 0.24 (1, 2)
        pi = PiSet(pi=np.array([[[0.5]], [[2.0]]], dtype=complex), se=np.zeros((2, 1, 1)))
        stage2, flagged = stage2_all(pi, make_plan([0], [[0, 1]]))
        assert flagged == (0,)
        block, fallback = ltmmse_stage2(pi, np.array([0, 1]), k=0)
        assert fallback
        np.testing.assert_array_equal(stage2[0], block)
        np.testing.assert_allclose(stage2[0, :, 0], [0.24, 0.48], rtol=1e-12)

    def test_unit_stage_two_reduces_to_unit_lmmse(self, rng):
        est = synthetic_estimates(rng, R=3, L=2, N=2, K=3, err_scale=0.2, sigma2=0.3)
        plan = make_plan([0, 0, 0], [[0, 1], [0], [1]])
        local = lmmse_local_matrices(est, plan)
        stage2 = np.zeros((3, 2, 3), dtype=complex)
        for k, cluster in enumerate(plan.cluster_of_ue):
            stage2[k, cluster, :] = np.eye(3)[k]
        team = assemble_ltmmse(local, stage2)
        np.testing.assert_allclose(team, assemble_lmmse_lsfd(local, unit_weights(plan, 2)),
                                   atol=1e-14)


class TestSchemeEquivalences:
    def test_pure_los_team_equals_centralized(self):
        cfg, plan, stats = build_instance(3, kappa_override=np.inf)
        draws = sample_channels(stats, np.random.default_rng(1), 1)
        estimator = PilotEstimator(stats, plan, cfg)
        est = estimator.estimate(draws, np.random.default_rng(2))
        centralized = dense_mmse_combiner(est, plan)

        pi, _ = statistics_pass(estimator, 2, np.random.SeedSequence(4),
                                need_pi=True, need_lsfd=False)
        stage2, flagged = stage2_all(pi, plan)
        assert flagged == ()
        local = lmmse_local_matrices(est, plan)
        team = assemble_ltmmse(local, stage2)
        scale = np.abs(centralized).max()
        assert np.abs(team - centralized).max() < 1e-8 * scale

    def test_detection_mse_ordering_over_empirical_draws(self):
        # with all statistical quantities computed from the same finite draw
        # set, the optimality chain must hold exactly (up to solver rounding):
        # centralized <= team <= weighted local (MSE-rescaled) <= unit local
        cfg, plan, stats = build_instance(7)
        n = 40
        gen = np.random.default_rng(11)
        draws = sample_channels(stats, gen, n)
        est = PilotEstimator(stats, plan, cfg).estimate(draws, gen)
        sigma2 = cfg.noise_power_w
        powers = plan.powers_w
        local = lmmse_local_matrices(est, plan)

        centralized = dense_mmse_combiner(est, plan)
        stage2, _ = stage2_all(empirical_pi(est, local, powers), plan)
        team = assemble_ltmmse(local, stage2)
        moments = empirical_lsfd_moments(est, local, draws.true_channels, plan, sigma2)
        weights, _ = lsfd_weights(moments, plan, cfg.ap_count)
        weighted = assemble_lmmse_lsfd(local, weights)
        unit = assemble_lmmse_lsfd(local, unit_weights(plan, cfg.ap_count))

        # rescale the weighted solution to its MSE-optimal complex scale
        ghat = combined_gains(weighted, est.estimates)
        K = ghat.shape[1]
        own = np.sqrt(powers) * ghat[:, np.arange(K), np.arange(K)].mean(axis=0)
        quad = np.einsum("rlnk,lnm,rlmk->rk", weighted.conj(), est.c_matrices, weighted).real
        second = ((np.abs(ghat) ** 2) @ powers + quad).mean(axis=0)
        lam = own / second
        weighted_scaled = weighted * lam[None, None, None, :]

        # every scheme keeps its support on the serving cluster
        for vectors in (centralized, team, weighted, unit):
            for k, cluster in enumerate(plan.cluster_of_ue):
                outside = np.setdiff1d(np.arange(cfg.ap_count), cluster)
                assert np.all(vectors[:, outside, :, k] == 0)

        mse = {
            "mmse": detection_mse(centralized, est, powers),
            "team": detection_mse(team, est, powers),
            "weighted": detection_mse(weighted_scaled, est, powers),
            "unit": detection_mse(unit, est, powers),
        }
        slack = 1e-9
        assert np.all(mse["mmse"] <= mse["team"] + slack)
        assert np.all(mse["team"] <= mse["weighted"] + slack)
        assert np.all(mse["weighted"] <= mse["unit"] + slack)
