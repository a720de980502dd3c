"""Receive combining: centralized MMSE, local MMSE + LSFD, and local team MMSE.

Three combiner families with increasing CSI centralization:

* ``LMMSE_LSFD``: each AP solves its own local MMSE problem, the decoder
  applies one statistical weight per serving AP chosen to maximize the
  use-and-then-forget SINR (a generalized Rayleigh quotient).
* ``LTMMSE``: the same local matrices followed by a statistical second stage;
  the stage-two vectors couple the APs through the expected cross-talk
  matrices Pi_l and make the pair jointly optimal among all combiners that
  use only local instantaneous CSI.
* ``MMSE``: the centralized optimum, solved on the cluster-restricted system
  (blocks outside the serving cluster are identically zero, so the full-size
  solve would be wasted work).

Statistical quantities (Pi_l, LSFD moments) are Monte Carlo estimates over a
dedicated draw budget, kept separate from the draws used for SE evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import sample_channels
from .estimation import EstimateSet, PilotEstimator
from .rng import substream
from .scenario import ServicePlan

# Draws per Monte Carlo chunk; chunk c always draws from substream(stream, c).
CHUNK = 128
# Draws per (draws, L, K, K) block of Pi cross terms in the statistics pass.
PI_BLOCK = 8


class Scheme(str, Enum):
    MMSE = "MMSE"
    LMMSE_LSFD = "LMMSE_LSFD"
    LTMMSE = "LTMMSE"


@dataclass(frozen=True)
class PiSet:
    """Expected cross-talk matrices of the local MMSE stage, per AP."""

    pi: np.ndarray           # (L, K, K) complex
    se: np.ndarray           # (L, K, K) per-entry standard error of the estimate


@dataclass(frozen=True)
class LsfdMoments:
    """Monte Carlo moments of the optimal LSFD weights, per UE k with gains g_ki = (v_lk^H h_li)_l."""

    mean_gain: tuple[np.ndarray, ...]     # f_k = E g_kk, (M_k,) complex
    denominator: tuple[np.ndarray, ...]   # D_k = sum_i p_i E g_ki g_ki^H + sigma^2 diag(E|v_lk|^2)


def mmse_combiner(est: EstimateSet, plan: ServicePlan, sigma2: float) -> np.ndarray:
    """Centralized MMSE combiner, solved per UE on its serving cluster.

    Like every combiner here it returns (draws, L, N, K) vectors whose blocks
    outside each UE's serving cluster are exactly zero.
    """
    R, L, N, K = est.estimates.shape
    sqrt_p = np.sqrt(plan.powers_w)
    vectors = np.zeros((R, L, N, K), dtype=complex)
    for k in range(K):
        cluster = plan.cluster_of_ue[k]
        M = len(cluster)
        Hc = est.estimates[:, cluster].reshape(R, M * N, K)
        system = (Hc * plan.powers_w) @ Hc.conj().swapaxes(1, 2)
        # error covariances on the diagonal (N, N) blocks, then the noise floor;
        # in place, as reshaping the freshly allocated Gram returns views
        same = np.arange(M)
        system.reshape(R, M, N, M, N)[:, same, :, same] += est.z_matrices[cluster][:, None]
        system.reshape(R, -1)[:, ::M * N + 1] += sigma2
        rhs = sqrt_p[k] * Hc[:, :, k]
        solution = np.linalg.solve(system, rhs[..., None])[..., 0]
        # mixed basic/advanced indexing puts the cluster axis first
        vectors[:, cluster, :, k] = solution.reshape(R, M, N).transpose(1, 0, 2)
    return vectors


def lmmse_local_matrices(est: EstimateSet, plan: ServicePlan, sigma2: float) -> np.ndarray:
    """Local MMSE matrices of every AP for a batch of draws, shape (draws, L, N, K).

    Column k of the (N, K) matrix of AP l is the local combiner of UE k.
    """
    scaled = est.estimates * np.sqrt(plan.powers_w)
    N = scaled.shape[-2]
    # one einsum loop: a batched matmul calls BLAS once per small (N, K) product
    system = np.einsum("rlnk,rlmk->rlnm", scaled, scaled.conj())
    system += est.z_matrices
    system += sigma2 * np.eye(N)
    return np.linalg.solve(system, scaled)


def estimated_draws(estimator: PilotEstimator, total: int, stream):
    """Yield `(draws, estimates)` for `total` draws, `CHUNK` draws at a time.

    Chunk c takes its channels and its pilot noise from `substream(stream, c)`,
    so every draw depends only on its index, never on how work is scheduled.
    """
    for c, start in enumerate(range(0, total, CHUNK)):
        gen = substream(stream, c)
        draws = sample_channels(estimator.stats, gen, min(CHUNK, total - start))
        yield draws, estimator.estimate(draws, gen)


def statistics_pass(estimator: PilotEstimator, mc: int, stream,
                    need_pi: bool, need_lsfd: bool
                    ) -> tuple[PiSet | None, LsfdMoments | None]:
    """Shared statistics sweep feeding both distributed schemes.

    Returns `(pi, lsfd)`; each is None unless requested.

    One stream of channel draws is used for every AP and both accumulation
    targets, which reduces the variance of cross-scheme comparisons. Chunk
    boundaries are fixed by draw index, so the result is independent of how
    chunks are scheduled.
    """
    plan, sigma2 = estimator.plan, estimator.cfg.noise_power_w
    K, L, N = estimator.stats.los_mean.shape
    sqrt_p = np.sqrt(plan.powers_w)

    pi_sum = np.zeros((L, K, K), dtype=complex)
    pi_sumsq = np.zeros((L, K, K))
    clusters = plan.cluster_of_ue
    f_sum = [np.zeros(len(c), dtype=complex) for c in clusters]
    d_sum = [np.zeros((len(c), len(c)), dtype=complex) for c in clusters]

    for draws, est in estimated_draws(estimator, mc, stream):
        local = lmmse_local_matrices(est, plan, sigma2)

        if need_pi:
            # cross[r, l, i, j] = sqrt(p_i) h_hat_li^H v_lj, PI_BLOCK draws at a time
            scaled_h = (est.estimates.conj() * sqrt_p).swapaxes(-1, -2)
            for start in range(0, len(local), PI_BLOCK):
                block = slice(start, start + PI_BLOCK)
                cross = scaled_h[block] @ local[block]
                pi_sum += cross.sum(axis=0)
                pi_sumsq += np.einsum("rlij,rlij->lij", cross.real, cross.real)
                pi_sumsq += np.einsum("rlij,rlij->lij", cross.imag, cross.imag)
        if need_lsfd:
            H = draws.true_channels
            for k in range(K):
                cluster = clusters[k]
                v_k = local[..., k][:, cluster]                   # (r, M, N)
                gains = (v_k.conj()[:, :, None, :] @ H[:, cluster])[:, :, 0, :]  # (r, M, K)
                f_sum[k] += gains[:, :, k].sum(axis=0)
                # K small products: one (M, r K) product would wake the OpenBLAS threads
                per_ue = np.ascontiguousarray((gains * sqrt_p).transpose(2, 1, 0))  # (K, M, r)
                d_sum[k] += (per_ue @ per_ue.conj().swapaxes(1, 2)).sum(axis=0)
                d_sum[k].flat[::len(cluster) + 1] += sigma2 * (np.abs(v_k) ** 2).sum(axis=(0, 2))

    pi = None
    if need_pi:
        mean = pi_sum / mc
        variance = np.maximum(pi_sumsq / mc - (mean.real ** 2 + mean.imag ** 2), 0.0)
        pi = PiSet(pi=mean, se=np.sqrt(variance / mc))
    lsfd = None
    if need_lsfd:
        lsfd = LsfdMoments(mean_gain=tuple(f / mc for f in f_sum),
                           denominator=tuple(d / mc for d in d_sum))
    return pi, lsfd


def lsfd_weights(moments: LsfdMoments) -> tuple[list[np.ndarray], tuple[int, ...]]:
    """Optimal LSFD weights per UE, a_k = D_k^-1 f_k, and the UEs whose
    near-singular D_k needed a ridge regularization.

    The UatF SINR p_k |a^H f_k|^2 / a^H (D_k - p_k f_k f_k^H) a is maximized by
    (D_k - p_k f_k f_k^H)^-1 f_k (Bjornson & Sanguinetti, IEEE TWC 2020), which
    by Sherman-Morrison is D_k^-1 f_k / (1 - p_k f_k^H D_k^-1 f_k). The scalar
    is real and positive as D_k - p_k f_k f_k^H > 0, and both SE bounds are
    invariant to a positive scaling of a UE's combiner.
    """
    weights: list[np.ndarray] = []
    flagged: list[int] = []
    for k, (f, denom) in enumerate(zip(moments.mean_gain, moments.denominator)):
        try:
            a = np.linalg.solve(denom, f)
            if not np.all(np.isfinite(a)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            ridge = 1e-12 * max(np.abs(np.trace(denom)), 1.0)
            a = np.linalg.solve(denom + ridge * np.eye(len(f)), f)
            flagged.append(k)
        weights.append(a)
    return weights, tuple(flagged)


def assemble_lmmse_lsfd(local: np.ndarray, weights: list[np.ndarray],
                        plan: ServicePlan) -> np.ndarray:
    """Combine local matrices with LSFD weights into full combining vectors."""
    R, L, N, K = local.shape
    weight_full = np.zeros((K, L), dtype=complex)
    for k, cluster in enumerate(plan.cluster_of_ue):
        weight_full[k, cluster] = weights[k]
    return local * weight_full.T[None, :, None, :]


def ltmmse_stage2(pi: PiSet, cluster: np.ndarray, k: int) -> tuple[np.ndarray, bool]:
    """Solve the coupled second-stage system of one UE.

    Block row l reads c_l + sum_{j != l} Pi_j c_j = e_k over the serving
    cluster. Returns the (M, K) stage-two vectors and whether a least-squares
    fallback was needed.
    """
    M = len(cluster)
    K = pi.pi.shape[1]
    system = np.empty((M * K, M * K), dtype=complex)
    eye = np.eye(K, dtype=complex)
    for a, l in enumerate(cluster):
        for b, j in enumerate(cluster):
            system[a * K:(a + 1) * K, b * K:(b + 1) * K] = eye if a == b else pi.pi[j]
    rhs = np.tile(np.eye(K, dtype=complex)[:, k], M)
    try:
        solution = np.linalg.solve(system, rhs)
        fallback = not np.all(np.isfinite(solution))
    except np.linalg.LinAlgError:
        fallback = True
    if fallback:
        solution = np.linalg.lstsq(system, rhs, rcond=None)[0]
    return solution.reshape(M, K), fallback


def assemble_ltmmse(local: np.ndarray, stage2_full: np.ndarray) -> np.ndarray:
    """Apply the statistical second stage to per-draw local matrices.

    `stage2_full` is (K, L, K) with zero rows for non-serving APs, so the
    produced vectors keep their support on the serving cluster.
    """
    return local @ stage2_full.transpose(1, 2, 0)


def _solve_each(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.linalg.solve` over stacks a (n, M, M) and b (n, M, R); also returns
    which of the n systems gave a finite solution.

    The solution of an exactly singular system is NaN; the others are the
    same as without it.
    """
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan, dtype=np.result_type(a, b))
        for i in range(len(a)):
            try:
                x[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                pass
    return x, np.isfinite(x).all(axis=tuple(range(1, x.ndim)))


def stage2_all(pi: PiSet, plan: ServicePlan) -> tuple[np.ndarray, tuple[int, ...]]:
    """Stage-two vectors for every UE, embedded in a dense (K, L, K) array.

    With A_l = I - Pi_l, the block rows c_a + sum_{b != a} Pi_b c_b = e_k of
    `ltmmse_stage2` read A_a c_a = e_k - sum_b Pi_b c_b, which has the closed
    form (Miretti, Bjornson & Gesbert, IEEE TWC 2022)

        c_a = A_a^-1 y,  (sum_{b in C_k} A_b^-1 - (|C_k| - 1) I) y = e_k.

    Pi_l is Hermitian with spectrum in [0, 1), so every A_l is positive
    definite and the K x K system is >= I. A UE whose closed form is singular
    or not finite gets the block solve of `ltmmse_stage2` instead and is
    returned among the flagged UEs.
    """
    L, K = pi.pi.shape[:2]
    clusters = plan.cluster_of_ue
    member = np.zeros((K, L))
    member[np.repeat(np.arange(K), [len(c) for c in clusters]), np.concatenate(clusters)] = 1.0
    eye = np.eye(K)

    a_inv, ap_ok = _solve_each(eye - pi.pi, np.broadcast_to(eye, (L, K, K)))
    ok = ~(member.astype(bool) & ~ap_ok).any(axis=1)
    a_inv[~ap_ok] = 0.0          # keeps their NaN out of the other UEs' sums
    # A sum per cluster, not member @ a_inv.reshape(L, K * K): that single
    # product is large enough for OpenBLAS to thread, and its worker then
    # busy-waits about 0.1 s, taking a core from the setup workers.
    system = np.stack([a_inv[c].sum(axis=0) for c in clusters])
    system -= (member.sum(axis=1) - 1.0)[:, None, None] * eye
    y, solved = _solve_each(system, eye[:, :, None])      # y[k] solves system[k] y = e_k
    ok &= solved
    full = member[:, :, None] * (a_inv @ y[:, :, 0].T).transpose(2, 0, 1)
    ok &= np.isfinite(full).all(axis=(1, 2))

    flagged = np.flatnonzero(~ok)
    for k in flagged:
        full[k] = 0.0
        full[k, clusters[k]] = ltmmse_stage2(pi, clusters[k], k)[0]
    return full, tuple(flagged.tolist())
