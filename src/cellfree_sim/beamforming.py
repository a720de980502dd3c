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
  as one K x K system per draw, and returned on the rows of the serving
  pairs only (the blocks outside each cluster are identically zero).

The local matrices and the distributed combiners are (draws, L, N, K)
arrays; the evaluation forms them `DRAW_BLOCK` draws at a time and applies
both second stages, each formed once per setup, in one broadcast product.

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
# Draws per block of the per-draw temporaries in the statistics and evaluation
# passes. A blocked product acts on each draw alone, so its bits do not depend
# on the block size; only the order in which the Pi sums add blocks does.
DRAW_BLOCK = 8


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


def mmse_combiner(est: EstimateSet, plan: ServicePlan) -> np.ndarray:
    """Centralized MMSE combiner, solved per UE on its serving cluster.

    With C_c = blockdiag(C_l) over the cluster, the push-through identity
    (Henderson & Searle, SIAM Review 1981) gives one K x K solve per draw:

        v_k = sqrt(p_k) B_c y,  B_c = C_c^-1 H_c,  (I + P H_c^H B_c) y = e_k.

    Returns the (draws, P, N) rows of the P serving pairs, in the order of
    `plan.serving_pairs`: row p is the combiner of UE ue[p] at AP ap[p].
    Outside its cluster a UE's combiner is exactly zero.
    """
    R, L, N, K = est.estimates.shape
    c_inv = np.linalg.inv(est.c_matrices)
    by_ap = est.estimates.transpose(1, 2, 0, 3)   # (L, N, R, K): one C_l^-1 product for all draws
    eye = np.eye(K)
    ue = plan.serving_pairs[1]
    rows = np.empty((R, len(ue), N), dtype=complex)
    for k, cluster in enumerate(plan.cluster_of_ue):
        Hc = by_ap[cluster]                                      # (M, N, R, K)
        Bc = (c_inv[cluster] @ Hc.reshape(len(cluster), N, -1)).reshape(-1, R, K).swapaxes(0, 1)
        gram = Hc.reshape(-1, R, K).swapaxes(0, 1).conj().swapaxes(1, 2) @ Bc
        y = np.sqrt(plan.powers_w[k]) * np.linalg.solve(eye + plan.powers_w[:, None] * gram, eye[k])
        rows[:, ue == k] = (Bc @ y[..., None]).reshape(R, -1, N)
        del Hc, Bc, gram   # free them before the next UE's are formed
    return rows


def lmmse_local_matrices(est: EstimateSet, plan: ServicePlan) -> np.ndarray:
    """Local MMSE matrices of every AP for a batch of draws, shape (draws, L, N, K).

    Column k of the (N, K) matrix of AP l is the local combiner of UE k. The
    Gram matrices and the solves are formed DRAW_BLOCK draws at a time; each
    solve acts on one matrix, so the bits do not depend on the block size.
    """
    sqrt_p = np.sqrt(plan.powers_w)
    local = np.empty(est.estimates.shape, dtype=complex)
    for start in range(0, len(local), DRAW_BLOCK):
        block = slice(start, start + DRAW_BLOCK)
        scaled = est.estimates[block] * sqrt_p
        # one einsum loop: a batched matmul calls BLAS once per small (N, K) product
        system = np.einsum("rlnk,rlmk->rlnm", scaled, scaled.conj())
        system += est.c_matrices
        local[block] = np.linalg.solve(system, scaled)
    return local


def _estimated_chunk(estimator: PilotEstimator, gen: np.random.Generator, n_draws: int):
    """`(draws, estimates)` of one chunk, drawn and estimated from `gen`."""
    draws = sample_channels(estimator.stats, gen, n_draws)
    return draws, estimator.estimate(draws, gen)


def estimated_draws(estimator: PilotEstimator, total: int, stream):
    """Yield `(draws, estimates)` for `total` draws, `CHUNK` draws at a time.

    Chunk c takes its channels and its pilot noise from `substream(stream, c)`,
    so every draw depends only on its index, never on how work is scheduled.
    The suspended generator holds no reference to the chunk it yielded, so
    the caller's references are the chunk's only ones.
    """
    for c, start in enumerate(range(0, total, CHUNK)):
        yield _estimated_chunk(estimator, substream(stream, c), min(CHUNK, total - start))


def _add_pi_moments(pi_sum: np.ndarray, pi_sumsq: np.ndarray, estimates: np.ndarray,
                    local: np.ndarray, sqrt_p: np.ndarray) -> None:
    """Add one chunk's sums of the Pi cross terms and of their squared moduli.

    cross[r, l, i, j] = sqrt(p_i) h_hat_li^H v_lj is formed DRAW_BLOCK draws at
    a time into one preallocated block, so one cross block is alive at once.
    """
    R, L, _, K = estimates.shape
    cross = np.empty((min(DRAW_BLOCK, R), L, K, K), dtype=complex)
    for start in range(0, R, DRAW_BLOCK):
        block = slice(start, start + DRAW_BLOCK)
        scaled_h = (estimates[block].conj() * sqrt_p).swapaxes(-1, -2)
        out = cross[:len(scaled_h)]
        np.matmul(scaled_h, local[block], out=out)
        pi_sum += out.sum(axis=0)
        pi_sumsq += np.einsum("rlij,rlij->lij", out.real, out.real)
        pi_sumsq += np.einsum("rlij,rlij->lij", out.imag, out.imag)


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
        local = lmmse_local_matrices(est, plan)
        if need_lsfd:
            for k in range(K):
                cluster = clusters[k]
                v_k = local[..., k][:, cluster]                   # (r, M, N)
                gains = (v_k.conj()[:, :, None, :] @ draws.true_channels[:, cluster])[:, :, 0, :]
                f_sum[k] += gains[:, :, k].sum(axis=0)
                # K small products: one (M, r K) product would wake the OpenBLAS threads
                per_ue = np.ascontiguousarray((gains * sqrt_p).transpose(2, 1, 0))  # (K, M, r)
                d_sum[k] += (per_ue @ per_ue.conj().swapaxes(1, 2)).sum(axis=0)
                d_sum[k].flat[::len(cluster) + 1] += sigma2 * (np.abs(v_k) ** 2).sum(axis=(0, 2))
        del draws   # Pi reads no true channels: free them before its cross blocks
        if need_pi:
            _add_pi_moments(pi_sum, pi_sumsq, est.estimates, local, sqrt_p)
        del est, local   # free this chunk before the next one is drawn

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


def lsfd_weights(moments: LsfdMoments, plan: ServicePlan,
                 ap_count: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Optimal LSFD weights a_k = D_k^-1 f_k, embedded in a dense (K, L) array
    with zero entries for non-serving APs, and the UEs whose near-singular D_k
    needed a ridge regularization.

    The UatF SINR p_k |a^H f_k|^2 / a^H (D_k - p_k f_k f_k^H) a is maximized by
    (D_k - p_k f_k f_k^H)^-1 f_k (Bjornson & Sanguinetti, IEEE TWC 2020), which
    by Sherman-Morrison is D_k^-1 f_k / (1 - p_k f_k^H D_k^-1 f_k). The scalar
    is real and positive as D_k - p_k f_k f_k^H > 0, and both SE bounds are
    invariant to a positive scaling of a UE's combiner. So a_k is divided by
    its largest modulus, as it scales as c^-1/2 with every power and the noise
    and the combiner's squared gains would under- or overflow at extreme c.
    """
    weights = np.zeros((len(plan.cluster_of_ue), ap_count), dtype=complex)
    flagged: list[int] = []
    for k, (cluster, f, denom) in enumerate(zip(plan.cluster_of_ue, moments.mean_gain,
                                                moments.denominator)):
        try:
            a = np.linalg.solve(denom, f)
            if not np.all(np.isfinite(a)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            ridge = 1e-12 * max(np.abs(np.trace(denom)), 1.0)
            a = np.linalg.solve(denom + ridge * np.eye(len(f)), f)
            flagged.append(k)
        largest = np.abs(a).max()
        weights[k, cluster] = a / largest if largest > 0.0 else a
    return weights, tuple(flagged)


def assemble_lmmse_lsfd(local: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weight per-draw local matrices with the (K, L) LSFD weights of `lsfd_weights`."""
    return local * weights.T[:, None, :]


def ltmmse_stage2(pi: PiSet, cluster: np.ndarray, k: int) -> tuple[np.ndarray, bool]:
    """Solve the coupled second-stage system of one UE.

    Block row l reads c_l + sum_{j != l} Pi_j c_j = e_k over the serving
    cluster. Returns the (M, K) stage-two vectors and whether a least-squares
    fallback was needed.
    """
    M = len(cluster)
    K = pi.pi.shape[1]
    blocks = np.broadcast_to(pi.pi[cluster], (M, M, K, K)).astype(complex)  # (a, b): Pi_b
    blocks[np.arange(M), np.arange(M)] = np.eye(K)
    system = blocks.swapaxes(1, 2).reshape(M * K, M * K)
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


def stage2_all(pi: PiSet, plan: ServicePlan) -> tuple[np.ndarray, tuple[int, ...]]:
    """Stage-two vectors for every UE, embedded in a dense (K, L, K) array.

    With A_l = I - Pi_l, the block rows c_a + sum_{b != a} Pi_b c_b = e_k of
    `ltmmse_stage2` read A_a c_a = e_k - sum_b Pi_b c_b, which has the closed
    form (Miretti, Bjornson & Gesbert, IEEE TWC 2022)

        c_a = A_a^-1 y,  (sum_{b in C_k} A_b^-1 - (|C_k| - 1) I) y = e_k.

    Pi_l is Hermitian with spectrum in [0, 1), so every A_l is positive
    definite and the K x K system is >= I. A singular A_l or UE system leaves
    NaN in its slot, so exactly the UEs whose closed form it enters come out
    not finite; they get the block solve of `ltmmse_stage2` instead and are
    returned among the flagged UEs.
    """
    L, K = pi.pi.shape[:2]
    clusters = plan.cluster_of_ue
    eye = np.eye(K)
    a_inv = np.full((L, K, K), np.nan, dtype=complex)
    for l in range(L):
        try:
            a_inv[l] = np.linalg.solve(eye - pi.pi[l], eye)
        except np.linalg.LinAlgError:
            pass
    y = np.full((K, K), np.nan, dtype=complex)
    for k, cluster in enumerate(clusters):
        try:
            y[k] = np.linalg.solve(a_inv[cluster].sum(axis=0) - (len(cluster) - 1) * eye, eye[k])
        except np.linalg.LinAlgError:
            pass
    c = a_inv @ y.T                                  # c[l, :, k] = A_l^-1 y_k

    ap, ue = plan.serving_pairs
    full = np.zeros((K, L, K), dtype=complex)
    full[ue, ap] = c[ap, :, ue]
    flagged = np.flatnonzero(~np.isfinite(full).all(axis=(1, 2))).tolist()
    for k in flagged:
        full[k, clusters[k]] = ltmmse_stage2(pi, clusters[k], k)[0]
    return full, tuple(flagged)
