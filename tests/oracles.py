"""Test oracles: independent checks that the shipped code is measured against.

`error_statistics_check` checks the estimator's moments by Monte Carlo on the
same draw pipeline the engine uses; `mmse_cluster_solve` is the centralized
MMSE combiner by the direct M N x M N solve that `beamforming.mmse_combiner`
replaces with a K x K one; `wrapped_distance` is the scalar wrap-around
distance that `scenario.deploy` computes for every pair at once.

The whole-chunk forms (`mmse_combiner_all_rows`, `sample_channels_whole_chunk`,
`estimate_per_ue_innovation`, `lmmse_local_whole_chunk`) are the producers as
they were before each was cut down to at most three chunk-sized arrays; the
shipped ones must match them bit for bit. `densify` (and `dense_mmse_combiner`
on top of it) turns the MMSE combiner's serving-pair rows back into one
(draws, L, N, K) array. `per_draw_uatf_se` and `per_draw_cd_se` are the two
bounds as functions of every draw's gains (`per_draw_products`), and
`masked_batch_ci` recomputes each on a masked copy of every batch, as they
were before the evaluation summed its terms into one table per scheme: the
table's batch rows must give the same CIs bit for bit. None is on the path of
`run_experiment`, so all live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from cellfree_sim.beamforming import estimated_draws, mmse_combiner
from cellfree_sim.channel import ChannelStats
from cellfree_sim.errors import ConfigError
from cellfree_sim.estimation import EstimateSet, PilotEstimator
from cellfree_sim.evaluation import N_BATCHES, BoundEstimate, _log_sinr
from cellfree_sim.scenario import ServicePlan

# Offsets of the 9 mirror copies of a point on the wrapped square.
MIRROR_SHIFTS = np.array([(i, j) for i in (-1.0, 0.0, 1.0) for j in (-1.0, 0.0, 1.0)])


@dataclass(frozen=True)
class EstimationDiagnostics:
    """Empirical consistency report for the estimator on one setup."""

    max_mean_dev_se: float      # worst |emp. mean - phased LoS| in standard errors
    max_errcov_dev_se: float    # worst error-covariance entry deviation in standard errors
    max_cross_dev_se: float     # worst estimate/error cross-covariance entry in standard errors
    copilot_pairs: tuple[tuple[int, int], ...]
    copilot_estimate_corr: tuple[float, ...]  # shared-pilot estimate correlation per pair

    def within(self, se_limit: float = 5.0) -> bool:
        return max(self.max_mean_dev_se, self.max_errcov_dev_se, self.max_cross_dev_se) <= se_limit


def error_statistics_check(estimator: PilotEstimator, n_draws: int, stream,
                           min_draws: int = 10_000) -> EstimationDiagnostics:
    """Monte Carlo check of the estimator's first and second moments.

    Verifies that estimates average to the phased LoS mean, that the
    estimation error has the predicted covariance, and that estimate and
    error are empirically uncorrelated. Deviations are reported in standard
    errors of the corresponding empirical moment. Copilot estimate
    correlation is reported separately: it is expected, not a defect. The
    draws come from `estimated_draws(estimator, n_draws, stream)`, where
    `stream` is a seed or a SeedSequence.
    """
    if n_draws < min_draws:
        raise ConfigError(f"need at least {min_draws} draws for stable diagnostics")
    stats, plan = estimator.stats, estimator.plan
    K, L, N = stats.los_mean.shape
    phased = stats.los_mean.transpose(1, 2, 0)           # (L, N, K)

    sum_est = np.zeros((L, N, K), dtype=complex)
    sumsq_est = np.zeros((L, N, K))
    sum_err = np.zeros((L, N, K), dtype=complex)
    sum_err_outer = np.zeros((K, L, N, N), dtype=complex)
    sumsq_err_outer = np.zeros((K, L, N, N))
    sum_cross = np.zeros((K, L, N, N), dtype=complex)
    sumsq_cross = np.zeros((K, L, N, N))
    sum_innov_outer = np.zeros((K, L, N, N), dtype=complex)
    pilot = plan.pilot_of_ue
    pairs = [(k, i) for k in range(K) for i in range(k + 1, K) if pilot[k] == pilot[i]]
    sum_pair = np.zeros((max(len(pairs), 1), L, N, N), dtype=complex)

    for draws, est in estimated_draws(estimator, n_draws, stream):
        err = draws.true_channels - est.estimates        # (r, L, N, K)
        innov = est.estimates - phased[None]

        sum_est += est.estimates.sum(axis=0)
        sumsq_est += (np.abs(est.estimates) ** 2).sum(axis=0)
        sum_err += err.sum(axis=0)
        sum_err_outer += np.einsum("rlnk,rlmk->klnm", err, err.conj())
        sumsq_err_outer += np.einsum("rlnk,rlmk->klnm", np.abs(err) ** 2, np.abs(err) ** 2)
        sum_cross += np.einsum("rlnk,rlmk->klnm", est.estimates, err.conj())
        sumsq_cross += np.einsum("rlnk,rlmk->klnm", np.abs(est.estimates) ** 2, np.abs(err) ** 2)
        sum_innov_outer += np.einsum("rlnk,rlmk->klnm", innov, innov.conj())
        for p, (k, i) in enumerate(pairs):
            sum_pair[p] += np.einsum("rln,rlm->lnm", innov[:, :, :, k], innov[:, :, :, i].conj())

    def se_ratio(dev, second_moment, first_moment):
        variance = np.maximum(second_moment / n_draws - np.abs(first_moment / n_draws) ** 2, 0.0)
        se = np.sqrt(variance / n_draws)
        scale = max(float(np.abs(first_moment).max()) / n_draws, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(se > 0, dev / se, np.where(dev > 1e-9 * scale, np.inf, 0.0))
        return float(ratio.max())

    mean_est = sum_est / n_draws
    mean_dev = np.abs(mean_est - phased)
    max_mean = se_ratio(mean_dev, sumsq_est, sum_est)

    mean_err = sum_err / n_draws
    emp_err_cov = sum_err_outer / n_draws - np.einsum(
        "lnk,lmk->klnm", mean_err, mean_err.conj()
    )
    target = estimator.err_cov
    max_errcov = se_ratio(np.abs(emp_err_cov - target), sumsq_err_outer, sum_err_outer)

    emp_cross = sum_cross / n_draws - np.einsum("lnk,lmk->klnm", mean_est, mean_err.conj())
    max_cross = se_ratio(np.abs(emp_cross), sumsq_cross, sum_cross)

    self_norm = np.linalg.norm(sum_innov_outer / n_draws, axis=(2, 3))  # (K, L)
    corr = []
    for p, (k, i) in enumerate(pairs):
        cross_norm = np.linalg.norm(sum_pair[p] / n_draws, axis=(1, 2))  # (L,)
        denom = np.sqrt(self_norm[k] * self_norm[i])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(denom > 0, cross_norm / denom, 0.0)
        corr.append(float(ratios.max()))

    return EstimationDiagnostics(
        max_mean_dev_se=max_mean,
        max_errcov_dev_se=max_errcov,
        max_cross_dev_se=max_cross,
        copilot_pairs=tuple(pairs),
        copilot_estimate_corr=tuple(corr),
    )


def mmse_cluster_solve(est: EstimateSet, plan: ServicePlan) -> np.ndarray:
    """Centralized MMSE combiners v_k = sqrt(p_k) (H_c P H_c^H + C_c)^-1 h_k,
    one M N x M N solve per draw on UE k's cluster of M APs, where
    C_c = blockdiag(C_l) over the cluster. Returns (draws, L, N, K) vectors
    that are zero outside each cluster.
    """
    R, L, N, K = est.estimates.shape
    vectors = np.zeros((R, L, N, K), dtype=complex)
    for k, cluster in enumerate(plan.cluster_of_ue):
        M = len(cluster)
        Hc = est.estimates[:, cluster].reshape(R, M * N, K)
        system = (Hc * plan.powers_w) @ Hc.conj().swapaxes(1, 2)
        system += scipy.linalg.block_diag(*est.c_matrices[cluster])
        rhs = np.sqrt(plan.powers_w[k]) * Hc[:, :, k]
        solution = np.linalg.solve(system, rhs[..., None])[..., 0]
        vectors[:, cluster, :, k] = solution.reshape(R, M, N).transpose(1, 0, 2)
    return vectors


def masked_batch_ci(se_of, *per_draw: np.ndarray) -> np.ndarray:
    """95% halfwidth by batch means: `se_of(*batch)` on each of B = min(N_BATCHES, R)
    batches of the per-draw arrays, where draw r falls in batch floor(r B / R).
    The spread over batches needs R >= 2."""
    R = len(per_draw[0])
    if R < 2:
        raise ConfigError("SE evaluation needs at least 2 draws")
    B = min(N_BATCHES, R)
    batch = np.arange(R) * B // R
    # masked copies, not slices: a batch then sums in one order whatever the input layout
    se_batches = np.array([se_of(*(a[batch == b] for a in per_draw)) for b in range(B)])
    return 1.96 * np.std(se_batches, axis=0, ddof=1) / np.sqrt(B)


def per_draw_uatf_moments(own, abs2, vnorm2, powers, sigma2, prelog):
    """UatF SE from per-draw own gains g_kk, |g_ki|^2 and ||v_k||^2, whose
    sample means replace the expectations; returns (se, clamped)."""
    signal = powers * np.abs(own.mean(axis=0)) ** 2             # p_k |E g_kk|^2
    interference = abs2.mean(axis=0) @ powers                   # sum_i p_i E |g_ki|^2
    fluctuation = interference - signal
    denom = np.maximum(fluctuation, 0.0) + sigma2 * vnorm2.mean(axis=0)
    return prelog * _log_sinr(signal, denom), fluctuation < 0.0


def per_draw_uatf_se(gains: np.ndarray, vnorm2: np.ndarray, powers: np.ndarray, sigma2: float,
                     prelog: float) -> tuple[BoundEstimate, tuple[int, ...]]:
    """UatF bound from per-draw combined TRUE channel gains `gains[r, k, i]` (UE i
    through UE k's combiner) and squared combiner norms `vnorm2[r, k]`; the
    second return value holds the UEs whose fluctuation was clamped at zero."""
    K = gains.shape[1]
    per_draw = (gains[:, np.arange(K), np.arange(K)], np.abs(gains) ** 2, vnorm2)
    ci = masked_batch_ci(lambda *batch: per_draw_uatf_moments(*batch, powers, sigma2, prelog)[0],
                         *per_draw)
    se, clamped = per_draw_uatf_moments(*per_draw, powers, sigma2, prelog)
    return BoundEstimate(se=se, ci=ci), tuple(np.flatnonzero(clamped).tolist())


def per_draw_products(v: np.ndarray, channels: np.ndarray, est: EstimateSet
                      ) -> tuple[np.ndarray, ...]:
    """Per-draw gains g[r, k, i] = v_k^H h_i of the (draws, L, N, K) combiners
    `v` on the true `channels` and on the estimates, the quadratic forms
    v_k^H C v_k and ||v_k||^2, all over the L*N antennas, for all draws at once."""
    R, L, N, K = v.shape
    v_h = v.reshape(R, L * N, K).conj().swapaxes(1, 2)
    gains = v_h @ channels.reshape(R, L * N, K)
    est_gains = v_h @ est.estimates.reshape(R, L * N, K)
    c_v = est.c_matrices @ v                            # C_l v_lk per AP
    quad = np.sum(v.real * c_v.real + v.imag * c_v.imag, axis=(1, 2))
    vnorm2 = np.sum(np.abs(v) ** 2, axis=(1, 2))
    return gains, est_gains, quad, vnorm2


def cd_log_terms(est_gains: np.ndarray, noise_quad: np.ndarray,
                 powers: np.ndarray) -> np.ndarray:
    """Per-draw CD log2(1 + SINR) from the combined ESTIMATED channels
    `est_gains[r, k, i]` and the noise-plus-error quadratic forms `noise_quad[r, k]`."""
    K = est_gains.shape[1]
    own = np.abs(est_gains[:, np.arange(K), np.arange(K)]) ** 2
    total = (np.abs(est_gains) ** 2) @ powers
    denom = np.maximum(total - powers * own, 0.0) + noise_quad
    return _log_sinr(powers * own, denom)


def per_draw_cd_se(est_gains: np.ndarray, noise_quad: np.ndarray, powers: np.ndarray,
                   prelog: float) -> BoundEstimate:
    """Coherent-decoding bound: the per-draw log terms averaged, expectations
    inside the log."""
    log_terms = cd_log_terms(est_gains, noise_quad, powers)

    def se_of(terms):
        return prelog * terms.mean(axis=0)

    return BoundEstimate(se=se_of(log_terms), ci=masked_batch_ci(se_of, log_terms))


def densify(rows: np.ndarray, plan: ServicePlan, ap_count: int) -> np.ndarray:
    """(draws, L, N, K) combiners from the (draws, P, N) rows of the serving
    pairs, exactly zero outside each UE's serving cluster."""
    R, _, N = rows.shape
    ap, ue = plan.serving_pairs
    dense = np.zeros((R, ap_count, N, len(plan.cluster_of_ue)), dtype=complex)
    dense[:, ap, :, ue] = rows.swapaxes(0, 1)
    return dense


def dense_mmse_combiner(est: EstimateSet, plan: ServicePlan) -> np.ndarray:
    """`mmse_combiner` as one (draws, L, N, K) array."""
    return densify(mmse_combiner(est, plan), plan, est.estimates.shape[1])


def mmse_combiner_all_rows(est: EstimateSet, plan: ServicePlan) -> np.ndarray:
    """The K x K push-through MMSE combiner written straight into a dense
    (draws, L, N, K) array, zero outside each cluster."""
    R, L, N, K = est.estimates.shape
    c_inv = np.linalg.inv(est.c_matrices)
    by_ap = est.estimates.transpose(1, 2, 0, 3)
    eye = np.eye(K)
    vectors = np.zeros((R, L, N, K), dtype=complex)
    for k, cluster in enumerate(plan.cluster_of_ue):
        Hc = by_ap[cluster]
        Bc = (c_inv[cluster] @ Hc.reshape(len(cluster), N, -1)).reshape(-1, R, K).swapaxes(0, 1)
        gram = Hc.reshape(-1, R, K).swapaxes(0, 1).conj().swapaxes(1, 2) @ Bc
        y = np.sqrt(plan.powers_w[k]) * np.linalg.solve(eye + plan.powers_w[:, None] * gram, eye[k])
        vectors[:, cluster, :, k] = (Bc @ y[..., None]).reshape(R, -1, N).swapaxes(0, 1)
    return vectors


def sample_channels_whole_chunk(stats: ChannelStats, rng: np.random.Generator,
                                n_draws: int) -> np.ndarray:
    """Channel draws (draws, L, N, K) from z = (a + 1j b) sqrt(1/2), both normal
    arrays drawn whole and summed into a third."""
    K, L, N = stats.los_mean.shape
    z = rng.standard_normal((n_draws, K, L, N)) + 1j * rng.standard_normal((n_draws, K, L, N))
    z *= np.sqrt(0.5)
    channels = stats.cov_factor @ z.transpose(1, 2, 3, 0)
    channels += stats.los_mean[..., None]
    return np.ascontiguousarray(channels.transpose(3, 1, 2, 0))


def estimate_per_ue_innovation(estimator: PilotEstimator, channels: np.ndarray,
                               rng: np.random.Generator) -> np.ndarray:
    """Estimates (draws, L, N, K) from a chunk-sized copy of each UE's pilot
    innovation and one product over all UEs."""
    R, L, N = channels.shape[:3]
    tau_p = estimator.cfg.pilot_count
    received = estimator._pilot_sums(channels)
    noise = np.sqrt(0.5 * estimator.cfg.noise_power_w * tau_p) * (
        rng.standard_normal((R, tau_p, L, N)) + 1j * rng.standard_normal((R, tau_p, L, N))
    )
    innovation = received + noise.transpose(0, 2, 3, 1) - estimator._mean_received
    per_ue = innovation[..., estimator.plan.pilot_of_ue]
    estimates = estimator.gain @ per_ue.transpose(3, 1, 2, 0)
    estimates += estimator.stats.los_mean[..., None]
    return np.ascontiguousarray(estimates.transpose(3, 1, 2, 0))


def lmmse_local_whole_chunk(est: EstimateSet, plan: ServicePlan) -> np.ndarray:
    """Local MMSE matrices (draws, L, N, K) from one Gram and one solve over
    the whole chunk."""
    scaled = est.estimates * np.sqrt(plan.powers_w)
    system = np.einsum("rlnk,rlmk->rlnm", scaled, scaled.conj())
    system += est.c_matrices
    return np.linalg.solve(system, scaled)


def wrapped_distance(a, b, side: float, dh: float) -> float:
    """3-D distance between ground positions `a` and `b` on the wrapped square.

    Returns min over the 9 mirror copies of `b` of sqrt(|a - b'|^2 + dh^2).
    A zero side collapses all copies onto `b` itself.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if side < 0:
        raise ConfigError("side must be >= 0")
    diff = a - (b + MIRROR_SHIFTS * side)
    planar_sq = np.min(np.sum(diff**2, axis=-1))
    return float(np.sqrt(planar_sq + dh**2))
