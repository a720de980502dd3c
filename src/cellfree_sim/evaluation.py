"""Monte Carlo spectral-efficiency evaluation.

Two ergodic lower bounds are computed per UE, both with expectations taken
over channel and noise realizations at fixed LoS phases:

* use-and-then-forget (UatF): the mean combined gain acts as the known
  channel, all fluctuation counts as noise. Needs only first and second
  moments of the combined true channels.
* coherent decoding (CD): the decoder knows the estimated channels, so the
  rate is the average of per-draw log terms with an estimation-error penalty.

Both bounds carry the pilot-overhead prelog (tau_c - tau_p) / tau_c.
Confidence intervals come from batch means: draws are split into fixed
batches by draw index, the statistic is recomputed per batch, and the spread
of the batch values scales the reported halfwidth.

`error_statistics_check` checks the estimator's moments by Monte Carlo on
the same draw pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamforming import (
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
from .channel import ChannelStats, sample_channels  # noqa: F401  (perfbench/tracing.py wraps it)
from .errors import ConfigError
from .estimation import PilotEstimator
from .rng import ROLE_EVALUATION, ROLE_STATISTICS, subsequence
from .scenario import AreaConfig, ServicePlan

# Batch-means batches behind every confidence interval.
N_BATCHES = 10


@dataclass(frozen=True)
class BoundEstimate:
    """Per-UE spectral efficiencies of one bound with batch diagnostics."""

    se: np.ndarray            # (K,) bits/s/Hz
    ci: np.ndarray            # (K,) 95% halfwidth from batch means


@dataclass(frozen=True)
class SeReport:
    """Evaluation result of one scheme on one setup."""

    uatf: BoundEstimate
    cd: BoundEstimate
    clamped_ues: tuple[int, ...] = ()
    regularized_ues: tuple[int, ...] = ()


def _batch_ci(se_of, *per_draw: np.ndarray) -> np.ndarray:
    """95% halfwidth by batch means: `se_of(*batch)` on each of B = min(N_BATCHES, R)
    batches of the per-draw arrays, where draw r falls in batch floor(r B / R)."""
    R = len(per_draw[0])
    B = min(N_BATCHES, R)
    batch = np.arange(R) * B // R
    # masked copies, not slices: a batch then sums in one order whatever the input layout
    se_batches = np.array([se_of(*(a[batch == b] for a in per_draw)) for b in range(B)])
    return 1.96 * np.std(se_batches, axis=0, ddof=1) / np.sqrt(B)


def _uatf_from_moments(mean_gain, mean_abs2, mean_vnorm2, powers, sigma2, prelog):
    """SINR and SE from UatF moment triplets; returns (se, parts, clamped)."""
    signal = powers * np.abs(mean_gain) ** 2                    # p_k |E g_kk|^2
    interference = mean_abs2 @ powers                           # sum_i p_i E |g_ki|^2
    noise = sigma2 * mean_vnorm2
    fluctuation = interference - signal
    clamped = fluctuation < 0.0
    denom = np.maximum(fluctuation, 0.0) + noise
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr = np.where(denom > 0.0, signal / np.where(denom > 0.0, denom, 1.0), 0.0)
    se = prelog * np.log2(1.0 + sinr)
    return se, (signal, interference, noise), clamped


def uatf_se(gains: np.ndarray, vnorm2: np.ndarray, powers: np.ndarray, sigma2: float,
            prelog: float) -> tuple[BoundEstimate, dict]:
    """UatF bound from per-draw combined TRUE channel gains.

    `gains[r, k, i]` is the combined channel of UE i through UE k's combiner,
    `vnorm2[r, k]` the squared combiner norm. Sample means replace the
    expectations. Both moments come from the same draws, so the fluctuation
    interference - signal = p_k (mean|g_kk|^2 - |mean g_kk|^2)
    + sum_{i != k} p_i mean|g_ki|^2 is >= 0 by Jensen's inequality; only
    rounding can make it negative (a UE whose own gain is constant across
    draws). It is then clamped at zero and the UE is flagged.
    """
    R, K, _ = gains.shape
    if R < 2:
        raise ConfigError("UatF evaluation needs at least 2 draws")
    own = gains[:, np.arange(K), np.arange(K)]
    abs2 = np.abs(gains) ** 2

    def moments(own, abs2, vnorm2):
        return _uatf_from_moments(own.mean(axis=0), abs2.mean(axis=0), vnorm2.mean(axis=0),
                                  powers, sigma2, prelog)

    se_full, parts, clamped = moments(own, abs2, vnorm2)
    ci = _batch_ci(lambda *batch: moments(*batch)[0], own, abs2, vnorm2)
    extras = dict(zip(("signal", "interference", "noise"), parts),
                  clamped_ues=tuple(np.flatnonzero(clamped).tolist()))
    return BoundEstimate(se=se_full, ci=ci), extras


def cd_se(est_gains: np.ndarray, err_quad: np.ndarray, vnorm2: np.ndarray,
          powers: np.ndarray, sigma2: float, prelog: float) -> BoundEstimate:
    """Coherent-decoding bound from per-draw ESTIMATED channel gains.

    `est_gains[r, k, i]` is the combined estimated channel, `err_quad[r, k]`
    the estimation-error quadratic form v^H Z v on the serving cluster. The
    per-draw log terms are averaged; expectations stay inside the log.
    """
    K = est_gains.shape[1]
    own = np.abs(est_gains[:, np.arange(K), np.arange(K)]) ** 2
    total = (np.abs(est_gains) ** 2) @ powers
    denom = np.maximum(total - powers * own, 0.0) + err_quad + sigma2 * vnorm2
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr = np.where(denom > 0.0, powers * own / np.where(denom > 0.0, denom, 1.0), 0.0)
    log_terms = np.log2(1.0 + sinr)

    def se_of(terms):
        return prelog * terms.mean(axis=0)

    return BoundEstimate(se=se_of(log_terms), ci=_batch_ci(se_of, log_terms))


def evaluate_schemes(stats: ChannelStats, plan: ServicePlan, cfg: AreaConfig,
                     schemes, stat_draws: int, eval_draws: int,
                     stream) -> dict[Scheme, SeReport]:
    """Run the full pipeline for several schemes on shared draws.

    `stat_draws` feed the LSFD weights and the stage-two coupling matrices;
    `eval_draws` feed the SE estimates. Both budgets must be at least 2 and
    use draw streams keyed by (role, chunk index), so results are
    reproducible for any worker layout, and all schemes see identical draws
    (paired comparison). One `PilotEstimator` serves both budgets.
    """
    if stat_draws < 2 or eval_draws < 2:
        raise ConfigError("draw budgets must be at least 2")
    schemes = [Scheme(s) for s in schemes]
    prelog = (cfg.coherence_symbols - cfg.pilot_count) / cfg.coherence_symbols
    sigma2 = cfg.noise_power_w

    need_lsfd = Scheme.LMMSE_LSFD in schemes
    need_pi = Scheme.LTMMSE in schemes
    need_local = need_lsfd or need_pi
    estimator = PilotEstimator(stats, plan, cfg)
    weights = stage2_full = None
    regularized: dict[Scheme, tuple[int, ...]] = {s: () for s in schemes}
    if need_local:
        pi, lsfd = statistics_pass(
            estimator, stat_draws, subsequence(stream, ROLE_STATISTICS),
            need_pi=need_pi, need_lsfd=need_lsfd,
        )
        if need_lsfd:
            weights, flagged = lsfd_weights(lsfd, plan.powers_w, sigma2)
            regularized[Scheme.LMMSE_LSFD] = flagged
        if need_pi:
            stage2_full, flagged = stage2_all(pi, plan)
            regularized[Scheme.LTMMSE] = flagged

    gains = {s: [] for s in schemes}
    est_gains = {s: [] for s in schemes}
    quads = {s: [] for s in schemes}
    vnorms = {s: [] for s in schemes}

    eval_seq = subsequence(stream, ROLE_EVALUATION)
    for draws, est in estimated_draws(estimator, eval_draws, eval_seq):
        R, L, N, K = est.estimates.shape
        local = lmmse_local_matrices(est, plan, sigma2) if need_local else None

        for scheme in schemes:
            if scheme is Scheme.MMSE:
                v = mmse_combiner(est, plan, sigma2)
            elif scheme is Scheme.LMMSE_LSFD:
                v = assemble_lmmse_lsfd(local, weights, plan)
            else:
                v = assemble_ltmmse(local, stage2_full, plan)
            # gains[r, k, i] = v_k^H h_i over all L*N antennas
            v_h = v.reshape(R, L * N, K).conj().swapaxes(1, 2)
            gains[scheme].append(v_h @ draws.true_channels.reshape(R, L * N, K))
            est_gains[scheme].append(v_h @ est.estimates.reshape(R, L * N, K))
            z_v = est.z_matrices @ v                       # Z_l v_lk per AP
            quads[scheme].append(np.sum(v.real * z_v.real + v.imag * z_v.imag, axis=(1, 2)))
            vnorms[scheme].append(np.sum(np.abs(v) ** 2, axis=(1, 2)))

    reports = {}
    for scheme in schemes:
        g = np.concatenate(gains[scheme])
        gh = np.concatenate(est_gains[scheme])
        quad = np.concatenate(quads[scheme])
        vnorm2 = np.concatenate(vnorms[scheme])
        uatf, extras = uatf_se(g, vnorm2, plan.powers_w, sigma2, prelog)
        cd = cd_se(gh, quad, vnorm2, plan.powers_w, sigma2, prelog)
        reports[scheme] = SeReport(
            uatf=uatf,
            cd=cd,
            clamped_ues=extras["clamped_ues"],
            regularized_ues=regularized[scheme],
        )
    return reports


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
