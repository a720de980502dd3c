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
    """SINR and SE from UatF moment triplets; returns (se, clamped)."""
    signal = powers * np.abs(mean_gain) ** 2                    # p_k |E g_kk|^2
    interference = mean_abs2 @ powers                           # sum_i p_i E |g_ki|^2
    noise = sigma2 * mean_vnorm2
    fluctuation = interference - signal
    clamped = fluctuation < 0.0
    denom = np.maximum(fluctuation, 0.0) + noise
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr = np.where(denom > 0.0, signal / np.where(denom > 0.0, denom, 1.0), 0.0)
    se = prelog * np.log2(1.0 + sinr)
    return se, clamped


def uatf_se(gains: np.ndarray, vnorm2: np.ndarray, powers: np.ndarray, sigma2: float,
            prelog: float) -> tuple[BoundEstimate, tuple[int, ...]]:
    """UatF bound from per-draw combined TRUE channel gains.

    `gains[r, k, i]` is the combined channel of UE i through UE k's combiner,
    `vnorm2[r, k]` the squared combiner norm. Sample means replace the
    expectations. Both moments come from the same draws, so the fluctuation
    interference - signal = p_k (mean|g_kk|^2 - |mean g_kk|^2)
    + sum_{i != k} p_i mean|g_ki|^2 is >= 0 by Jensen's inequality; only
    rounding can make it negative (a UE whose own gain is constant across
    draws). It is then clamped at zero and the UE is flagged: the second
    return value holds the clamped UEs.
    """
    R, K, _ = gains.shape
    if R < 2:
        raise ConfigError("UatF evaluation needs at least 2 draws")
    own = gains[:, np.arange(K), np.arange(K)]
    abs2 = np.abs(gains) ** 2

    def moments(own, abs2, vnorm2):
        return _uatf_from_moments(own.mean(axis=0), abs2.mean(axis=0), vnorm2.mean(axis=0),
                                  powers, sigma2, prelog)

    se_full, clamped = moments(own, abs2, vnorm2)
    ci = _batch_ci(lambda *batch: moments(*batch)[0], own, abs2, vnorm2)
    return BoundEstimate(se=se_full, ci=ci), tuple(np.flatnonzero(clamped).tolist())


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
            weights, flagged = lsfd_weights(lsfd)
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
                v = assemble_ltmmse(local, stage2_full)
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
        uatf, clamped = uatf_se(g, vnorm2, plan.powers_w, sigma2, prelog)
        cd = cd_se(gh, quad, vnorm2, plan.powers_w, sigma2, prelog)
        reports[scheme] = SeReport(
            uatf=uatf,
            cd=cd,
            clamped_ues=clamped,
            regularized_ues=regularized[scheme],
        )
    return reports
