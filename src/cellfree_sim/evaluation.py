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
from .channel import ChannelStats, sample_channels  # noqa: F401  (perfbench/tracing.py wraps it)
from .errors import ConfigError
from .estimation import EstimateSet, PilotEstimator
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


def _log_sinr(signal: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """log2(1 + signal / denom), and 0 where denom is 0."""
    positive = denom > 0.0
    return np.log2(1.0 + np.where(positive, signal / np.where(positive, denom, 1.0), 0.0))


def _uatf_from_moments(own, abs2, vnorm2, powers, sigma2, prelog):
    """UatF SE from per-draw own gains g_kk, |g_ki|^2 and ||v_k||^2, whose
    sample means replace the expectations; returns (se, clamped)."""
    signal = powers * np.abs(own.mean(axis=0)) ** 2             # p_k |E g_kk|^2
    interference = abs2.mean(axis=0) @ powers                   # sum_i p_i E |g_ki|^2
    fluctuation = interference - signal
    denom = np.maximum(fluctuation, 0.0) + sigma2 * vnorm2.mean(axis=0)
    return prelog * _log_sinr(signal, denom), fluctuation < 0.0


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
    K = gains.shape[1]
    per_draw = (gains[:, np.arange(K), np.arange(K)], np.abs(gains) ** 2, vnorm2)
    ci = _batch_ci(lambda *batch: _uatf_from_moments(*batch, powers, sigma2, prelog)[0],
                   *per_draw)
    se, clamped = _uatf_from_moments(*per_draw, powers, sigma2, prelog)
    return BoundEstimate(se=se, ci=ci), tuple(np.flatnonzero(clamped).tolist())


def cd_se(est_gains: np.ndarray, noise_quad: np.ndarray, powers: np.ndarray,
          prelog: float) -> BoundEstimate:
    """Coherent-decoding bound from per-draw ESTIMATED channel gains.

    `est_gains[r, k, i]` is the combined estimated channel, `noise_quad[r, k]`
    the noise-plus-error quadratic form v^H C v on the serving cluster. The
    per-draw log terms are averaged; expectations stay inside the log.
    """
    K = est_gains.shape[1]
    own = np.abs(est_gains[:, np.arange(K), np.arange(K)]) ** 2
    total = (np.abs(est_gains) ** 2) @ powers
    denom = np.maximum(total - powers * own, 0.0) + noise_quad
    log_terms = _log_sinr(powers * own, denom)

    def se_of(terms):
        return prelog * terms.mean(axis=0)

    return BoundEstimate(se=se_of(log_terms), ci=_batch_ci(se_of, log_terms))


def _per_draw_terms(v: np.ndarray, channels: np.ndarray, est: EstimateSet
                    ) -> tuple[np.ndarray, ...]:
    """Per-draw terms of one scheme's (draws, L, N, K) combiners `v`: gains
    g[r, k, i] = v_k^H h_i on the true `channels` and on the estimates, the
    quadratic form v_k^H C v_k and ||v_k||^2, all over the L*N antennas.

    They are formed DRAW_BLOCK draws at a time into preallocated outputs, so
    the conjugate of `v` and C v never take a whole chunk of memory.
    """
    R, L, N, K = v.shape
    gains = np.empty((R, K, K), dtype=complex)
    est_gains = np.empty((R, K, K), dtype=complex)
    quad = np.empty((R, K))
    vnorm2 = np.empty((R, K))
    H = channels.reshape(R, L * N, K)
    H_hat = est.estimates.reshape(R, L * N, K)
    for start in range(0, R, DRAW_BLOCK):
        block = slice(start, start + DRAW_BLOCK)
        v_b = v[block]
        v_h = v_b.reshape(-1, L * N, K).conj().swapaxes(1, 2)
        gains[block] = v_h @ H[block]
        est_gains[block] = v_h @ H_hat[block]
        c_v = est.c_matrices @ v_b                          # C_l v_lk per AP
        quad[block] = np.sum(v_b.real * c_v.real + v_b.imag * c_v.imag, axis=(1, 2))
        vnorm2[block] = np.sum(np.abs(v_b) ** 2, axis=(1, 2))
    return gains, est_gains, quad, vnorm2


def evaluate_schemes(stats: ChannelStats, plan: ServicePlan, cfg: AreaConfig,
                     schemes, stat_draws: int, eval_draws: int,
                     stream) -> dict[Scheme, SeReport]:
    """Run the full pipeline for several schemes on shared draws.

    `stat_draws` feed the LSFD weights and the stage-two coupling matrices;
    `eval_draws` feed the SE estimates and need 2 draws (`_batch_ci`); the
    config requires both budgets to be at least 2. Streams keyed by (role,
    chunk index) make results reproducible for any worker layout and give
    all schemes identical draws (paired comparison), from one `PilotEstimator`.
    """
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

    per_scheme: dict[Scheme, list[tuple[np.ndarray, ...]]] = {s: [] for s in schemes}
    eval_seq = subsequence(stream, ROLE_EVALUATION)
    for draws, est in estimated_draws(estimator, eval_draws, eval_seq):
        local = lmmse_local_matrices(est, plan) if need_local else None

        for scheme in schemes:
            if scheme is Scheme.MMSE:
                v = mmse_combiner(est, plan)
            elif scheme is Scheme.LMMSE_LSFD:
                v = assemble_lmmse_lsfd(local, weights, plan)
            else:
                v = assemble_ltmmse(local, stage2_full)
            per_scheme[scheme].append(_per_draw_terms(v, draws.true_channels, est))
            del v   # free this combiner before the next scheme builds its own
        del draws, est, local   # free this chunk before the next one is drawn

    reports = {}
    for scheme, chunks in per_scheme.items():
        gains, est_gains, quad, vnorm2 = (np.concatenate(field) for field in zip(*chunks))
        uatf, clamped = uatf_se(gains, vnorm2, plan.powers_w, sigma2, prelog)
        cd = cd_se(est_gains, quad, plan.powers_w, prelog)
        reports[scheme] = SeReport(
            uatf=uatf,
            cd=cd,
            clamped_ues=clamped,
            regularized_ues=regularized[scheme],
        )
    return reports
