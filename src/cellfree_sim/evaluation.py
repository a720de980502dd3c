"""Monte Carlo spectral-efficiency evaluation.

Two ergodic lower bounds are computed per UE, both with expectations taken
over channel and noise realizations at fixed LoS phases:

* use-and-then-forget (UatF): the mean combined gain acts as the known
  channel, all fluctuation counts as noise. Needs only first and second
  moments of the combined true channels.
* coherent decoding (CD): the decoder knows the estimated channels, so the
  rate is the average of per-draw log terms with an estimation-error penalty.

Both bounds carry the pilot-overhead prelog (tau_c - tau_p) / tau_c.
Confidence intervals come from batch means: one table per scheme sums the
per-draw terms over fixed batches of draws and over all draws, each bound is
a function of its rows, and the spread of its batch values scales the halfwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

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

    @classmethod
    def from_rows(cls, se: np.ndarray, count: np.ndarray) -> BoundEstimate:
        """The bound of a table's (B + 1, K) per-row SEs and per-row draw counts: the total
        row's SE, and the 95% halfwidth from the spread of the B batch rows (2 draws or more)."""
        if count[-1] < 2:
            raise ConfigError("SE evaluation needs at least 2 draws")
        return cls(se=se[-1], ci=1.96 * np.std(se[:-1], axis=0, ddof=1) / np.sqrt(len(se) - 1))


@dataclass(frozen=True)
class SeReport:
    """Evaluation result of one scheme on one setup."""

    uatf: BoundEstimate
    cd: BoundEstimate
    clamped_ues: tuple[int, ...] = ()
    regularized_ues: tuple[int, ...] = ()


class BatchSums(NamedTuple):
    """One scheme's per-draw terms by batch (Law, *Simulation Modeling and
    Analysis*): of R draws, row b < B = min(N_BATCHES, R) sums those with
    floor(r B / R) = b and row B all R, each added draw by draw in draw order."""

    count: np.ndarray       # (B + 1,) draws
    own: np.ndarray         # (B + 1, K) g_kk on the true channels
    abs2: np.ndarray        # (B + 1, K, K) |g_ki|^2 on the true channels
    vnorm2: np.ndarray      # (B + 1, K) ||v_k||^2
    log_term: np.ndarray    # (B + 1, K) the CD log2(1 + SINR)

    @classmethod
    def zeros(cls, R: int, K: int) -> BatchSums:
        rows = min(N_BATCHES, R) + 1
        return cls(np.zeros(rows), np.zeros((rows, K), dtype=complex), np.zeros((rows, K, K)),
                   np.zeros((rows, K)), np.zeros((rows, K)))

    def add(self, first: int, R: int, *terms: np.ndarray) -> None:
        """Add the per-draw terms (own, abs2, vnorm2, log_term) of draws first, ... of R."""
        r = np.arange(first, first + len(terms[0]))
        B = len(self.count) - 1
        rows = np.stack([r * B // R, np.full(len(r), B)], axis=1)
        for sums, term in zip(self, (np.ones(len(r)), *terms)):
            np.add.at(sums, rows, term[:, None])


def _log_sinr(signal: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """log2(1 + signal / denom), and 0 where denom is 0."""
    positive = denom > 0.0
    return np.log2(1.0 + np.where(positive, signal / np.where(positive, denom, 1.0), 0.0))


def uatf_se(sums: BatchSums, powers: np.ndarray, sigma2: float,
            prelog: float) -> tuple[BoundEstimate, tuple[int, ...]]:
    """UatF bound from the table's combined TRUE channel gains g_ki (UE i through
    UE k's combiner) and combiner norms, each row's sample means in place of the
    expectations: the total row gives the SE, the batch rows the CI.

    Both moments come from the same draws, so the fluctuation interference -
    signal = p_k (mean|g_kk|^2 - |mean g_kk|^2) + sum_{i != k} p_i mean|g_ki|^2
    is >= 0 by Jensen's inequality; only rounding can make it negative (a UE
    whose own gain is constant across draws). It is then clamped at zero and
    the UE is flagged: the second return value holds the UEs clamped on the
    total row.
    """
    count = sums.count[:, None]
    signal = powers * np.abs(sums.own / count) ** 2                  # p_k |E g_kk|^2
    interference = (sums.abs2 / count[..., None]) @ powers          # sum_i p_i E |g_ki|^2
    fluctuation = interference - signal
    denom = np.maximum(fluctuation, 0.0) + sigma2 * (sums.vnorm2 / count)
    se = prelog * _log_sinr(signal, denom)
    return (BoundEstimate.from_rows(se, sums.count),
            tuple(np.flatnonzero(fluctuation[-1] < 0.0).tolist()))


def cd_se(sums: BatchSums, prelog: float) -> BoundEstimate:
    """Coherent-decoding bound from the table's per-draw log terms: each row's
    mean log term, so expectations stay inside the log."""
    se = prelog * (sums.log_term / sums.count[:, None])
    return BoundEstimate.from_rows(se, sums.count)


def _per_draw_terms(v: np.ndarray, channels: np.ndarray, est: EstimateSet,
                    powers: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-draw table terms of one scheme's (draws, L, N, K) combiners `v`, over
    the L*N antennas: g_kk and |g_ki|^2 of the gains g[r, k, i] = v_k^H h_i on
    the true `channels`, ||v_k||^2, and the CD log2(1 + SINR) from the gains on
    the estimates and the noise-plus-error quadratic form v_k^H C v_k.

    The evaluation calls it on one DRAW_BLOCK of draws at a time, so the
    conjugate of `v` and C v never take a whole chunk of memory.
    """
    R, L, N, K = v.shape
    v_h = v.reshape(R, L * N, K).conj().swapaxes(1, 2)
    gains = v_h @ channels.reshape(R, L * N, K)
    est_gains = v_h @ est.estimates.reshape(R, L * N, K)
    c_v = est.c_matrices @ v                            # C_l v_lk per AP
    quad = np.sum(v.real * c_v.real + v.imag * c_v.imag, axis=(1, 2))
    est_own = np.abs(np.diagonal(est_gains, axis1=1, axis2=2)) ** 2
    denom = np.maximum((np.abs(est_gains) ** 2) @ powers - powers * est_own, 0.0) + quad
    return (np.diagonal(gains, axis1=1, axis2=2), np.abs(gains) ** 2,
            np.sum(np.abs(v) ** 2, axis=(1, 2)), _log_sinr(powers * est_own, denom))


def evaluate_schemes(stats: ChannelStats, plan: ServicePlan, cfg: AreaConfig,
                     schemes, stat_draws: int, eval_draws: int,
                     stream) -> dict[Scheme, SeReport]:
    """Run the full pipeline for several schemes on shared draws.

    `stat_draws` feed the LSFD weights and the stage-two coupling matrices;
    `eval_draws` feed the SE estimates and need 2 draws (the batch spread);
    the config requires both budgets to be at least 2. Streams keyed by (role,
    chunk index) make results reproducible for any worker layout and give
    all schemes identical draws (paired comparison), from one `PilotEstimator`.
    """
    if eval_draws < 2:
        raise ConfigError("SE evaluation needs at least 2 draws")
    schemes = [Scheme(s) for s in schemes]
    prelog = (cfg.coherence_symbols - cfg.pilot_count) / cfg.coherence_symbols

    K, L, N = stats.los_mean.shape
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
            weights, flagged = lsfd_weights(lsfd, plan, L)
            regularized[Scheme.LMMSE_LSFD] = flagged
        if need_pi:
            stage2_full, flagged = stage2_all(pi, plan)
            regularized[Scheme.LTMMSE] = flagged
        del pi, lsfd   # the evaluation reads only the second stages formed from them

    # The MMSE combiners of a chunk are held on the rows of the serving pairs;
    # each block copies them into this zeroed array, whose other entries stay zero.
    ap, ue = plan.serving_pairs
    mmse_block = np.zeros((DRAW_BLOCK, L, N, K), dtype=complex)
    tables = {s: BatchSums.zeros(eval_draws, K) for s in schemes}
    done = 0
    eval_seq = subsequence(stream, ROLE_EVALUATION)
    for draws, est in estimated_draws(estimator, eval_draws, eval_seq):
        rows = mmse_combiner(est, plan) if Scheme.MMSE in schemes else None
        for start in range(0, len(est.estimates), DRAW_BLOCK):
            block = slice(start, start + DRAW_BLOCK)
            est_block = replace(est, estimates=est.estimates[block])
            local = lmmse_local_matrices(est_block, plan) if need_local else None
            for scheme in schemes:
                if scheme is Scheme.MMSE:
                    v = mmse_block[:len(est_block.estimates)]
                    v[:, ap, :, ue] = rows[block].swapaxes(0, 1)   # indexed as (P, draws, N)
                elif scheme is Scheme.LMMSE_LSFD:
                    v = assemble_lmmse_lsfd(local, weights)
                else:
                    v = assemble_ltmmse(local, stage2_full)
                tables[scheme].add(done + start, eval_draws, *_per_draw_terms(
                    v, draws.true_channels[block], est_block, plan.powers_w))
        done += len(est.estimates)
        del draws, est, est_block, rows   # free this chunk before the next one is drawn

    reports = {}
    for scheme, sums in tables.items():
        uatf, clamped = uatf_se(sums, plan.powers_w, cfg.noise_power_w, prelog)
        reports[scheme] = SeReport(uatf=uatf, cd=cd_se(sums, prelog), clamped_ues=clamped,
                                   regularized_ues=regularized[scheme])
    return reports
