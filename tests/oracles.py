"""Test oracles: independent checks that the shipped code is measured against.

`error_statistics_check` checks the estimator's moments by Monte Carlo on the
same draw pipeline the engine uses; `wrapped_distance` is the scalar
wrap-around distance that `scenario.deploy` computes for every pair at once.
Neither is on the path of `run_experiment`, so both live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cellfree_sim.beamforming import estimated_draws
from cellfree_sim.errors import ConfigError
from cellfree_sim.estimation import PilotEstimator

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
