"""Uplink pilot phase and phase-aware MMSE channel estimation.

APs receive orthogonal pilots, decorrelate per pilot index, subtract the
known deterministic (phased LoS) part, and apply the linear MMSE map to the
innovation. All pilot-processing matrices depend only on channel statistics,
so they are solved once per setup and reused across UEs and draws.
Copilot UEs share the same received pilot signal, which makes their estimates
correlated; that correlation is physical and is reproduced here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelDraw, ChannelStats, sample_channels
from .errors import ConfigError
from .scenario import AreaConfig, ServicePlan

# Draws per chunk of `error_statistics_check`.
CHECK_CHUNK = 20_000


@dataclass(frozen=True)
class EstimateSet:
    """MMSE channel estimates for a batch of draws."""

    estimates: np.ndarray   # (draws, L, N, K) complex
    z_matrices: np.ndarray  # (L, N, N) power-weighted error covariance sums

    @property
    def n_draws(self) -> int:
        return self.estimates.shape[0]


class PilotEstimator:
    """Precomputed pilot-phase processing for one (stats, plan) pair.

    Holds the innovation covariances, the per-pair MMSE gain matrices, error
    covariances and their power-weighted sums. Immutable after construction;
    safe to share across Monte Carlo workers.
    """

    def __init__(self, stats: ChannelStats, plan: ServicePlan, cfg: AreaConfig):
        K, L, N = stats.los_mean.shape
        tau_p = plan.pilot_count
        self.stats = stats
        self.plan = plan
        self.cfg = cfg

        # psi[t, l]: covariance of the decorrelated pilot-t observation at AP l,
        # sigma^2 I plus eta_i * tau_p * R_{i,l} over the UEs i on pilot t
        cov = stats.nlos_cov
        eta = plan.pilot_powers_w[:, None, None, None]         # (K, 1, 1, 1)
        self.psi = np.empty((tau_p, L, N, N), dtype=complex)
        self.psi[:] = cfg.noise_power_w * np.eye(N, dtype=complex)
        np.add.at(self.psi, plan.pilot_of_ue, eta * tau_p * cov)

        # gain[k, l] maps the pilot innovation to the estimate update;
        # err_cov[k, l] is the posterior covariance of the estimation error.
        solved_h = np.linalg.solve(self.psi[plan.pilot_of_ue], cov).conj().swapaxes(-1, -2)
        self.gain = np.sqrt(eta) * solved_h                    # sqrt(eta) R psi^-1
        err = cov - eta * tau_p * (solved_h @ cov)
        self.err_cov = 0.5 * (err + err.conj().swapaxes(-1, -2))

        self.z_matrices = np.einsum("k,klnm->lnm", plan.powers_w, self.err_cov)
        self._phased_mean = stats.phased_mean()          # (L, N, K)
        # coefficient matrix: column t holds sqrt(eta_i) * tau_p on the UEs of pilot t
        coef = np.zeros((K, tau_p))
        coef[np.arange(K), plan.pilot_of_ue] = np.sqrt(plan.pilot_powers_w) * tau_p
        self._pilot_coef = coef
        self._ues_on_pilot = [np.flatnonzero(plan.pilot_of_ue == t) for t in range(tau_p)]

    def _pilot_sums(self, H: np.ndarray) -> np.ndarray:
        """Noiseless decorrelated pilot signal (R, L, N, tau_p) of channels H."""
        received = np.empty(H.shape[:-1] + (self.plan.pilot_count,), dtype=complex)
        # One small product per pilot, not H.reshape(-1, K) @ coef: a single
        # (R L N) x K product is large enough for OpenBLAS to thread, and its
        # worker then busy-waits about 0.1 s after every chunk, taking a core
        # from the setup workers. An unused pilot's column is exactly zero.
        for t, on_t in enumerate(self._ues_on_pilot):
            np.matmul(H[..., on_t], self._pilot_coef[on_t, t], out=received[..., t])
        return received

    def estimate(self, draw: ChannelDraw, rng: np.random.Generator) -> EstimateSet:
        """Simulate pilot reception for each draw and apply the MMSE map."""
        H = draw.true_channels                            # (R, L, N, K)
        R, L, N = H.shape[:3]
        tau_p = self.plan.pilot_count
        sigma2 = self.cfg.noise_power_w

        received = self._pilot_sums(H)
        noise_scale = np.sqrt(0.5 * sigma2 * tau_p)
        noise = noise_scale * (
            rng.standard_normal((R, tau_p, L, N)) + 1j * rng.standard_normal((R, tau_p, L, N))
        )
        mean_received = self._phased_mean @ self._pilot_coef   # (L, N, tau_p)
        innovation = received + noise.transpose(0, 2, 3, 1) - mean_received

        per_ue = innovation[..., self.plan.pilot_of_ue]   # (R, L, N, K)
        estimates = self.gain @ per_ue.transpose(3, 1, 2, 0)  # (K, L, N, R)
        estimates += self._phased_mean.transpose(2, 0, 1)[..., None]
        estimates = np.ascontiguousarray(estimates.transpose(3, 1, 2, 0))
        return EstimateSet(estimates=estimates, z_matrices=self.z_matrices)


@dataclass(frozen=True)
class EstimationDiagnostics:
    """Empirical consistency report for the estimator on one setup."""

    n_draws: int
    max_mean_dev_se: float      # worst |emp. mean - phased LoS| in standard errors
    max_errcov_dev_se: float    # worst error-covariance entry deviation in standard errors
    max_cross_dev_se: float     # worst estimate/error cross-covariance entry in standard errors
    copilot_pairs: tuple[tuple[int, int], ...]
    copilot_estimate_corr: tuple[float, ...]  # shared-pilot estimate correlation per pair

    def within(self, se_limit: float = 5.0) -> bool:
        return max(self.max_mean_dev_se, self.max_errcov_dev_se, self.max_cross_dev_se) <= se_limit


def error_statistics_check(estimator: PilotEstimator, n_draws: int, rng: np.random.Generator,
                           min_draws: int = 10_000) -> EstimationDiagnostics:
    """Monte Carlo check of the estimator's first and second moments.

    Verifies that estimates average to the phased LoS mean, that the
    estimation error has the predicted covariance, and that estimate and
    error are empirically uncorrelated. Deviations are reported in standard
    errors of the corresponding empirical moment. Copilot estimate
    correlation is reported separately: it is expected, not a defect.
    """
    if n_draws < min_draws:
        raise ConfigError(f"need at least {min_draws} draws for stable diagnostics")
    stats, plan = estimator.stats, estimator.plan
    K, L, N = stats.los_mean.shape
    phased = estimator._phased_mean                      # (L, N, K)

    sum_est = np.zeros((L, N, K), dtype=complex)
    sumsq_est = np.zeros((L, N, K))
    sum_err = np.zeros((L, N, K), dtype=complex)
    sum_err_outer = np.zeros((K, L, N, N), dtype=complex)
    sumsq_err_outer = np.zeros((K, L, N, N))
    sum_cross = np.zeros((K, L, N, N), dtype=complex)
    sumsq_cross = np.zeros((K, L, N, N))
    sum_innov_outer = np.zeros((K, L, N, N), dtype=complex)
    pairs = sorted({tuple(sorted((k, i))) for k in range(K) for i in plan.copilot_sets[k] if i != k})
    sum_pair = np.zeros((max(len(pairs), 1), L, N, N), dtype=complex)

    done = 0
    while done < n_draws:
        r = min(CHECK_CHUNK, n_draws - done)
        draws = sample_channels(stats, rng, r)
        est = estimator.estimate(draws, rng)
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
        done += r

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
        n_draws=n_draws,
        max_mean_dev_se=max_mean,
        max_errcov_dev_se=max_errcov,
        max_cross_dev_se=max_cross,
        copilot_pairs=tuple(pairs),
        copilot_estimate_corr=tuple(corr),
    )
