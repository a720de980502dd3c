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

from .channel import ChannelDraw, ChannelStats
from .scenario import AreaConfig, ServicePlan


@dataclass(frozen=True)
class EstimateSet:
    """MMSE channel estimates for a batch of draws."""

    estimates: np.ndarray   # (draws, L, N, K) complex
    c_matrices: np.ndarray  # (L, N, N) C_l = Z_l + sigma^2 I, Z_l = sum_k p_k err_cov[k, l]

    @property
    def n_draws(self) -> int:
        return self.estimates.shape[0]


class PilotEstimator:
    """Precomputed pilot-phase processing for one (stats, plan, cfg) triple.

    Holds the innovation covariances, the per-pair MMSE gain matrices, error
    covariances and the per-AP noise-plus-error covariances C_l. The pilot
    count tau_p is `cfg.pilot_count`, the one the prelog uses. Immutable after
    construction; safe to share across Monte Carlo workers.
    """

    def __init__(self, stats: ChannelStats, plan: ServicePlan, cfg: AreaConfig):
        K, L, N = stats.los_mean.shape
        tau_p = cfg.pilot_count
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

        self.c_matrices = (np.einsum("k,klnm->lnm", plan.powers_w, self.err_cov)
                           + cfg.noise_power_w * np.eye(N))
        # coefficient matrix: column t holds sqrt(eta_i) * tau_p on the UEs of pilot t
        coef = np.zeros((K, tau_p))
        coef[np.arange(K), plan.pilot_of_ue] = np.sqrt(plan.pilot_powers_w) * tau_p
        self._pilot_coef = coef
        # decorrelated pilot signal of the LoS means, (L, N, tau_p)
        self._mean_received = stats.los_mean.transpose(1, 2, 0) @ coef
        self._ues_on_pilot = [np.flatnonzero(plan.pilot_of_ue == t) for t in range(tau_p)]

    def estimate(self, draw: ChannelDraw, rng: np.random.Generator) -> EstimateSet:
        """Simulate pilot reception for each draw and apply the MMSE map."""
        H = draw.true_channels                            # (R, L, N, K)
        R, L, N = H.shape[:3]
        tau_p = self.cfg.pilot_count
        noise_scale = np.sqrt(0.5 * self.cfg.noise_power_w * tau_p)
        noise = noise_scale * (
            rng.standard_normal((R, tau_p, L, N)) + 1j * rng.standard_normal((R, tau_p, L, N))
        )

        # One pass per pilot: its decorrelated innovation, then one product
        # that every UE on it shares. A small product per pilot, not
        # H.reshape(-1, K) @ coef: a single (R L N) x K product is large enough
        # for OpenBLAS to thread, and its worker then busy-waits about 0.1 s
        # after every chunk, taking a core from the setup workers.
        innovation = np.empty((R, L, N), dtype=complex)
        estimates = np.empty((len(self.gain), L, N, R), dtype=complex)
        for t, on_t in enumerate(self._ues_on_pilot):
            np.matmul(H[..., on_t], self._pilot_coef[on_t, t], out=innovation)
            innovation += noise[:, t]
            innovation -= self._mean_received[..., t]
            estimates[on_t] = self.gain[on_t] @ innovation.transpose(1, 2, 0)
        del noise, innovation
        estimates += self.stats.los_mean[..., None]
        estimates = np.ascontiguousarray(estimates.transpose(3, 1, 2, 0))
        return EstimateSet(estimates=estimates, c_matrices=self.c_matrices)
