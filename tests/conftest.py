"""Shared builders for synthetic channel states and small network instances."""

import numpy as np
import pytest

from cellfree_sim.channel import ChannelStats, _psd_factor
from cellfree_sim.scenario import AreaConfig, ServicePlan


def make_cfg(L=2, K=2, N=2, tau_p=1, sigma2=0.1, p_max=1.0, eta=1.0, side=500.0,
             tau_c=200):
    return AreaConfig(
        side_length_m=side,
        ap_count=L,
        ue_count=K,
        antennas_per_ap=N,
        pilot_count=tau_p,
        coherence_symbols=tau_c,
        p_max_w=p_max,
        pilot_power_w=eta,
        noise_power_w=sigma2,
    )


def make_stats(los_mean, nlos_cov, phases=None):
    """Channel statistics from explicit per-pair means and covariances.

    `phases` (K, L), when given, rotate each pair's LoS mean by its fixed phase.
    """
    los_mean = np.asarray(los_mean, dtype=complex)
    nlos_cov = np.asarray(nlos_cov, dtype=complex)
    K, L, _ = los_mean.shape
    if phases is not None:
        los_mean = los_mean * np.exp(1j * np.asarray(phases, dtype=float))[:, :, None]
    factors = np.zeros_like(nlos_cov)
    repaired = np.zeros_like(nlos_cov)
    for k in range(K):
        for l in range(L):
            repaired[k, l], factors[k, l] = _psd_factor(np.ascontiguousarray(nlos_cov[k, l]))
    return ChannelStats(los_mean=los_mean, nlos_cov=repaired, cov_factor=factors)


def make_plan(pilot_of_ue, clusters, powers=None, pilot_powers=None):
    pilot_of_ue = np.asarray(pilot_of_ue, dtype=int)
    K = len(pilot_of_ue)
    if powers is None:
        powers = np.ones(K)
    if pilot_powers is None:
        pilot_powers = np.ones(K)
    return ServicePlan(
        pilot_of_ue=pilot_of_ue,
        cluster_of_ue=tuple(np.asarray(c, dtype=int) for c in clusters),
        powers_w=np.asarray(powers, dtype=float),
        pilot_powers_w=np.asarray(pilot_powers, dtype=float),
    )


def build_instance(seed, kappa_override=None, L=6, K=4, N=2, tau_p=2, side=400.0,
                   p_max=0.1):
    """Random deployed instance: (cfg, plan, stats) for a given seed."""
    from cellfree_sim.channel import build_channel_stats
    from cellfree_sim.scenario import assign_pilots_and_clusters, deploy

    cfg = AreaConfig(side_length_m=side, ap_count=L, ue_count=K, antennas_per_ap=N,
                     pilot_count=tau_p, p_max_w=p_max, pilot_power_w=p_max)
    dep = deploy(cfg, np.random.default_rng(seed))
    plan = assign_pilots_and_clusters(dep, cfg)
    stats = build_channel_stats(dep, cfg, np.random.default_rng(seed + 1000),
                                [kappa_override])[0]
    return cfg, plan, stats


@pytest.fixture
def rng():
    return np.random.default_rng(0xA5A5)
