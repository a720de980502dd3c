"""Steering vectors, scattering covariance quadrature, stats and sampling."""

import numpy as np
import pytest

from cellfree_sim import channel
from cellfree_sim.channel import (
    build_channel_stats,
    local_scattering_covariance,
    los_signature,
    pair_geometry,
    sample_channels,
)
from cellfree_sim.errors import ConfigError, NumericalError
from cellfree_sim.scenario import AreaConfig, deploy, rician_factor

SPREAD_5_DEG = np.radians(5.0)


def small_cfg(N=2, **kw):
    defaults = dict(side_length_m=400.0, ap_count=4, ue_count=3, antennas_per_ap=N,
                    pilot_count=2, pilot_power_w=0.1)
    defaults.update(kw)
    return AreaConfig(**defaults)


class TestLosSignature:
    def test_single_antenna(self):
        assert np.array_equal(los_signature(0.7, 0.2, 1), np.array([1.0 + 0j]))

    def test_boresight_gives_all_ones(self):
        np.testing.assert_allclose(los_signature(0.0, 0.9, 8), np.ones(8), atol=1e-15)

    def test_endfire_alternates_sign(self):
        got = los_signature(np.pi / 2, 0.0, 4)  # half-wavelength spacing
        np.testing.assert_allclose(got, [1, -1, 1, -1], atol=1e-12)

    def test_constant_phase_progression(self):
        sig = los_signature(0.9, 0.3, 6)
        ratios = sig[1:] / sig[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
        np.testing.assert_allclose(np.abs(sig), 1.0, rtol=1e-12)


class TestScatteringCovariance:
    def test_unit_diagonal_and_hermitian(self):
        cov = local_scattering_covariance(0.4, 0.3, SPREAD_5_DEG, SPREAD_5_DEG, 4)
        np.testing.assert_allclose(np.diag(cov).real, 1.0, atol=1e-12)
        np.testing.assert_allclose(cov, cov.conj().T, atol=1e-15)

    @pytest.mark.parametrize("azimuth,elevation", [
        (0.0, 0.02), (1.2, 0.4), (-3.0, 1.5), (np.pi, 0.01), (2.5, np.pi / 2),
    ])
    def test_psd_even_near_support_edges(self, azimuth, elevation):
        cov = local_scattering_covariance(azimuth, elevation, SPREAD_5_DEG, SPREAD_5_DEG, 4)
        eigs = np.linalg.eigvalsh(cov)
        assert eigs.min() >= -1e-10 * np.trace(cov).real

    def test_point_mass_limit_is_rank_one(self):
        azimuth, elevation = 0.8, 0.35
        tiny = 1e-9
        cov = local_scattering_covariance(azimuth, elevation, tiny, tiny, 4)
        steer = los_signature(azimuth, elevation, 4)
        np.testing.assert_allclose(cov, np.outer(steer, steer.conj()), atol=1e-6)

    def test_matches_monte_carlo_integration(self):
        # independent oracle: rejection-sample the truncated wrapped Gaussian
        # angles and average the integrand directly
        azimuth, elevation, spread = 0.0, np.pi / 4, SPREAD_5_DEG
        cov = local_scattering_covariance(azimuth, elevation, spread, spread, 2)

        gen = np.random.default_rng(2024)
        n = 10**6
        d_az = gen.normal(0.0, spread, size=n)
        d_el = gen.normal(0.0, spread, size=n)
        keep = (np.abs(d_az) <= 8 * spread) & (np.abs(d_el) <= 8 * spread)
        phi = azimuth + d_az[keep]
        phi = np.mod(phi + np.pi, 2 * np.pi) - np.pi
        theta = elevation + d_el[keep]
        theta = np.mod(theta, np.pi)
        integrand = np.exp(2j * np.pi * 0.5 * 1 * np.sin(phi) * np.cos(theta))
        oracle = integrand.mean()
        assert abs(cov[1, 0] - oracle) < 5e-3

    def test_non_converging_quadrature_raises(self, monkeypatch):
        # with a single refinement level there is nothing to compare against
        monkeypatch.setattr(channel, "QUAD_MAX_NODES", 16)
        with pytest.raises(NumericalError, match="did not converge"):
            local_scattering_covariance(0.4, 0.3, SPREAD_5_DEG, SPREAD_5_DEG, 4)

    def test_rejects_nonpositive_spread(self):
        with pytest.raises(ConfigError):
            local_scattering_covariance(0.0, 0.3, 0.0, SPREAD_5_DEG, 2)


class TestBuildChannelStats:
    def test_power_split_identity(self):
        cfg = small_cfg(N=3)
        dep = deploy(cfg, np.random.default_rng(1))
        stats = build_channel_stats(dep, cfg, np.random.default_rng(2))
        total = np.einsum("klnn->kl", stats.nlos_cov).real + np.sum(np.abs(stats.los_mean) ** 2, axis=2)
        np.testing.assert_allclose(total, cfg.antennas_per_ap * stats.beta_lin, rtol=1e-6)

    def test_default_kappa_follows_distance_law(self):
        cfg = small_cfg()
        dep = deploy(cfg, np.random.default_rng(1))
        stats = build_channel_stats(dep, cfg, np.random.default_rng(2))
        np.testing.assert_allclose(stats.kappa, rician_factor(dep.distances_3d), rtol=1e-12)

    def test_zero_kappa_is_pure_nlos(self):
        cfg = small_cfg()
        dep = deploy(cfg, np.random.default_rng(1))
        stats = build_channel_stats(dep, cfg, np.random.default_rng(2), kappa_override=0.0)
        assert np.all(stats.los_mean == 0)
        traces = np.einsum("klnn->kl", stats.nlos_cov).real
        np.testing.assert_allclose(traces, cfg.antennas_per_ap * stats.beta_lin, rtol=1e-6)

    def test_huge_kappa_is_nearly_pure_los(self):
        cfg = small_cfg()
        dep = deploy(cfg, np.random.default_rng(1))
        stats = build_channel_stats(dep, cfg, np.random.default_rng(2), kappa_override=1e8)
        traces = np.einsum("klnn->kl", stats.nlos_cov).real
        assert np.all(traces <= 2e-8 * cfg.antennas_per_ap * stats.beta_lin)
        np.testing.assert_allclose(
            np.sum(np.abs(stats.los_mean) ** 2, axis=2),
            cfg.antennas_per_ap * stats.beta_lin, rtol=1e-6,
        )

    def test_infinite_kappa_is_exact_los(self):
        cfg = small_cfg()
        dep = deploy(cfg, np.random.default_rng(1))
        stats = build_channel_stats(dep, cfg, np.random.default_rng(2), kappa_override=np.inf)
        assert np.all(stats.nlos_cov == 0)

    def test_geometry_reuse_matches_direct_build(self):
        cfg = small_cfg()
        dep = deploy(cfg, np.random.default_rng(1))
        geom = pair_geometry(dep, cfg)
        direct = build_channel_stats(dep, cfg, np.random.default_rng(9))
        from cellfree_sim.channel import stats_from_geometry

        phases = np.random.default_rng(9).uniform(0, 2 * np.pi, size=dep.gains_db.shape)
        rebuilt = stats_from_geometry(geom, dep, phases)
        np.testing.assert_array_equal(direct.los_mean, rebuilt.los_mean)
        np.testing.assert_array_equal(direct.nlos_cov, rebuilt.nlos_cov)


class TestSampleChannels:
    def test_zero_covariance_gives_deterministic_channel(self):
        cfg = small_cfg()
        dep = deploy(cfg, np.random.default_rng(1))
        stats = build_channel_stats(dep, cfg, np.random.default_rng(2), kappa_override=np.inf)
        draws = sample_channels(stats, np.random.default_rng(3), 4)
        phased = stats.phased_mean()
        for r in range(4):
            np.testing.assert_array_equal(draws.true_channels[r], phased)

    def test_same_seed_reproduces_draws(self):
        cfg = small_cfg()
        dep = deploy(cfg, np.random.default_rng(1))
        stats = build_channel_stats(dep, cfg, np.random.default_rng(2))
        a = sample_channels(stats, np.random.default_rng(42), 16)
        b = sample_channels(stats, np.random.default_rng(42), 16)
        np.testing.assert_array_equal(a.true_channels, b.true_channels)

    def test_empirical_mean_and_covariance(self):
        cfg = small_cfg(N=2, ap_count=1, ue_count=1, pilot_count=1)
        dep = deploy(cfg, np.random.default_rng(1))
        stats = build_channel_stats(dep, cfg, np.random.default_rng(2))
        n = 10**5
        draws = sample_channels(stats, np.random.default_rng(3), n)
        h = draws.true_channels[:, 0, :, 0]                  # (n, N)

        phased = stats.phased_mean()[0, :, 0]
        cov = stats.nlos_cov[0, 0]
        mean_tol = 4.0 / np.sqrt(n) * np.sqrt(np.trace(cov).real)
        assert np.all(np.abs(h.mean(axis=0) - phased) < mean_tol)

        centered = h - phased
        emp_cov = centered.T.conj() @ centered / n
        emp_cov = emp_cov.T  # E[h h^H] with our (draw, antenna) layout
        assert np.linalg.norm(emp_cov - cov) < 0.05 * np.linalg.norm(cov)
