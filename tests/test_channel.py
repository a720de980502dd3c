"""Steering vectors, scattering covariance quadrature, stats and sampling."""

import numpy as np
import pytest

from cellfree_sim import channel
from cellfree_sim.channel import (
    PairGeometry,
    _psd_factor,
    build_channel_stats,
    local_scattering_covariance,
    los_signature,
    pair_geometry,
    sample_channels,
    stats_from_geometry,
)
from cellfree_sim.errors import ConfigError, NumericalError
from cellfree_sim.scenario import AreaConfig, deploy, rician_factor

SPREAD_5_DEG = np.radians(5.0)


def monte_carlo_lag_one(azimuth, elevation, spread=SPREAD_5_DEG, n=10**6):
    """Independent oracle for the lag-one correlation of a 2-antenna array:
    rejection-sample the truncated Gaussian angles, wrap azimuth to [-pi, pi)
    and fold elevation modulo pi, and average the integrand directly."""
    gen = np.random.default_rng(2024)
    d_az = gen.normal(0.0, spread, size=n)
    d_el = gen.normal(0.0, spread, size=n)
    keep = (np.abs(d_az) <= 8 * spread) & (np.abs(d_el) <= 8 * spread)
    phi = azimuth + d_az[keep]
    phi = np.mod(phi + np.pi, 2 * np.pi) - np.pi
    theta = elevation + d_el[keep]
    theta = np.mod(theta, np.pi)
    return np.exp(2j * np.pi * 0.5 * 1 * np.sin(phi) * np.cos(theta)).mean()


def fixed_rule_covariance(azimuth, elevation, n_antennas, spread=SPREAD_5_DEG, nodes=512):
    """Brute-force reference: a fixed `nodes`-point Gauss-Legendre rule on each
    piece of the +-8 sigma windows, elevation split at 0 and folded modulo pi.
    The simulator's azimuth is untruncated; the window drops ~1e-15 of its mass."""
    x, w = np.polynomial.legendre.leggauss(nodes)

    def axis(mean, pieces):
        angles, weights = [], []
        for a, b in pieces:
            t = 0.5 * (a + b) + 0.5 * (b - a) * x
            angles.append(t)
            weights.append(0.5 * (b - a) * w * np.exp(-0.5 * ((t - mean) / spread) ** 2))
        return np.concatenate(angles), np.concatenate(weights)

    half = 8 * spread
    phi, w_az = axis(azimuth, [(azimuth - half, azimuth + half)])
    lo, hi = elevation - half, elevation + half
    theta, w_el = axis(elevation, [(lo, 0.0), (0.0, hi)] if lo < 0 else [(lo, hi)])
    theta = np.mod(theta, np.pi)
    step = np.exp(2j * np.pi * 0.5 * np.outer(np.sin(phi), np.cos(theta)))
    mass = w_az.sum() * w_el.sum()
    # E[exp(j pi m u)] for lags m >= 0; lag -m is the conjugate
    row, power = [], np.ones_like(step)
    for _ in range(n_antennas):
        row.append(w_az @ power @ w_el / mass)
        power = power * step
    cov = np.empty((n_antennas, n_antennas), dtype=complex)
    for i in range(n_antennas):
        for j in range(n_antennas):
            cov[i, j] = row[i - j] if i >= j else np.conj(row[j - i])
    return cov


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
        cov = local_scattering_covariance(0.4, 0.3, 4)
        np.testing.assert_allclose(np.diag(cov).real, 1.0, atol=1e-12)
        np.testing.assert_allclose(cov, cov.conj().T, atol=1e-15)

    @pytest.mark.parametrize("azimuth,elevation", [
        (0.0, 0.02), (1.2, 0.4), (-3.0, 1.5), (np.pi, 0.01), (2.5, np.pi / 2),
    ])
    def test_psd_even_near_support_edges(self, azimuth, elevation):
        cov = local_scattering_covariance(azimuth, elevation, 4)
        eigs = np.linalg.eigvalsh(cov)
        assert eigs.min() >= -1e-10 * np.trace(cov).real

    def test_point_mass_limit_is_rank_one(self):
        azimuth, elevation = 0.8, 0.35
        tiny = 1e-9
        cov = local_scattering_covariance(azimuth, elevation, 4, sigma=tiny)
        steer = los_signature(azimuth, elevation, 4)
        np.testing.assert_allclose(cov, np.outer(steer, steer.conj()), atol=1e-6)

    def test_matches_monte_carlo_integration(self):
        azimuth, elevation = 0.0, np.pi / 4
        cov = local_scattering_covariance(azimuth, elevation, 2)
        assert abs(cov[1, 0] - monte_carlo_lag_one(azimuth, elevation)) < 5e-3

    @pytest.mark.parametrize("azimuth", [0.7, 3.1])
    def test_matches_monte_carlo_below_horizon(self, azimuth):
        # at 1 degree most of the +-8 sigma elevation window lies below the
        # horizon, so the folded part of the model dominates
        elevation = np.radians(1.0)
        cov = local_scattering_covariance(azimuth, elevation, 2)
        assert abs(cov[1, 0] - monte_carlo_lag_one(azimuth, elevation)) < 5e-3

    def test_matches_fixed_rule_reference_on_a_grid(self):
        # 8 sigma -+ 1e-6 and 8 sigma: the piece below the horizon shrinks to nothing.
        # N = 8 needs level 128, so the azimuth node count follows the level.
        edge = 8 * SPREAD_5_DEG
        az, el = np.meshgrid([-np.pi, -3.1, 0.0, 0.7, 3.1, np.pi],
                             [0.0, np.radians(1.0), 0.35, 0.7, np.pi / 2,
                              edge - 1e-6, edge, edge + 1e-6], indexing="ij")
        for n_antennas in (4, 8):
            got = local_scattering_covariance(az, el, n_antennas)
            assert got.shape == az.shape + (n_antennas, n_antennas)
            for idx in np.ndindex(az.shape):
                np.testing.assert_allclose(got[idx],
                                           fixed_rule_covariance(az[idx], el[idx], n_antennas),
                                           rtol=0, atol=1e-12)

    def test_horizon_elevation_gives_real_covariance(self):
        # at elevation 0 the folded lower piece mirrors the upper one, so the
        # phases cancel in pairs and the lag sums are real
        azimuth = np.array([-3.0, -1.2, 0.0, 0.4, 1.5, 2.9])
        cov = local_scattering_covariance(azimuth, 0.0, 4)
        assert np.abs(cov.imag).max() <= 1e-15

    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
    def test_pass_fills_but_stays_within_node_budget(self, n):
        # a pair evaluates n // 2 azimuth x n elevation nodes; a pair larger
        # than the budget runs alone
        budget, per_pass = channel._NODES_PER_PASS, channel._pairs_per_pass(n)
        nodes = n // 2 * n
        if nodes > budget:
            assert per_pass == 1
        else:
            assert per_pass * nodes <= budget < (per_pass + 1) * nodes

    @pytest.mark.parametrize("elevation", [-1e-9, np.pi / 2 + 1e-9, np.nan])
    def test_rejects_elevation_outside_first_quadrant(self, elevation):
        with pytest.raises(ConfigError, match="elevation"):
            local_scattering_covariance(0.3, elevation, 2)

    def test_non_converging_quadrature_raises(self, monkeypatch):
        # with a single refinement level there is nothing to compare against
        monkeypatch.setattr(channel, "QUAD_MAX_NODES", 16)
        with pytest.raises(NumericalError, match="did not converge"):
            local_scattering_covariance(0.4, 0.3, 4)

    def test_rejects_nonpositive_spread(self):
        with pytest.raises(ConfigError):
            local_scattering_covariance(0.0, 0.3, 2, sigma=0.0)


class TestPsdFactor:
    def test_rank_deficient_matrix_is_repaired_exactly(self):
        v = np.array([1.0, 1.0j, -1.0])
        matrix = np.outer(v, v.conj())             # rank one, so Cholesky fails
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(matrix)
        repaired, factor = _psd_factor(matrix)
        np.testing.assert_allclose(repaired, matrix, atol=1e-12)
        np.testing.assert_allclose(factor @ factor.conj().T, matrix, atol=1e-12)

    def test_indefinite_matrix_beyond_tolerance_raises(self):
        with pytest.raises(NumericalError, match="indefinite"):
            _psd_factor(np.diag([2.0, -1.0]).astype(complex))

    def test_zero_trace_gives_zero_factors(self):
        repaired, factor = _psd_factor(np.zeros((3, 3), dtype=complex))
        assert np.all(repaired == 0) and np.all(factor == 0)

    def test_zero_trace_indefinite_matrix_raises(self):
        with pytest.raises(NumericalError, match="indefinite"):
            _psd_factor(np.diag([1.0, -1.0]).astype(complex))


class TestBuildChannelStats:
    def test_power_split_identity(self):
        cfg = small_cfg(N=3)
        dep = deploy(cfg, np.random.default_rng(1))
        stats = build_channel_stats(dep, cfg, np.random.default_rng(2))
        total = np.einsum("klnn->kl", stats.nlos_cov).real + np.sum(np.abs(stats.los_mean) ** 2, axis=2)
        beta = 10.0 ** (dep.gains_db / 10.0)
        np.testing.assert_allclose(total, cfg.antennas_per_ap * beta, rtol=1e-6)

    def test_default_kappa_follows_distance_law(self):
        cfg = small_cfg()
        dep = deploy(cfg, np.random.default_rng(1))
        stats = build_channel_stats(dep, cfg, np.random.default_rng(2))
        kappa = (np.sum(np.abs(stats.los_mean) ** 2, axis=2)
                 / np.einsum("klnn->kl", stats.nlos_cov).real)
        np.testing.assert_allclose(kappa, rician_factor(dep.distances_3d), rtol=1e-12)

    def test_zero_kappa_is_pure_nlos(self):
        cfg = small_cfg()
        dep = deploy(cfg, np.random.default_rng(1))
        stats = build_channel_stats(dep, cfg, np.random.default_rng(2), kappa_override=0.0)
        assert np.all(stats.los_mean == 0)
        traces = np.einsum("klnn->kl", stats.nlos_cov).real
        beta = 10.0 ** (dep.gains_db / 10.0)
        np.testing.assert_allclose(traces, cfg.antennas_per_ap * beta, rtol=1e-6)

    def test_huge_kappa_is_nearly_pure_los(self):
        cfg = small_cfg()
        dep = deploy(cfg, np.random.default_rng(1))
        stats = build_channel_stats(dep, cfg, np.random.default_rng(2), kappa_override=1e8)
        traces = np.einsum("klnn->kl", stats.nlos_cov).real
        beta = 10.0 ** (dep.gains_db / 10.0)
        assert np.all(traces <= 2e-8 * cfg.antennas_per_ap * beta)
        np.testing.assert_allclose(
            np.sum(np.abs(stats.los_mean) ** 2, axis=2), cfg.antennas_per_ap * beta, rtol=1e-6,
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
        phases = np.random.default_rng(9).uniform(0, 2 * np.pi, size=dep.gains_db.shape)
        rebuilt = stats_from_geometry(geom, dep, phases)
        np.testing.assert_array_equal(direct.los_mean, rebuilt.los_mean)
        np.testing.assert_array_equal(direct.nlos_cov, rebuilt.nlos_cov)

    @pytest.mark.parametrize("rank_deficient", [False, True])
    def test_batched_factors_match_per_pair_factors(self, rank_deficient):
        cfg = small_cfg()
        dep = deploy(cfg, np.random.default_rng(1))
        geom = pair_geometry(dep, cfg)
        if rank_deficient:
            # indefinite within PSD_TRACE_TOL, so Cholesky fails and eigh repairs it
            scattering = geom.scattering.copy()
            scattering[1, 2] = [[1.0, 1.0 + 1e-13], [1.0 + 1e-13, 1.0]]
            geom = PairGeometry(steering=geom.steering, scattering=scattering)
        stats = stats_from_geometry(geom, dep, np.zeros(dep.gains_db.shape))

        kappa = rician_factor(dep.distances_3d)
        scale = 10.0 ** (dep.gains_db / 10.0) * (1.0 / (kappa + 1.0))   # the scattered share
        for k, l in np.ndindex(scale.shape):
            matrix = scale[k, l] * geom.scattering[k, l]
            if rank_deficient and (k, l) == (1, 2):
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.cholesky(matrix)
            repaired, factor = _psd_factor(matrix)
            np.testing.assert_array_equal(stats.nlos_cov[k, l], repaired)
            np.testing.assert_array_equal(stats.cov_factor[k, l], factor)


class TestSampleChannels:
    def test_zero_covariance_gives_deterministic_channel(self):
        cfg = small_cfg()
        dep = deploy(cfg, np.random.default_rng(1))
        stats = build_channel_stats(dep, cfg, np.random.default_rng(2), kappa_override=np.inf)
        draws = sample_channels(stats, np.random.default_rng(3), 4)
        phased = stats.los_mean.transpose(1, 2, 0)
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

        phased = stats.los_mean[0, 0]
        cov = stats.nlos_cov[0, 0]
        mean_tol = 4.0 / np.sqrt(n) * np.sqrt(np.trace(cov).real)
        assert np.all(np.abs(h.mean(axis=0) - phased) < mean_tol)

        centered = h - phased
        emp_cov = centered.T.conj() @ centered / n
        emp_cov = emp_cov.T  # E[h h^H] with our (draw, antenna) layout
        assert np.linalg.norm(emp_cov - cov) < 0.05 * np.linalg.norm(cov)
