"""Deployment geometry, pilot/cluster planning and power control."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellfree_sim.errors import ConfigError
from cellfree_sim.scenario import (
    AreaConfig,
    apply_power_control,
    assign_pilots_and_clusters,
    deploy,
    path_gain_db,
    power_control,
    rician_factor,
)

from oracles import wrapped_distance

TABLE_CFG = AreaConfig()  # reference large-network parameter set


class TestWrappedDistance:
    def test_coincident_points_hit_height_floor(self):
        assert wrapped_distance((3.0, 4.0), (3.0, 4.0), side=1000.0, dh=11.0) == 11.0

    def test_wraps_across_the_edge(self):
        assert wrapped_distance((0.0, 0.0), (999.0, 0.0), side=1000.0, dh=0.0) == pytest.approx(1.0)

    def test_interior_pair_matches_hand_evaluation(self):
        d = wrapped_distance((0.0, 0.0), (500.0, 500.0), side=1000.0, dh=11.0)
        assert d == pytest.approx(707.1923359313222, abs=1e-12)

    @given(
        ax=st.floats(0, 1000), ay=st.floats(0, 1000),
        bx=st.floats(0, 1000), by=st.floats(0, 1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_floored(self, ax, ay, bx, by):
        d_ab = wrapped_distance((ax, ay), (bx, by), side=1000.0, dh=11.0)
        d_ba = wrapped_distance((bx, by), (ax, ay), side=1000.0, dh=11.0)
        assert d_ab == pytest.approx(d_ba, rel=1e-12)
        assert d_ab >= 11.0
        # wrapping can only shorten the planar distance
        unwrapped = np.hypot(ax - bx, ay - by)
        assert d_ab <= np.sqrt(unwrapped**2 + 11.0**2) + 1e-9


class TestPathGain:
    def test_reference_distance_value(self):
        assert path_gain_db(1.0, 5000.0) == pytest.approx(-38.579400086720376, abs=1e-12)

    def test_hundred_meter_value(self):
        assert path_gain_db(100.0, 5000.0) == pytest.approx(-90.57940008672037, abs=1e-12)

    @given(d=st.floats(0.1, 5000.0), shift=st.floats(-20, 20))
    @settings(max_examples=50, deadline=None)
    def test_shadow_term_is_additive(self, d, shift):
        base = path_gain_db(d, 5000.0)
        assert path_gain_db(d, 5000.0, shift) == pytest.approx(base + shift, rel=1e-12)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ConfigError):
            path_gain_db(0.0, 5000.0)
        with pytest.raises(ConfigError):
            path_gain_db(-3.0, 5000.0)


class TestRicianFactor:
    def test_known_points(self):
        assert rician_factor(100.0) == pytest.approx(10.0, rel=1e-12)
        assert rician_factor(1300.0 / 3.0) == pytest.approx(1.0, rel=1e-12)
        assert rician_factor(0.0) == pytest.approx(19.952623149688797, rel=1e-12)

    def test_monotone_decreasing(self):
        d = np.linspace(0.0, 2000.0, 200)
        k = rician_factor(d)
        assert np.all(np.diff(k) < 0)


class TestDeploy:
    def test_reference_scale_shapes(self):
        dep = deploy(TABLE_CFG, np.random.default_rng(1))
        assert dep.ap_xy.shape == (100, 2)
        assert dep.ue_xy.shape == (40, 2)
        assert dep.gains_db.shape == (40, 100)

    def test_same_seed_is_bitwise_identical(self):
        a = deploy(TABLE_CFG, np.random.default_rng(7))
        b = deploy(TABLE_CFG, np.random.default_rng(7))
        for name in ("ap_xy", "ue_xy", "distances_3d", "azimuth", "elevation", "gains_db"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_degenerate_area_hits_height_floor(self):
        cfg = AreaConfig(side_length_m=1e-9, ap_count=1, ue_count=1, antennas_per_ap=1,
                         pilot_count=1, pilot_power_w=0.1)
        dep = deploy(cfg, np.random.default_rng(0))
        assert dep.distances_3d[0, 0] == pytest.approx(11.0, abs=1e-9)

    def test_geometry_invariants(self):
        cfg = AreaConfig(side_length_m=400.0, ap_count=12, ue_count=9, antennas_per_ap=2,
                         pilot_count=3, pilot_power_w=0.1)
        dep = deploy(cfg, np.random.default_rng(3))
        assert np.all(dep.distances_3d >= cfg.height_diff_m)
        assert np.all(dep.azimuth > -np.pi) and np.all(dep.azimuth <= np.pi)
        assert np.all(dep.elevation > 0) and np.all(dep.elevation <= np.pi / 2)

    def test_distances_match_scalar_wrap_minimum(self):
        cfg = AreaConfig(side_length_m=300.0, ap_count=5, ue_count=4, antennas_per_ap=1,
                         pilot_count=2, pilot_power_w=0.1)
        dep = deploy(cfg, np.random.default_rng(11))
        for k in range(4):
            for l in range(5):
                expect = wrapped_distance(dep.ue_xy[k], dep.ap_xy[l],
                                          cfg.side_length_m, cfg.height_diff_m)
                assert dep.distances_3d[k, l] == pytest.approx(expect, rel=1e-12)


class TestServicePlan:
    def _plan(self, seed, cfg=None):
        cfg = cfg or AreaConfig(side_length_m=500.0, ap_count=10, ue_count=8,
                                antennas_per_ap=2, pilot_count=3, pilot_power_w=0.1)
        dep = deploy(cfg, np.random.default_rng(seed))
        return cfg, dep, assign_pilots_and_clusters(dep, cfg)

    def test_enough_pilots_gives_singleton_copilot_sets(self):
        cfg = AreaConfig(side_length_m=500.0, ap_count=6, ue_count=4, antennas_per_ap=2,
                         pilot_count=4, pilot_power_w=0.1)
        dep = deploy(cfg, np.random.default_rng(2))
        plan = assign_pilots_and_clusters(dep, cfg)
        assert np.unique(plan.pilot_of_ue).size == cfg.ue_count

    def test_single_ap_two_ues_one_pilot(self):
        # stronger UE wins the per-pilot contest; the weaker one keeps its
        # master AP, so both clusters are that single AP
        cfg = AreaConfig(side_length_m=800.0, ap_count=1, ue_count=2, antennas_per_ap=1,
                         pilot_count=1, pilot_power_w=0.1)
        dep = deploy(cfg, np.random.default_rng(5))
        plan = assign_pilots_and_clusters(dep, cfg)
        assert np.array_equal(plan.pilot_of_ue, [0, 0])
        assert [c.tolist() for c in plan.cluster_of_ue] == [[0], [0]]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cluster_structure_matches_sequential_rule(self, seed):
        cfg, dep, plan = self._plan(seed)
        beta = 10.0 ** (dep.gains_db / 10.0)
        masters = np.argmax(beta, axis=1)
        for l in range(cfg.ap_count):
            for t in range(cfg.pilot_count):
                users = np.flatnonzero(plan.pilot_of_ue == t)
                if users.size == 0:
                    continue
                winner = users[np.argmax(beta[users, l])]
                contest_served = [k for k in users if l in plan.cluster_of_ue[k]
                                  and masters[k] != l]
                # besides forced masters, only the contest winner is served
                assert set(contest_served) <= {winner}
        for k in range(cfg.ue_count):
            assert masters[k] in plan.cluster_of_ue[k]
            assert len(plan.cluster_of_ue[k]) >= 1

    def test_determinism(self):
        _, _, a = self._plan(9)
        _, _, b = self._plan(9)
        assert np.array_equal(a.pilot_of_ue, b.pilot_of_ue)
        assert all(np.array_equal(x, y) for x, y in zip(a.cluster_of_ue, b.cluster_of_ue))
        assert np.array_equal(a.powers_w, b.powers_w)


class TestPowerControl:
    def test_exponent_zero_gives_full_power(self):
        gains = np.array([[-80.0, -90.0], [-85.0, -70.0]])
        clusters = [np.array([0, 1]), np.array([1])]
        p = power_control(gains, clusters, v=0.0, p_max=0.1)
        assert np.allclose(p, 0.1)

    def test_inverse_exponent_hand_case(self):
        # linear gain sums 0.2 and 0.1: the weaker UE transmits at p_max,
        # the stronger at half of it
        gains = 10.0 * np.log10(np.array([[0.2], [0.1]]))
        clusters = [np.array([0]), np.array([0])]
        p = power_control(gains, clusters, v=-1.0, p_max=0.1)
        assert p[1] == pytest.approx(0.1, rel=1e-12)
        assert p[0] == pytest.approx(0.05, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 4, 8])
    def test_inverse_exponent_equalizes_received_power(self, seed):
        cfg = AreaConfig(side_length_m=600.0, ap_count=12, ue_count=6, antennas_per_ap=2,
                         pilot_count=2, pilot_power_w=0.1)
        dep = deploy(cfg, np.random.default_rng(seed))
        plan = assign_pilots_and_clusters(dep, cfg)
        plan = apply_power_control(plan, dep, v=-1.0, p_max=cfg.p_max_w)
        beta = 10.0 ** (dep.gains_db / 10.0)
        sums = np.array([beta[k, c].sum() for k, c in enumerate(plan.cluster_of_ue)])
        products = plan.powers_w * sums
        assert plan.powers_w.max() == pytest.approx(cfg.p_max_w, rel=1e-12)
        assert np.all(plan.powers_w <= cfg.p_max_w * (1 + 1e-12))
        assert np.ptp(products) / products.mean() < 1e-12

    @pytest.mark.parametrize("v", [50.0, -50.0, 1e6, -1e6, 1e308])
    def test_extreme_exponent_keeps_powers_finite(self, v):
        gains = np.array([[-95.0, -100.0], [-70.0, -120.0], [-80.0, -60.0]])
        clusters = [np.array([0, 1]), np.array([0]), np.array([1])]
        p = power_control(gains, clusters, v=v, p_max=0.1)
        assert np.all(np.isfinite(p)) and np.all(p >= 0.0)
        assert p.max() == 0.1
        assert p[2 if v > 0 else 0] == 0.1

    @pytest.mark.parametrize("v, expected", [(0.0, [0.1, 0.1]), (1.0, [0.0, 0.1])])
    def test_zero_gain_with_nonnegative_exponent(self, v, expected):
        gains = np.array([[-np.inf], [-80.0]])
        clusters = [np.array([0]), np.array([0])]
        with np.errstate(all="raise"):
            p = power_control(gains, clusters, v=v, p_max=0.1)
        assert p.tolist() == expected

    def test_zero_gain_with_negative_exponent_rejected(self):
        with pytest.raises(ConfigError):
            power_control(np.array([[-np.inf]]), [np.array([0])], v=-1.0, p_max=0.1)


class TestAreaConfigValidation:
    def test_rejects_bad_counts_and_powers(self):
        with pytest.raises(ConfigError):
            AreaConfig(ap_count=0).validate()
        with pytest.raises(ConfigError):
            AreaConfig(pilot_count=300, coherence_symbols=200).validate()
        with pytest.raises(ConfigError):
            AreaConfig(noise_power_w=0.0).validate()
        TABLE_CFG.validate()
