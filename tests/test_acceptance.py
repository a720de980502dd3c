"""Acceptance suite: one test per release criterion, with pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines. Every tolerance is fixed here; the random seeds are pinned so
each criterion is a deterministic check, not a flaky statistical one.
"""

import collections
import os
import time

import numpy as np
import pytest

from cellfree_sim.beamforming import (
    Scheme,
    assemble_ltmmse,
    lmmse_local_matrices,
    stage2_all,
    statistics_pass,
)
from cellfree_sim.channel import (
    build_channel_stats,
    local_scattering_covariance,
    los_signature,
    pair_geometry,
    sample_channels,
)
from cellfree_sim.estimation import PilotEstimator
from cellfree_sim.evaluation import evaluate_schemes
from cellfree_sim.experiments import config_from_dict, run_experiment
from cellfree_sim.scenario import AreaConfig, assign_pilots_and_clusters, deploy

from conftest import build_instance
from oracles import dense_mmse_combiner, error_statistics_check

PASS = "ACCEPTANCE {}: PASS ({:.1f} s) - {}"

# Sweep workers; the rows are byte-identical for any count (criterion 9).
WORKERS = min(2, len(os.sched_getaffinity(0)))


def min_se_rows(rows, bound="uatf"):
    """(sweep, scheme) -> per-setup min-SE arrays."""
    table = collections.defaultdict(dict)
    for r in rows:
        if r.ue == "min" and r.bound == bound:
            table[(r.sweep, r.scheme.value)][r.setup] = r.se
    return {key: np.array([v[s] for s in sorted(v)]) for key, v in table.items()}


@pytest.fixture(scope="module")
def kappa_sweep_rows(tmp_path_factory):
    """Shared desk-scale sweep used by criteria 3 and 4."""
    cfg = config_from_dict({
        "experiment": "kappa_sweep",
        "area": {"ap_count": 25, "ue_count": 8, "antennas_per_ap": 2, "pilot_count": 4},
        "setups": 10,
        "stat_budget": 300,
        "eval_budget": 300,
        "kappa_grid": [0.0, 1.0, 5.0, 20.0, 100.0],
        "seed": 314,
        "out_dir": str(tmp_path_factory.mktemp("kappa")),
    })
    start = time.time()
    rows, _ = run_experiment(cfg, threads=WORKERS)
    return cfg, rows, time.time() - start


def test_criterion_1_pure_los_team_equals_centralized():
    # all scattered covariances forced to zero; cluster sizes are >= 2 for
    # this seed ([4, 3, 3, 2])
    start = time.time()
    cfg, plan, stats = build_instance(0, kappa_override=np.inf)
    assert min(len(c) for c in plan.cluster_of_ue) >= 2
    assert np.all(stats.nlos_cov == 0)

    gen = np.random.default_rng(1)
    draws = sample_channels(stats, gen, 1)
    estimator = PilotEstimator(stats, plan, cfg)
    est = estimator.estimate(draws, gen)
    centralized = dense_mmse_combiner(est, plan)

    pi, _ = statistics_pass(estimator, 2, np.random.SeedSequence(2),
                            need_pi=True, need_lsfd=False)
    stage2, _ = stage2_all(pi, plan)
    team = assemble_ltmmse(lmmse_local_matrices(est, plan), stage2)

    worst = 0.0
    for k in range(cfg.ue_count):
        scale = np.linalg.norm(centralized[0, :, :, k])
        worst = max(worst, np.linalg.norm(team[0, :, :, k] - centralized[0, :, :, k]) / scale)
    elapsed = time.time() - start
    assert worst < 1e-8
    assert elapsed < 10.0
    print(PASS.format(1, elapsed, f"pure-LoS max combiner rel err {worst:.2e} < 1e-8"))


def test_criterion_2_nlos_team_matches_lsfd_within_ci():
    start = time.time()
    cfg, plan, stats = build_instance(20, kappa_override=0.0, tau_p=4)
    assert np.unique(plan.pilot_of_ue).size == cfg.ue_count   # no pilot shared

    reps = evaluate_schemes(stats, plan, cfg, [Scheme.LTMMSE, Scheme.LMMSE_LSFD], 2000, 2000, 22)
    lt, lm = reps[Scheme.LTMMSE], reps[Scheme.LMMSE_LSFD]
    diff = np.abs(lt.uatf.se - lm.uatf.se)
    tol = np.sqrt(lt.uatf.ci**2 + lm.uatf.ci**2)  # 95% halfwidth of the difference
    assert np.all(diff <= tol), (diff, tol)

    pi, _ = statistics_pass(PilotEstimator(stats, plan, cfg), 2000, np.random.SeedSequence(23),
                            need_pi=True, need_lsfd=False)
    off = ~np.eye(cfg.ue_count, dtype=bool)
    se_ratio = np.abs(pi.pi[:, off]) / np.maximum(pi.se[:, off], 1e-300)
    assert se_ratio.max() < 5.0

    elapsed = time.time() - start
    assert elapsed < 120.0
    print(PASS.format(2, elapsed,
                      f"max SE diff {diff.max():.1e} <= CI, max |Pi offdiag| {se_ratio.max():.2f} se"))


def test_criterion_3_kappa_sweep_trend(kappa_sweep_rows):
    cfg, rows, elapsed = kappa_sweep_rows
    start = time.time()
    table = min_se_rows(rows)
    setups = cfg.setups

    def paired_tol(a, b):
        return 1.96 * np.std(a - b, ddof=1) / np.sqrt(setups)

    for kappa, _ in cfg.grid[0][1]:
        mmse = table[(kappa, "MMSE")]
        lt = table[(kappa, "LTMMSE")]
        lm = table[(kappa, "LMMSE_LSFD")]
        assert mmse.mean() >= lt.mean() - paired_tol(mmse, lt), kappa
        assert lt.mean() >= lm.mean() - paired_tol(lt, lm), kappa

    lt0, lm0 = table[(0.0, "LTMMSE")], table[(0.0, "LMMSE_LSFD")]
    gap0 = abs(lt0.mean() - lm0.mean())
    assert gap0 < paired_tol(lt0, lm0)

    mmse100, lt100 = table[(100.0, "MMSE")], table[(100.0, "LTMMSE")]
    rel_gap = (mmse100.mean() - lt100.mean()) / mmse100.mean()
    assert abs(rel_gap) < 0.05

    elapsed += time.time() - start
    assert elapsed < 1200.0
    print(PASS.format(3, elapsed,
                      f"ordering holds at all grid points; gap(k=0)={gap0:.4f} < CI, "
                      f"gap(k=100)={rel_gap:.3%} < 5%"))


def test_criterion_4_bounds_coincide_at_large_kappa(kappa_sweep_rows):
    cfg, rows, _ = kappa_sweep_rows
    start = time.time()
    uatf = min_se_rows(rows, "uatf")
    cd = min_se_rows(rows, "cd")
    worst = 0.0
    for scheme in ("MMSE", "LTMMSE", "LMMSE_LSFD"):
        u = uatf[(100.0, scheme)].mean()
        c = cd[(100.0, scheme)].mean()
        worst = max(worst, abs(u - c) / c)
    assert worst < 0.02
    print(PASS.format(4, time.time() - start,
                      f"max |uatf-cd|/cd at kappa=100 is {worst:.3%} < 2%"))


def test_criterion_5_density_trend(tmp_path):
    # contamination regime matters for this trend: 4 UEs share each pilot,
    # as in the reference operating point
    start = time.time()
    cfg = config_from_dict({
        "experiment": "density_sweep",
        "area": {"ap_count": 36, "ue_count": 16, "antennas_per_ap": 2, "pilot_count": 4},
        "setups": 24,
        "stat_budget": 300,
        "eval_budget": 300,
        "d_grid": [{"d_m": 200.0}, {"d_m": 1000.0}],
        "seed": 42,
        "out_dir": str(tmp_path),
    })
    rows, _ = run_experiment(cfg, threads=WORKERS)
    table = min_se_rows(rows)

    def rel_gap(d):
        mmse = table[(d, "MMSE")]
        lt = table[(d, "LTMMSE")]
        return ((mmse - lt) / mmse).mean()

    dense, sparse = rel_gap(200.0), rel_gap(1000.0)
    elapsed = time.time() - start
    assert dense < sparse, (dense, sparse)
    assert elapsed < 1800.0
    print(PASS.format(5, elapsed,
                      f"min-SE gap to centralized: {dense:.3f} at 200 m < {sparse:.3f} at 1000 m"))


def test_criterion_6_estimator_consistency():
    start = time.time()
    cfg = AreaConfig(side_length_m=300.0, ap_count=3, ue_count=2, antennas_per_ap=2,
                     pilot_count=1, pilot_power_w=0.1)
    dep = deploy(cfg, np.random.default_rng(60))
    plan = assign_pilots_and_clusters(dep, cfg)
    stats = build_channel_stats(dep, cfg, np.random.default_rng(61))[0]
    assert plan.pilot_of_ue[0] == plan.pilot_of_ue[1]  # contaminated pair

    report = error_statistics_check(PilotEstimator(stats, plan, cfg), 100_000, 62)
    elapsed = time.time() - start
    assert report.within(5.0), report
    assert elapsed < 60.0
    print(PASS.format(6, elapsed,
                      f"mean/cov/orthogonality deviations "
                      f"{report.max_mean_dev_se:.2f}/{report.max_errcov_dev_se:.2f}/"
                      f"{report.max_cross_dev_se:.2f} se, all < 5"))


def test_criterion_7_covariance_synthesis():
    start = time.time()
    cfg = AreaConfig(side_length_m=1000.0, ap_count=25, ue_count=8, antennas_per_ap=2,
                     pilot_count=4, pilot_power_w=0.1)
    dep = deploy(cfg, np.random.default_rng(70))
    geom = pair_geometry(dep, cfg)

    diag_err = 0.0
    eig_floor_ok = True
    for k in range(cfg.ue_count):
        for l in range(cfg.ap_count):
            base = geom.scattering[k, l]
            diag_err = max(diag_err, float(np.abs(np.diag(base) - 1.0).max()))
            trace = np.trace(base).real
            eig_floor_ok &= np.linalg.eigvalsh(base).min() >= -1e-10 * trace
    assert diag_err < 1e-6
    assert eig_floor_ok

    point = local_scattering_covariance(0.8, 0.35, 4, sigma=1e-9)
    steer = los_signature(0.8, 0.35, 4)
    frob = np.linalg.norm(point - np.outer(steer, steer.conj()))
    assert frob < 1e-6

    elapsed = time.time() - start
    assert elapsed < 10.0
    print(PASS.format(7, elapsed,
                      f"unit diagonal within {diag_err:.1e}, PSD floor holds, "
                      f"point-mass Frobenius err {frob:.1e} < 1e-6"))


def test_criterion_8_team_fixed_point():
    # per-AP conditional re-optimization with everyone else held fixed must
    # reproduce the team solution (necessary-and-sufficient conditions);
    # with pure LoS the coupling expectations are exact
    start = time.time()
    cfg, plan, stats = build_instance(0, kappa_override=np.inf)
    sigma2 = cfg.noise_power_w
    powers = plan.powers_w

    gen = np.random.default_rng(80)
    draws = sample_channels(stats, gen, 1)
    estimator = PilotEstimator(stats, plan, cfg)
    est = estimator.estimate(draws, gen)
    local = lmmse_local_matrices(est, plan)
    pi, _ = statistics_pass(estimator, 2, np.random.SeedSequence(81),
                            need_pi=True, need_lsfd=False)
    stage2, _ = stage2_all(pi, plan)
    team = assemble_ltmmse(local, stage2)[0]                   # (L, N, K)

    H = draws.true_channels[0]                                 # (L, N, K), deterministic
    worst = 0.0
    for k in range(cfg.ue_count):
        cluster = plan.cluster_of_ue[k]
        for l in cluster:
            # first-principles best response: conditional MMSE against the
            # residual after subtracting the other APs' fixed contributions
            cross = np.zeros(H.shape[1], dtype=complex)
            for j in cluster:
                if j != l:
                    cross += H[l] @ (powers[:, None] * H[j].conj().T) @ team[j, :, k]
            gram = H[l] @ (powers[:, None] * H[l].conj().T) + sigma2 * np.eye(H.shape[1])
            response = np.linalg.solve(gram, np.sqrt(powers[k]) * H[l, :, k] - cross)
            scale = np.linalg.norm(team[l, :, k])
            worst = max(worst, np.linalg.norm(response - team[l, :, k]) / scale)
    elapsed = time.time() - start
    assert worst < 1e-6
    assert elapsed < 10.0
    print(PASS.format(8, elapsed, f"best-response deviation {worst:.2e} < 1e-6"))


def test_criterion_9_worker_count_determinism(tmp_path):
    start = time.time()
    payload = {
        "experiment": "kappa_sweep",
        "area": {"ap_count": 8, "ue_count": 4, "antennas_per_ap": 2, "pilot_count": 2},
        "setups": 4,
        "stat_budget": 60,
        "eval_budget": 60,
        "kappa_grid": [0.0, 10.0],
        "seed": 90,
    }
    bodies = []
    for workers in (1, 2, 8):
        cfg = config_from_dict({**payload, "out_dir": str(tmp_path / f"w{workers}")})
        _, path = run_experiment(cfg, threads=workers)
        bodies.append(path.read_bytes().split(b"\n", 1)[1])
    elapsed = time.time() - start
    assert bodies[0] == bodies[1] == bodies[2]
    assert elapsed < 300.0
    print(PASS.format(9, elapsed, "CSV bodies identical for 1, 2 and 8 workers"))
