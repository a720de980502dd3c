"""Metamorphic invariants: power and noise scaling, UE and AP relabelling.

Scaling every power and the noise by one factor leaves every SINR, and so
every spectral efficiency, unchanged. Relabelling UEs or APs permutes the
outputs of each layer whose inputs are draws. End to end the random streams
are keyed by array position, so relabelling is tested layer by layer.
"""

from dataclasses import replace

import numpy as np
import pytest

from cellfree_sim.beamforming import (
    LsfdMoments,
    PiSet,
    estimated_draws,
    lmmse_local_matrices,
    lsfd_weights,
    stage2_all,
    statistics_pass,
)
from cellfree_sim.estimation import EstimateSet, PilotEstimator
from cellfree_sim.evaluation import cd_se, uatf_se
from cellfree_sim.experiments import (
    DESK_AREA_DEFAULTS,
    EXPERIMENTS,
    config_from_dict,
    run_experiment,
)

from conftest import build_instance
from oracles import dense_mmse_combiner


def scaled_results(tmp_path, experiment, c):
    """(se, ci) of every row with p_max, pilot power and noise power times c."""
    area = {"ap_count": 16, "ue_count": 6, "p_max_w": 0.1 * c, "pilot_power_w": 0.1 * c,
            "noise_power_w": DESK_AREA_DEFAULTS["noise_power_w"] * c}
    raw = {"experiment": experiment, "area": area, "setups": 2,
           "stat_budget": 100, "eval_budget": 100, "kappa_grid": [0.0, 5.0],
           "d_grid": [{"d_m": 300.0, "p_max_w": 0.03 * c}, {"d_m": 1000.0, "p_max_w": 0.1 * c}],
           "seed": 21, "out_dir": str(tmp_path / f"c{c}")}
    rows, _ = run_experiment(config_from_dict(raw))
    return np.array([(row.se, row.ci) for row in rows])


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_power_and_noise_scaling_leaves_results_unchanged(tmp_path, experiment):
    base = scaled_results(tmp_path, experiment, 1)
    assert np.all(np.isfinite(base)) and base[:, 0].max() > 0.0
    # a power of two scales without rounding, so the results stay bit-identical,
    # also where an unnormalized combiner's squared gains would under- or overflow
    for c in (4, 4 ** 300, 4 ** -300):
        np.testing.assert_array_equal(scaled_results(tmp_path, experiment, c), base)
    np.testing.assert_allclose(scaled_results(tmp_path, experiment, 3), base, rtol=1e-11, atol=0)


UE_ORDER = np.array([3, 0, 4, 2, 1])
AP_ORDER = np.array([5, 2, 7, 0, 6, 1, 4, 3])


def assert_permuted(actual, expected):
    """Equal up to the summation order of BLAS: 1e-12 of the largest entry."""
    np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12 * np.abs(expected).max())


def relabel_ues(plan, order):
    """The plan in which UE j is UE order[j] of `plan`."""
    return replace(
        plan,
        pilot_of_ue=plan.pilot_of_ue[order],
        cluster_of_ue=tuple(plan.cluster_of_ue[k] for k in order),
        powers_w=plan.powers_w[order],
        pilot_powers_w=plan.pilot_powers_w[order],
    )


def relabel_aps(plan, order):
    """The plan in which AP l is AP order[l] of `plan`."""
    new_label = np.argsort(order)
    return replace(plan, cluster_of_ue=tuple(np.sort(new_label[c]) for c in plan.cluster_of_ue))


@pytest.fixture(scope="module")
def instance():
    cfg, plan, stats = build_instance(seed=11, L=8, K=5, N=2, tau_p=3)
    # distinct powers, so that a power read under the wrong label shows
    plan = replace(plan, powers_w=0.1 * np.array([1.0, 0.3, 0.7, 0.5, 0.9]),
                   pilot_powers_w=0.1 * np.array([0.6, 1.0, 0.8, 0.4, 0.9]))
    estimator = PilotEstimator(stats, plan, cfg)
    draws, est = next(estimated_draws(estimator, 64, np.random.SeedSequence(3)))
    pi, moments = statistics_pass(estimator, 256, np.random.SeedSequence(4),
                                  need_pi=True, need_lsfd=True)
    assert np.unique(plan.pilot_of_ue).size < len(plan.pilot_of_ue)   # some pilot is shared
    return cfg, plan, draws, est, pi, moments


@pytest.mark.parametrize("combiner", [pytest.param(dense_mmse_combiner, id="mmse_combiner"),
                                      lmmse_local_matrices])
def test_combiners_follow_ue_relabelling(instance, combiner):
    _, plan, _, est, _, _ = instance
    relabelled = EstimateSet(estimates=est.estimates[..., UE_ORDER], c_matrices=est.c_matrices)
    assert_permuted(combiner(relabelled, relabel_ues(plan, UE_ORDER)),
                    combiner(est, plan)[..., UE_ORDER])


@pytest.mark.parametrize("combiner", [pytest.param(dense_mmse_combiner, id="mmse_combiner"),
                                      lmmse_local_matrices])
def test_combiners_follow_ap_relabelling(instance, combiner):
    _, plan, _, est, _, _ = instance
    relabelled = EstimateSet(estimates=est.estimates[:, AP_ORDER],
                             c_matrices=est.c_matrices[AP_ORDER])
    assert_permuted(combiner(relabelled, relabel_aps(plan, AP_ORDER)),
                    combiner(est, plan)[:, AP_ORDER])


def test_stage_two_follows_ue_relabelling(instance):
    _, plan, _, _, pi, _ = instance
    o = UE_ORDER
    relabelled = PiSet(pi=pi.pi[:, o][:, :, o], se=pi.se[:, o][:, :, o])
    full, flagged = stage2_all(pi, plan)
    full_relabelled, flagged_relabelled = stage2_all(relabelled, relabel_ues(plan, o))
    assert_permuted(full_relabelled, full[o][:, :, o])
    assert sorted(o[list(flagged_relabelled)]) == sorted(flagged)


def test_lsfd_weights_follow_ue_relabelling(instance):
    *_, moments = instance
    o = UE_ORDER
    relabelled = LsfdMoments(mean_gain=tuple(moments.mean_gain[k] for k in o),
                             denominator=tuple(moments.denominator[k] for k in o))
    weights, flagged = lsfd_weights(moments)
    weights_relabelled, flagged_relabelled = lsfd_weights(relabelled)
    for j, k in enumerate(o):
        assert_permuted(weights_relabelled[j], weights[k])
    assert sorted(o[list(flagged_relabelled)]) == sorted(flagged)


def test_bounds_follow_ue_relabelling(instance):
    cfg, plan, draws, est, _, _ = instance
    R, L, N, K = est.estimates.shape
    v = dense_mmse_combiner(est, plan)
    v_h = v.reshape(R, L * N, K).conj().swapaxes(1, 2)
    gains = v_h @ draws.true_channels.reshape(R, L * N, K)
    est_gains = v_h @ est.estimates.reshape(R, L * N, K)
    c_v = est.c_matrices @ v
    quad = np.sum(v.real * c_v.real + v.imag * c_v.imag, axis=(1, 2))
    vnorm2 = np.sum(np.abs(v) ** 2, axis=(1, 2))
    prelog = 0.9

    o = UE_ORDER
    uatf, _ = uatf_se(gains, vnorm2, plan.powers_w, cfg.noise_power_w, prelog)
    uatf_relabelled, _ = uatf_se(gains[:, o][:, :, o], vnorm2[:, o], plan.powers_w[o],
                                 cfg.noise_power_w, prelog)
    cd = cd_se(est_gains, quad, plan.powers_w, prelog)
    cd_relabelled = cd_se(est_gains[:, o][:, :, o], quad[:, o], plan.powers_w[o], prelog)
    for got, want in ((uatf_relabelled, uatf), (cd_relabelled, cd)):
        assert_permuted(got.se, want.se[o])
        assert_permuted(got.ci, want.ci[o])
