"""Network deployment and large-scale parameters.

Generates random AP/UE drops on a square service area with wrap-around,
computes 3-D distances, angles and COST-231-style path gains, assigns pilots
and user-centric serving clusters with a sequential master-AP rule, and sets
per-UE transmit powers with fractional power control.

Conventions: all pairwise matrices are indexed [ue, ap] (K rows, L columns).
Gains are stored in dB including shadow fading; linear-scale conversions
happen at the point of use.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError

# Offsets of the 9 mirror copies used to emulate an infinite service area.
_WRAP_SHIFTS = np.array([(i, j) for i in (-1.0, 0.0, 1.0) for j in (-1.0, 0.0, 1.0)])
_COUNT_FIELDS = ("ap_count", "ue_count", "antennas_per_ap", "pilot_count", "coherence_symbols")
# Every count in a config stays within the int32 range; larger values would
# otherwise fail deep inside numpy instead of at validation.
MAX_COUNT = 2**31 - 1


def is_integer(value) -> bool:
    """True for integers, including numpy integers; False for bools."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """True for real non-bool numbers other than NaN that fit a float (infinities pass)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return not math.isnan(value)
    except OverflowError:  # an integer beyond the float range
        return False


@dataclass(frozen=True)
class AreaConfig:
    """Static parameters of one simulated network."""

    side_length_m: float = 1000.0
    ap_count: int = 100
    ue_count: int = 40
    antennas_per_ap: int = 4
    height_diff_m: float = 11.0
    carrier_freq_mhz: float = 5000.0
    shadow_std_db: float = 8.0
    pilot_count: int = 5
    coherence_symbols: int = 200
    p_max_w: float = 0.1
    pilot_power_w: float = 0.1
    # -174 dBm/Hz thermal density + 7 dB noise figure over 100 MHz.
    noise_power_w: float = 10 ** (-8.7) * 1e-3

    def validate(self) -> None:
        problems = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _COUNT_FIELDS:
                if not is_integer(value) or not 1 <= value <= MAX_COUNT:
                    problems.append(f"{f.name} must be an integer in [1, {MAX_COUNT}]")
            elif not (is_number(value) and math.isfinite(value)):
                problems.append(f"{f.name} must be a finite number")
        if problems:  # the checks below compare values, so they need numbers
            raise ConfigError("; ".join(problems))
        if self.side_length_m <= 0:
            problems.append("side_length_m must be > 0")
        if self.pilot_count > self.coherence_symbols:
            problems.append("pilot_count must not exceed coherence_symbols")
        for name in ("carrier_freq_mhz", "p_max_w", "pilot_power_w", "noise_power_w"):
            if getattr(self, name) <= 0:
                problems.append(f"{name} must be > 0")
        if not 0 <= self.height_diff_m <= math.sqrt(sys.float_info.max):
            problems.append("height_diff_m must be >= 0 with a square within the float range")
        # a UE lies less than 2 sides from each mirror copy of an AP along either axis
        elif math.hypot(2.0 * math.sqrt(2.0) * self.side_length_m,
                        self.height_diff_m) > math.sqrt(sys.float_info.max):
            problems.append("side_length_m (d_m of a density sweep) must keep every squared "
                            "wrapped distance within the float range")
        if self.shadow_std_db < 0:
            problems.append("shadow_std_db must be >= 0")
        if problems:
            raise ConfigError("; ".join(problems))


@dataclass(frozen=True)
class Deployment:
    """One random drop of APs and UEs with derived large-scale geometry."""

    ap_xy: np.ndarray        # (L, 2) meters
    ue_xy: np.ndarray        # (K, 2) meters
    distances_3d: np.ndarray  # (K, L) meters, wrap-around minimal
    azimuth: np.ndarray      # (K, L) radians in (-pi, pi]
    elevation: np.ndarray    # (K, L) radians in (0, pi/2]
    gains_db: np.ndarray     # (K, L) channel gain in dB, shadow fading included


@dataclass(frozen=True)
class ServicePlan:
    """Pilot allocation, serving clusters and transmit powers for one drop."""

    pilot_of_ue: np.ndarray               # (K,) pilot index in [0, pilot_count)
    cluster_of_ue: tuple[np.ndarray, ...]  # per UE, sorted indices of serving APs
    powers_w: np.ndarray                  # (K,) uplink data power
    pilot_powers_w: np.ndarray            # (K,) uplink pilot power


def path_gain_db(d_m, f_mhz, shadow_db=0.0):
    """Channel gain in dB for the urban-microcell COST-231 Walfish-Ikegami fit.

    gain = 35.4 - 20 log10(f_mhz) - 26 log10(d_m / 1 m) + shadow_db
    """
    d_m = np.asarray(d_m, dtype=float)
    if np.any(d_m <= 0) or f_mhz <= 0:
        raise ConfigError("distance and carrier frequency must be positive")
    return 35.4 - 20.0 * np.log10(f_mhz) - 26.0 * np.log10(d_m) + shadow_db


def rician_factor(d_m):
    """Distance-dependent Rician factor kappa = 10^(1.3 - 0.003 d)."""
    return 10.0 ** (1.3 - 0.003 * np.asarray(d_m, dtype=float))


def deploy(cfg: AreaConfig, rng: np.random.Generator) -> Deployment:
    """Drop APs and UEs uniformly on the square and fill all pairwise geometry.

    The distance of each pair is minimized over the 9 wrap-around copies of
    the AP; azimuth and elevation are taken toward the minimizing copy so the
    angles match the dominant propagation path.
    """
    cfg.validate()
    side = cfg.side_length_m
    ap_xy = rng.uniform(0.0, side, size=(cfg.ap_count, 2))
    ue_xy = rng.uniform(0.0, side, size=(cfg.ue_count, 2))

    # diff[k, l, s, :] = ue_k - (ap_l + shift_s * side)
    diff = ue_xy[:, None, None, :] - (ap_xy[None, :, None, :] + _WRAP_SHIFTS[None, None, :, :] * side)
    planar_sq = np.sum(diff**2, axis=-1)              # (K, L, 9)
    best = np.argmin(planar_sq, axis=-1)              # (K, L)
    k_idx, l_idx = np.indices(best.shape)
    best_diff = diff[k_idx, l_idx, best]              # (K, L, 2), UE minus nearest AP copy
    d3d = np.sqrt(planar_sq[k_idx, l_idx, best] + cfg.height_diff_m**2)

    azimuth = np.arctan2(best_diff[..., 1], best_diff[..., 0])
    elevation = np.arcsin(np.clip(cfg.height_diff_m / d3d, 0.0, 1.0))

    shadow = rng.normal(0.0, cfg.shadow_std_db, size=d3d.shape)
    gains_db = path_gain_db(d3d, cfg.carrier_freq_mhz, shadow)
    if np.any(gains_db >= 10.0 * math.log10(sys.float_info.max)):  # 10 ** (gain / 10) = inf
        raise ConfigError("a channel gain overflows the float range as a linear value; lower "
                          "shadow_std_db or raise carrier_freq_mhz")

    return Deployment(
        ap_xy=ap_xy,
        ue_xy=ue_xy,
        distances_3d=d3d,
        azimuth=azimuth,
        elevation=elevation,
        gains_db=gains_db,
    )


def assign_pilots_and_clusters(dep: Deployment, cfg: AreaConfig) -> ServicePlan:
    """Sequential pilot assignment and user-centric cluster formation.

    Each UE in turn appoints the AP with the strongest gain as its master; the
    master assigns the pilot carrying the least contamination (sum of linear
    gains of UEs already on that pilot, measured at the master). Afterwards
    every AP serves, per pilot, the strongest UE among those using it. The
    master AP always serves its own UE, so no cluster is empty even when the
    UE loses every per-pilot contest. Ties break toward the lowest index.

    Powers are filled with full power p_max; run `power_control` afterwards
    for other policies.
    """
    K, L = dep.gains_db.shape
    tau_p = cfg.pilot_count
    beta_lin = 10.0 ** (dep.gains_db / 10.0)

    pilot_of_ue = np.full(K, -1, dtype=int)
    masters = np.empty(K, dtype=int)
    for k in range(K):
        master = int(np.argmax(beta_lin[k]))
        masters[k] = master
        contamination = np.zeros(tau_p)
        for t in range(tau_p):
            on_t = pilot_of_ue[:k] == t
            contamination[t] = beta_lin[:k][on_t, master].sum()
        pilot_of_ue[k] = int(np.argmin(contamination))

    # Per-AP, per-pilot contest: strongest UE on each pilot gets served.
    serving = np.zeros((K, L), dtype=bool)
    for t in range(tau_p):
        users = np.flatnonzero(pilot_of_ue == t)
        if users.size == 0:
            continue
        winners = users[np.argmax(beta_lin[users, :], axis=0)]  # (L,)
        serving[winners, np.arange(L)] = True
    serving[np.arange(K), masters] = True

    clusters = tuple(np.flatnonzero(serving[k]) for k in range(K))
    full_power = np.full(K, cfg.p_max_w)
    pilot_power = np.full(K, cfg.pilot_power_w)
    return ServicePlan(
        pilot_of_ue=pilot_of_ue,
        cluster_of_ue=clusters,
        powers_w=full_power,
        pilot_powers_w=pilot_power,
    )


def power_control(gains_db: np.ndarray, clusters, v: float, p_max: float) -> np.ndarray:
    """Fractional uplink power control.

    p_k = p_max * (sum of linear cluster gains)^v / max_i (same)^v. v=0 gives
    full power for everyone, v=-1 equalizes p_k * sum(beta) across UEs.
    The ratio is formed in the log domain, where a large |v| cannot overflow
    or underflow it, so the UE with the largest weight gets exactly p_max.
    """
    beta_lin = 10.0 ** (np.asarray(gains_db, dtype=float) / 10.0)
    sums = np.array([beta_lin[k, cluster].sum() for k, cluster in enumerate(clusters)])
    if v < 0 and np.any(sums == 0.0):
        raise ConfigError("every serving gain of a UE underflows to zero, which a negative "
                          "power-control exponent cannot weight; lower side_length_m (d_m of "
                          "a density sweep) or carrier_freq_mhz")
    if v == 0:  # full power, also for a zero sum, where v * ln 0 would be NaN
        return np.full(sums.shape, float(p_max))
    # ln 0 = -inf gives a zero sum power 0 for v > 0, and so does an exponent
    # v * (ln s_k - ln s_max) that overflows to -inf.
    with np.errstate(divide="ignore", over="ignore"):
        log_sums = np.log(sums)
        top = log_sums.max() if v > 0 else log_sums.min()   # the sum with the largest s^v
        return p_max * np.exp(v * (log_sums - top))


def apply_power_control(plan: ServicePlan, dep: Deployment, v: float, p_max: float) -> ServicePlan:
    """Return a copy of `plan` with powers set by fractional power control."""
    return replace(plan, powers_w=power_control(dep.gains_db, plan.cluster_of_ue, v, p_max))
