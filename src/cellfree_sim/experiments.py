"""Experiments: Rician-factor sweep, density sweep, per-user SE CDF.

One driver, `run_experiment`, expands a config into grid points, runs a
number of independent network setups at each, evaluates the configured
schemes on shared draws, and writes one CSV per experiment. Rows are fully
deterministic for a given config and seed (the CSV carries a timestamped
comment line that should be skipped when comparing outputs).

The CSV has one column per `ResultRow` field, in field order. Per-UE rows
use the UE index in the `ue` column; aggregate rows use `min` or `sum`. For
the CDF experiment `sweep` holds the empirical CDF coordinate of the row's
SE sample. Floats are serialized with 17 significant digits.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .beamforming import Scheme
from .channel import build_channel_stats
from .channel import pair_geometry, stats_from_geometry  # noqa: F401  (perfbench/tracing.py wraps them)
from .errors import ConfigError, NumericalError
from .evaluation import SeReport, evaluate_schemes
from .rng import ROLE_DEPLOY, ROLE_PHASES, subsequence, substream
from .scenario import AreaConfig, apply_power_control, assign_pilots_and_clusters, deploy
from .scenario import MAX_COUNT, is_integer, is_number

log = logging.getLogger(__name__)

DEFAULT_SEED = 0xCE11F4EE

EXPERIMENTS = ("kappa_sweep", "density_sweep", "cdf")

# Desk-scale defaults keep a full experiment within CI-friendly runtimes;
# the reference large-network scale (100 APs, 40 UEs, 4 antennas, 5 pilots)
# is opted into through the config file.
DESK_AREA_DEFAULTS = {
    **dataclasses.asdict(AreaConfig()),
    "ap_count": 25,
    "ue_count": 8,
    "antennas_per_ap": 2,
    "pilot_count": 4,
    "pilot_power_w": None,  # defaults to p_max_w
}

DEFAULT_KAPPA_GRID = (0.0, 1.0, 5.0, 20.0, 100.0)
DEFAULT_D_GRID_M = (200.0, 400.0, 600.0, 800.0, 1000.0)
# Reference operating point for the proportional p_max scaling along d.
_P_MAX_PER_METER = 0.1 / 1000.0


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated run plan. `grid` holds `((area, ((sweep, kappa), ...)), ...)`,
    a kappa of `None` meaning the distance law: one area for every kappa
    (paired comparisons), one per density point (p_max proportional to d at
    the pilot/data power ratio), or one cdf point."""

    experiment: str
    grid: tuple[tuple[AreaConfig, tuple[tuple[float, float | None], ...]], ...]
    schemes: tuple[Scheme, ...]
    pc_exponent: float
    setups: int
    stat_budget: int
    eval_budget: int
    seed: int
    out_dir: Path


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    setup: int
    sweep: float
    scheme: Scheme
    bound: str              # "uatf" or "cd"
    ue: str                 # UE index, "min" or "sum"
    se: float
    ci: float
    stat_draws: int
    eval_draws: int
    seed: int

    def to_csv(self) -> str:
        """The row in field order: floats with 17 significant digits, the scheme by value."""
        cells = (getattr(self, f.name) for f in dataclasses.fields(self))
        return ",".join(f"{cell:.17g}" if isinstance(cell, float)
                        else str(getattr(cell, "value", cell)) for cell in cells)


def parse_config(path, overrides=None) -> ExperimentConfig:
    """Strict JSON config parser: unknown keys are rejected, every violation
    is collected and reported in one error. `overrides` replace top-level
    keys before validation, so they are checked like the file's own keys."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict({**raw, **(overrides or {})})


def config_from_dict(raw: dict) -> ExperimentConfig:
    problems: list[str] = []
    known = {"experiment", "area", "schemes", "pc_exponent", "kappa_grid", "d_grid",
             "setups", "stat_budget", "eval_budget", "seed", "out_dir"}
    unknown = set(raw) - known
    if unknown:
        problems.append(f"unknown keys: {sorted(unknown)}")

    experiment = raw.get("experiment")
    if experiment is None:
        problems.append("missing required key 'experiment'")
    elif experiment not in EXPERIMENTS:
        problems.append(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")

    area_raw = raw.get("area", {})
    area = None
    if not isinstance(area_raw, dict):
        problems.append("area must be an object")
    else:
        unknown_area = set(area_raw) - set(DESK_AREA_DEFAULTS)
        if unknown_area:
            problems.append(f"unknown area keys: {sorted(unknown_area)}")
        merged = {**DESK_AREA_DEFAULTS, **{k: v for k, v in area_raw.items() if k in DESK_AREA_DEFAULTS}}
        if merged["pilot_power_w"] is None:
            merged["pilot_power_w"] = merged["p_max_w"]
        try:
            area = AreaConfig(**merged)
            area.validate()
        except (ConfigError, TypeError) as exc:
            problems.append(f"area: {exc}")
            area = None

    schemes_raw = raw.get("schemes", [s.value for s in Scheme])
    schemes: tuple[Scheme, ...] = ()
    try:
        if not isinstance(schemes_raw, list):
            raise ValueError
        schemes = tuple(Scheme(s) for s in schemes_raw)
        if not schemes:
            problems.append("schemes must not be empty")
        elif len(set(schemes)) < len(schemes):
            problems.append("schemes must not repeat")
    except ValueError:
        problems.append(f"schemes must be a list drawn from {[s.value for s in Scheme]}")

    pc_exponent = raw.get("pc_exponent", -1.0)
    if not (is_number(pc_exponent) and math.isfinite(pc_exponent)):
        problems.append("pc_exponent must be a finite number")
    elif pc_exponent not in (-1, 0):
        log.warning("pc_exponent %s is outside the studied set {-1, 0}; proceeding", pc_exponent)

    kappa_grid = raw.get("kappa_grid", DEFAULT_KAPPA_GRID)
    if not isinstance(kappa_grid, (list, tuple)) or not all(
            is_number(x) and x >= 0 for x in kappa_grid):
        problems.append("kappa_grid must be a list of numbers >= 0")
    elif experiment == "kappa_sweep" and not kappa_grid:
        problems.append("kappa_grid must not be empty for kappa_sweep")

    d_grid_raw = raw.get("d_grid", [{"d_m": d} for d in DEFAULT_D_GRID_M])
    d_grid: tuple[tuple[float, float], ...] = ()
    if not isinstance(d_grid_raw, list) or not all(isinstance(i, dict) for i in d_grid_raw):
        problems.append("d_grid must be a list of objects")
    else:
        unknown_item = set().union(*d_grid_raw) - {"d_m", "p_max_w"}
        if unknown_item:
            problems.append(f"unknown d_grid keys: {sorted(unknown_item)}")
        else:
            items = []
            for item in d_grid_raw:
                d = item.get("d_m")
                p = item.get("p_max_w", float(d) * _P_MAX_PER_METER if is_number(d) else None)
                if not all(is_number(x) and 0.0 < x < math.inf for x in (d, p)):
                    problems.append("d_grid: d_m and p_max_w must be positive finite numbers")
                    break
                items.append((float(d), float(p)))
            else:
                d_grid = tuple(items)
    if experiment == "density_sweep" and not d_grid:
        problems.append("d_grid must not be empty for density_sweep")

    setups = raw.get("setups", 10)
    if not is_integer(setups) or not 1 <= setups <= MAX_COUNT:
        problems.append(f"setups must be an integer in [1, {MAX_COUNT}]")
    stat_budget = raw.get("stat_budget", 300)
    eval_budget = raw.get("eval_budget", 300)
    for name, value in (("stat_budget", stat_budget), ("eval_budget", eval_budget)):
        if not is_integer(value) or not 2 <= value <= MAX_COUNT:
            problems.append(f"{name} must be an integer in [2, {MAX_COUNT}]")
    seed = raw.get("seed", DEFAULT_SEED)
    if not is_integer(seed) or seed < 0:
        problems.append("seed must be a nonnegative integer")
    out_dir = raw.get("out_dir", ".")
    if not isinstance(out_dir, (str, os.PathLike)):
        problems.append("out_dir must be a path string")

    if not problems:  # every raw key is well formed: resolve the grid's areas
        if experiment == "kappa_sweep":
            grid = ((area, tuple((float(kappa), kappa) for kappa in kappa_grid)),)
        elif experiment == "density_sweep":
            pilot_ratio = area.pilot_power_w / area.p_max_w
            grid = tuple((dataclasses.replace(area, side_length_m=d, p_max_w=p_max,
                                              pilot_power_w=pilot_ratio * p_max), ((d, None),))
                         for d, p_max in d_grid)
            for d_area, ((d, _),) in grid:
                try:
                    d_area.validate()
                except ConfigError as exc:
                    problems.append(f"d_grid d_m={d:g}: {exc}")
        else:
            grid = ((area, ((0.0, None),)),)
    if problems:
        raise ConfigError("invalid config: " + "; ".join(problems))
    return ExperimentConfig(
        experiment=experiment,
        grid=grid,
        schemes=schemes,
        pc_exponent=float(pc_exponent),
        setups=setups,
        stat_budget=stat_budget,
        eval_budget=eval_budget,
        seed=seed,
        out_dir=Path(out_dir),
    )


def _setup_reports(cfg: ExperimentConfig, area: AreaConfig, setup: int,
                   kappas: list[float | None]) -> list[dict[Scheme, SeReport]]:
    """Deploy, plan and evaluate one setup at each Rician factor in `kappas`.

    `None` means the distance law. The deployment, plan, LoS phases and the
    (kappa-independent) scattering geometry are built once and shared by
    every kappa (`build_channel_stats`). Streams depend only on (seed, setup,
    role), so any scheduling order gives identical results.
    """
    base = subsequence(cfg.seed, setup)
    dep = deploy(area, substream(base, ROLE_DEPLOY))
    plan = assign_pilots_and_clusters(dep, area)
    plan = apply_power_control(plan, dep, cfg.pc_exponent, area.p_max_w)
    try:
        return [
            evaluate_schemes(stats, plan, area, cfg.schemes, cfg.stat_budget, cfg.eval_budget, base)
            for stats in build_channel_stats(dep, area, substream(base, ROLE_PHASES), kappas)
        ]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"setup {setup} (side {area.side_length_m:g} m): {exc}") from exc


def _report_rows(cfg: ExperimentConfig, setup: int, sweep: float,
                 reports: dict[Scheme, SeReport]) -> list[ResultRow]:
    rows = []
    for scheme in cfg.schemes:
        rep = reports[scheme]
        stat_draws = 0 if scheme is Scheme.MMSE else cfg.stat_budget
        for bound, est in (("uatf", rep.uatf), ("cd", rep.cd)):
            common = dict(
                experiment=cfg.experiment, setup=setup, sweep=sweep, scheme=scheme,
                bound=bound, stat_draws=stat_draws, eval_draws=cfg.eval_budget,
                seed=cfg.seed,
            )
            for k in range(len(est.se)):
                rows.append(ResultRow(ue=str(k), se=float(est.se[k]), ci=float(est.ci[k]), **common))
            k_min = int(np.argmin(est.se))
            rows.append(ResultRow(ue="min", se=float(est.se[k_min]), ci=float(est.ci[k_min]), **common))
            rows.append(ResultRow(
                ue="sum", se=float(est.se.sum()), ci=float(np.sqrt((est.ci ** 2).sum())), **common
            ))
    return rows


def _cdf_rows(rows: list[ResultRow]) -> list[ResultRow]:
    """Pool the per-UE rows of all setups per (scheme, bound) and emit them
    sorted, with empirical CDF coordinates in the sweep column."""
    samples: dict[tuple[Scheme, str], list[ResultRow]] = {}
    for row in rows:
        if row.ue not in ("min", "sum"):
            samples.setdefault((row.scheme, row.bound), []).append(row)
    pooled = []
    for sample in samples.values():
        sample.sort(key=lambda r: (r.se, r.setup, int(r.ue)))
        pooled.extend(dataclasses.replace(row, sweep=rank / len(sample))
                      for rank, row in enumerate(sample, start=1))
    return pooled


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> tuple[list[ResultRow], Path]:
    """Run every (area, setup) of the experiment's grid and write its CSV.

    Tasks run on `min(threads, tasks)` workers, serially when that is 1;
    rows come out point by point, setups in order, whatever the scheduling.
    The output directory is created before any setup runs, so an unusable
    `out_dir` fails at once.
    """
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.out_dir}: {exc}") from exc
    tasks = [(area, setup, [kappa for _, kappa in points])
             for area, points in cfg.grid for setup in range(cfg.setups)]
    workers = min(threads, len(tasks))
    if workers <= 1:
        results = [_setup_reports(cfg, *task) for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda task: _setup_reports(cfg, *task), tasks))

    rows = []
    for g, (_, points) in enumerate(cfg.grid):
        per_setup = results[g * cfg.setups:(g + 1) * cfg.setups]
        for i, (sweep, _) in enumerate(points):
            for setup, reports in enumerate(per_setup):
                rows.extend(_report_rows(cfg, setup, sweep, reports[i]))
    if cfg.experiment == "cdf":
        rows = _cdf_rows(rows)
    return rows, write_csv(cfg, rows)


def write_csv(cfg: ExperimentConfig, rows: list[ResultRow]) -> Path:
    path = cfg.out_dir / f"{cfg.experiment}.csv"
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    header = ",".join(f.name for f in dataclasses.fields(ResultRow))
    lines = [f"# cellfree-sim generated {stamp}", header]
    lines.extend(row.to_csv() for row in rows)
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write results to {path}: {exc}") from exc
    return path
