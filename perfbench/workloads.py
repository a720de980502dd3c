"""Benchmark workloads: each one turns a seed into a cellfree-sim config.

The simulator only ever sees the generated config dict; the benchmark seed is
hashed together with the workload name into the config's `seed`, so two
workloads never share a network drop and the same benchmark seed always gives
the same inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass, field

# Desk scale: small enough that one setup takes seconds.
DESK_AREA = {"side_length_m": 1000.0, "ap_count": 36, "ue_count": 16,
             "antennas_per_ap": 2, "pilot_count": 4}
# Reference scale of the paper's large network.
REFERENCE_AREA = {"side_length_m": 1000.0, "ap_count": 100, "ue_count": 40,
                  "antennas_per_ap": 4, "pilot_count": 5}
# Toy scale for the smoke test only: every workload shrinks to this area.
TOY_AREA = {"side_length_m": 400.0, "ap_count": 9, "ue_count": 4,
            "antennas_per_ap": 2, "pilot_count": 2}

KAPPA_GRID = [0.0, 1.0, 5.0, 20.0, 100.0]
D_GRID = [200.0, 400.0, 600.0, 800.0, 1000.0]

# kappa_desk goes through the experiments' setup pool with up to 2 workers.
POOL_WORKERS = min(2, len(os.sched_getaffinity(0)))

DEFAULT_SEED = 1
# Not used while the benchmark was written: confirm a claim on it.
HELDOUT_SEED = 20240905


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    area: dict
    setups: int
    stat_budget: int
    eval_budget: int
    workers: int
    grid: dict = field(default_factory=dict)

    def grid_points(self) -> int:
        if self.experiment == "kappa_sweep":
            return len(self.grid["kappa_grid"])
        if self.experiment == "density_sweep":
            return len(self.grid["d_grid"])
        return 1

    def operations(self) -> int:
        """Operations of one experiment: network setups x grid points."""
        return self.setups * self.grid_points()

    def program_seed(self, seed: int) -> int:
        digest = hashlib.sha256(f"{self.name}/{seed}".encode()).digest()
        return int.from_bytes(digest[:4], "big")

    def config(self, seed: int, out_dir: str) -> dict:
        return {
            "experiment": self.experiment,
            "area": dict(self.area),
            "setups": self.setups,
            "stat_budget": self.stat_budget,
            "eval_budget": self.eval_budget,
            "seed": self.program_seed(seed),
            "out_dir": out_dir,
            **self.grid,
        }

    def toy(self) -> "Workload":
        return dataclasses.replace(self, area=TOY_AREA, setups=self.workers,
                                   stat_budget=10, eval_budget=10)


# Why each workload exists is in BENCHMARK.json and NOTES.md. Each child runs
# one or two network setups (100+100 draws for cdf_ref) so that wall_s is a
# median over several children within one run.
WORKLOADS = {
    w.name: w for w in (
        Workload("kappa_desk", "kappa_sweep", DESK_AREA, setups=2, stat_budget=300,
                 eval_budget=300, workers=POOL_WORKERS, grid={"kappa_grid": KAPPA_GRID}),
        Workload("density_desk", "density_sweep", DESK_AREA, setups=1, stat_budget=60,
                 eval_budget=60, workers=1, grid={"d_grid": [{"d_m": d} for d in D_GRID]}),
        Workload("cdf_ref", "cdf", REFERENCE_AREA, setups=1, stat_budget=100,
                 eval_budget=100, workers=1),
    )
}
