"""Regenerate the golden CSVs that tests/test_golden.py compares runs against.

    PYTHONPATH=src python tests/make_golden.py

Runs a small kappa sweep (1 setup, kappa 0 and 20), a small density sweep
(1 setup, d 300 and 1000 m) and a small CDF experiment (2 setups) on the
default desk area with a fixed seed and 100+100 draws, and stores each
result CSV without its timestamp line under tests/data/. Only regenerate them
for a change that is meant to alter the simulator's numbers, and say so.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from cellfree_sim.experiments import config_from_dict, run_experiment

DATA_DIR = Path(__file__).resolve().parent / "data"
SEED = 20240905
BUDGETS = {"stat_budget": 100, "eval_budget": 100, "seed": SEED}
GOLDEN_CONFIGS = {
    "golden_kappa_sweep.csv": {"experiment": "kappa_sweep", "setups": 1,
                               "kappa_grid": [0.0, 20.0], **BUDGETS},
    "golden_density_sweep.csv": {"experiment": "density_sweep", "setups": 1,
                                 "d_grid": [{"d_m": 300.0}, {"d_m": 1000.0}], **BUDGETS},
    "golden_cdf.csv": {"experiment": "cdf", "setups": 2, **BUDGETS},
}


def run_without_stamp(raw: dict, out_dir) -> str:
    """Run one experiment and return its CSV text minus the timestamp line."""
    _, path = run_experiment(config_from_dict({**raw, "out_dir": str(out_dir)}))
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    return "\n".join(lines) + "\n"


def main() -> int:
    DATA_DIR.mkdir(exist_ok=True)
    for name, raw in GOLDEN_CONFIGS.items():
        with tempfile.TemporaryDirectory() as tmp:
            text = run_without_stamp(raw, tmp)
        (DATA_DIR / name).write_text(text)
        print(f"{name}: {text.count(chr(10)) - 1} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
