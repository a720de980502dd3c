"""sha256 of the result CSVs that show whether a change moved the simulator's numbers.

    python tests/csv_hashes.py

Runs 9 experiments in this process, each on one worker into a temporary
directory, and prints the sha256 of each CSV without its timestamp line: the
3 golden configs of `make_golden.GOLDEN_CONFIGS`, and the benchmark workloads
`kappa_desk`, `density_desk` and `cdf_ref` at the benchmark's default and
held-out seeds, with their configs read from `perfbench/workloads.py`.
The runs are hashed, not the files under `tests/data/`, because
`test_golden.py` compares those within a tolerance, not byte for byte.
Hashes depend on the BLAS thread count too, so compare runs under the same
`OPENBLAS_NUM_THREADS`. Needs the stdlib and the package only.
The name keeps pytest from collecting this file.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("kappa_desk", "density_desk", "cdf_ref")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    from make_golden import GOLDEN_CONFIGS, run_without_stamp
    from workloads import DEFAULT_SEED, HELDOUT_SEED, WORKLOADS as BENCH

    configs = dict(GOLDEN_CONFIGS)
    for seed in (DEFAULT_SEED, HELDOUT_SEED):
        for name in WORKLOADS:
            configs[f"{name}@{seed}"] = BENCH[name].config(seed, out_dir="")
    for name, raw in configs.items():
        with tempfile.TemporaryDirectory() as tmp:
            text = run_without_stamp(raw, tmp)
        print(f"{hashlib.sha256(text.encode()).hexdigest()}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
