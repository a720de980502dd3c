"""Regenerate the reference rows that the benchmark compares its runs against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload (default: all) at the default and the held-out seed with
one worker and stores its result CSV, without the timestamp line, as
perfbench/reference/<workload>-seed<n>.csv.gz. Only regenerate them for a
change that is meant to alter the simulator's numbers, and say so.
"""

from __future__ import annotations

import gzip
import sys
import tempfile
from pathlib import Path

import checks
from workloads import DEFAULT_SEED, HELDOUT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def main(names: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from cellfree_sim.experiments import config_from_dict, run_experiment

    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        for seed in (DEFAULT_SEED, HELDOUT_SEED):
            with tempfile.TemporaryDirectory() as tmp:
                _, csv_path = run_experiment(config_from_dict(workload.config(seed, tmp)),
                                             threads=1)
                lines = [ln for ln in Path(csv_path).read_text().splitlines()
                         if not ln.startswith("#")]
            text = "\n".join(lines) + "\n"
            checks.parse_rows(text)
            path = checks.reference_path(name, seed)
            path.write_bytes(gzip.compress(text.encode(), mtime=0))
            print(f"{path.relative_to(ROOT)}: {len(lines) - 1} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
