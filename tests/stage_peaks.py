"""Peak traced memory of each Monte Carlo stage of one experiment, with the stdlib and numpy.

    PYTHONPATH=src python tests/stage_peaks.py CONFIG.json [--seed N]

Runs the experiment of CONFIG.json in this process, on one worker and into a
temporary output directory, under `tracemalloc` (which sees numpy's arrays).
Each stage's callable is replaced at the name its caller looks it up, as the
benchmark's tracer does. For each stage the script prints how often it ran,
its highest traced peak, and the traced level on entry to that call, in MiB
and in units of one chunk-sized `(draws, L, N, K)` complex array, where
draws is `min(CHUNK, larger budget)`. A stage's peak includes the stages
nested in it. The stages are channel sampling, pilot estimation, the local
MMSE matrices, the centralized MMSE combiner, the statistics pass, the
per-draw terms and the two bounds; `run` is the whole experiment.
The name keeps pytest from collecting this file.
"""

from __future__ import annotations

import argparse
import functools
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIB = 2.0 ** 20

# stage -> (module, attribute) names its callers look up
STAGES = {
    "sampling": [("beamforming", "sample_channels")],
    "estimate": [("estimation", "PilotEstimator.estimate")],
    "local": [("beamforming", "lmmse_local_matrices"), ("evaluation", "lmmse_local_matrices")],
    "MMSE": [("evaluation", "mmse_combiner")],
    "statistics pass": [("evaluation", "statistics_pass")],
    "per-draw terms": [("evaluation", "_per_draw_terms")],
    "bounds": [("evaluation", "uatf_se"), ("evaluation", "cd_se")],
}


class StagePeaks:
    """Per-stage traced peaks: entering a stage resets the traced peak, after
    folding it into every stage still open, so nested stages lose nothing."""

    def __init__(self):
        self.open: list[list] = []       # [stage, level on entry, peak so far]
        self.calls: dict[str, int] = {}
        self.worst: dict[str, tuple[int, int]] = {}   # stage -> (peak, level on entry)

    def _fold(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        for frame in self.open:
            frame[2] = max(frame[2], peak)
        return current

    def run(self, stage: str, fn, *args, **kwargs):
        level = self._fold()
        tracemalloc.reset_peak()
        self.open.append([stage, level, level])
        try:
            return fn(*args, **kwargs)
        finally:
            self._fold()
            _, level, peak = self.open.pop()
            self.calls[stage] = self.calls.get(stage, 0) + 1
            if peak >= self.worst.get(stage, (-1, 0))[0]:
                self.worst[stage] = (peak, level)

    def wrap(self, owner, attr: str, stage: str) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            return self.run(stage, fn, *args, **kwargs)

        setattr(owner, attr, measured)


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "src")]
    import numpy as np

    from cellfree_sim import beamforming, estimation, evaluation
    from cellfree_sim.experiments import parse_config, run_experiment

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="path to the JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)

    peaks = StagePeaks()
    modules = {"beamforming": beamforming, "estimation": estimation, "evaluation": evaluation}
    for stage, names in STAGES.items():
        for module, attr in names:
            owner = modules[module]
            while "." in attr:
                head, attr = attr.split(".", 1)
                owner = getattr(owner, head)
            peaks.wrap(owner, attr, stage)

    with tempfile.TemporaryDirectory() as out_dir:
        overrides = {"out_dir": out_dir}
        if args.seed is not None:
            overrides["seed"] = args.seed
        cfg = parse_config(args.config, overrides)
        draws = min(beamforming.CHUNK, max(cfg.stat_budget, cfg.eval_budget))
        unit = max(draws * area.ap_count * area.antennas_per_ap * area.ue_count
                   for area, _ in cfg.grid) * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            peaks.run("run", run_experiment, cfg, 1)
        finally:
            tracemalloc.stop()

    print(f"{cfg.experiment}, seed {cfg.seed}: one chunk unit = {unit / MIB:.2f} MiB "
          f"({draws} draws)")
    print(f"{'stage':<16}{'calls':>7}{'entry MiB':>11}{'peak MiB':>10}{'entry':>8}{'peak':>7}")
    for stage in [*STAGES, "run"]:
        if stage not in peaks.worst:
            continue
        peak, level = peaks.worst[stage]
        print(f"{stage:<16}{peaks.calls[stage]:>7}{level / MIB:>11.1f}{peak / MIB:>10.1f}"
              f"{level / unit:>8.2f}{peak / unit:>7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
