"""The callables the benchmark's tracer wraps must keep their names.

`perfbench/tracing.py` patches simulator callables at the names their calling
modules bind, and its counters read fields of what they return. A refactor
that drops one of those names or fields makes every traced benchmark run
fail, so one test resolves each name without patching any, and another runs
a toy traced experiment end to end. That run also checks that setups are built
through the wrapped `experiments.build_channel_stats`, so its layer measures
real work instead of reading 0.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    looked_up = []

    class LookupOnly(tracing.Tracer):
        def wrap(self, owner, attr, name, count=None):
            getattr(owner, attr)
            looked_up.append((owner.__name__, attr))

    tracing.install(LookupOnly())
    for name in [("cellfree_sim.experiments", "build_channel_stats"),
                 ("cellfree_sim.evaluation", "statistics_pass"),
                 ("cellfree_sim.evaluation", "lmmse_local_matrices"),
                 ("cellfree_sim.beamforming", "lmmse_local_matrices"),
                 ("cellfree_sim.evaluation", "stage2_all"),
                 ("cellfree_sim.channel", "pair_geometry"),
                 ("cellfree_sim.experiments", "pair_geometry"),
                 ("cellfree_sim.channel", "stats_from_geometry"),
                 ("cellfree_sim.experiments", "stats_from_geometry"),
                 ("PilotEstimator", "__init__")]:
        assert name in looked_up


def test_traced_toy_run_reads_every_counter(tmp_path):
    # 1 setup x 2 kappas x (10 + 10) draws = 40 draws; 4 UEs per evaluation
    config = {"experiment": "kappa_sweep",
              "area": {"side_length_m": 400.0, "ap_count": 9, "ue_count": 4,
                       "antennas_per_ap": 2, "pilot_count": 2},
              "kappa_grid": [0.0, 5.0], "setups": 1, "stat_budget": 10, "eval_budget": 10,
              "seed": 5, "out_dir": str(tmp_path / "out")}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), "trace",
                          str(config_path), "1", str(tmp_path / "spans.json")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert "error" not in result, result["error"]
    assert result["nesting_errors"] == []
    layers = result["layers"]
    assert layers["channel.sample_channels.draws"] == 40
    assert layers["estimation.estimate.draws"] == 40
    assert layers["safety.ue_attempts"] == 8
    assert layers["channel.build_channel_stats.busy_s"] > 0
