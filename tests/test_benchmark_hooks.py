"""The callables the benchmark's tracer wraps must keep their names.

`perfbench/tracing.py` patches simulator callables at the names their calling
modules bind. A refactor that drops one of those names makes every traced
benchmark run fail, so this test resolves each name without patching any.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
