"""In-memory span tracer wrapped around cellfree-sim's callables from outside.

`install` replaces each traced callable at the name its calling module binds
(for example `cellfree_sim.evaluation.mmse_combiner`), so the simulator's own
code is unchanged. Every call becomes one span: name, start, end, the span
that caused it, its thread, and counts of the work it did. Spans are kept in
memory; the caller writes them out when the run ends.

A span's parent is the innermost open span on the same thread. Pool worker
threads have no open span of their own, so their top-level spans hang off the
root span, which wraps the whole experiment.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import asdict, dataclass, field

ROOT = "experiments.run_experiment"
SCHEMES = ("MMSE", "LMMSE_LSFD", "LTMMSE")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else self._root
        with self._lock:
            span = Span(len(self.spans), name, parent, threading.get_ident(), 0.0)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def call(self, name: str, fn, args, kwargs, count=None):
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if count is not None:
            span.counts = count(result)
        return result

    def root(self, fn, *args, **kwargs):
        """Run `fn` inside the root span that every other span descends from."""
        span = self._open(ROOT)
        self._root = span.id
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)
            self._root = None

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        setattr(owner, attr, traced)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _pairs(geom):
    return {"pairs": geom.steering.shape[0] * geom.steering.shape[1]}


def _draws(result):
    return {"draws": result.n_draws}


def _safety(reports):
    """Safety-net counts the result CSV drops, read from the SeReports."""
    counts = {}
    for scheme, rep in reports.items():
        key = getattr(scheme, "value", scheme)
        counts[f"{key}.clamped_ues"] = len(rep.clamped_ues)
        counts[f"{key}.regularized_ues"] = len(rep.regularized_ues)
        counts["ue_attempts"] = len(rep.uatf.se)
    return counts


def install(tracer: Tracer) -> None:
    """Wrap every traced callable where its caller looks it up."""
    from cellfree_sim import beamforming, channel, estimation, evaluation, experiments

    for module in (experiments, channel):
        tracer.wrap(module, "pair_geometry", "channel.pair_geometry", _pairs)
        tracer.wrap(module, "stats_from_geometry", "channel.stats_from_geometry")
    tracer.wrap(experiments, "build_channel_stats", "channel.build_channel_stats")
    tracer.wrap(experiments, "evaluate_schemes", "evaluation.evaluate_schemes", _safety)
    tracer.wrap(experiments, "write_csv", "experiments.write_csv")
    for attr in ("deploy", "assign_pilots_and_clusters", "apply_power_control"):
        tracer.wrap(experiments, attr, "scenario")

    for module in (evaluation, beamforming):
        tracer.wrap(module, "sample_channels", "channel.sample_channels", _draws)
        tracer.wrap(module, "lmmse_local_matrices", "beamforming.lmmse_local_matrices")
    tracer.wrap(estimation.PilotEstimator, "__init__", "estimation.PilotEstimator",
                lambda _: {"builds": 1})
    tracer.wrap(estimation.PilotEstimator, "estimate", "estimation.estimate", _draws)

    for attr in ("mmse_combiner", "statistics_pass", "stage2_all", "lsfd_weights"):
        tracer.wrap(evaluation, attr, f"beamforming.{attr}")
    for attr in ("assemble_lmmse_lsfd", "assemble_ltmmse"):
        tracer.wrap(evaluation, attr, "beamforming.assemble")
    for attr in ("uatf_se", "cd_se"):
        tracer.wrap(evaluation, attr, "evaluation.bounds")


# metric -> (kind, span name, count key)
# kind: "busy" sums span durations, "self" sums span self times, "count" sums
# the span's counts under the key.
LAYER_METRICS = {
    "channel.pair_geometry.busy_s": ("busy", "channel.pair_geometry", None),
    "channel.pair_geometry.pairs": ("count", "channel.pair_geometry", "pairs"),
    "channel.build_channel_stats.busy_s": ("busy", "channel.build_channel_stats", None),
    "channel.stats_from_geometry.busy_s": ("busy", "channel.stats_from_geometry", None),
    "channel.sample_channels.busy_s": ("busy", "channel.sample_channels", None),
    "channel.sample_channels.draws": ("count", "channel.sample_channels", "draws"),
    "estimation.PilotEstimator.builds": ("count", "estimation.PilotEstimator", "builds"),
    "estimation.PilotEstimator.init_s": ("busy", "estimation.PilotEstimator", None),
    "estimation.estimate.busy_s": ("busy", "estimation.estimate", None),
    "estimation.estimate.draws": ("count", "estimation.estimate", "draws"),
    "beamforming.mmse_combiner.busy_s": ("busy", "beamforming.mmse_combiner", None),
    "beamforming.statistics_pass.busy_s": ("busy", "beamforming.statistics_pass", None),
    "beamforming.statistics_pass.self_s": ("self", "beamforming.statistics_pass", None),
    "beamforming.lmmse_local_matrices.busy_s": ("busy", "beamforming.lmmse_local_matrices", None),
    "beamforming.stage2_all.busy_s": ("busy", "beamforming.stage2_all", None),
    "beamforming.lsfd_weights.busy_s": ("busy", "beamforming.lsfd_weights", None),
    "beamforming.assemble.busy_s": ("busy", "beamforming.assemble", None),
    "evaluation.evaluate_schemes.busy_s": ("busy", "evaluation.evaluate_schemes", None),
    "evaluation.self_s": ("self", "evaluation.evaluate_schemes", None),
    "evaluation.bounds.busy_s": ("busy", "evaluation.bounds", None),
    "scenario.busy_s": ("busy", "scenario", None),
    "experiments.write_csv.busy_s": ("busy", "experiments.write_csv", None),
    "experiments.self_s": ("self", ROOT, None),
    **{
        f"safety.{scheme}.{net}": ("count", "evaluation.evaluate_schemes", f"{scheme}.{net}")
        for scheme in SCHEMES for net in ("clamped_ues", "regularized_ues")
    },
    "safety.ue_attempts": ("count", "evaluation.evaluate_schemes", "ue_attempts"),
}


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return [s["end"] - s["start"] - _covered(s["start"], s["end"], children.get(s["id"], ()))
            for s in spans]


def nesting_errors(spans: list[dict], slack: float = 1e-6) -> list[str]:
    """Spans that leave their parent's interval or overlap a same-thread sibling."""
    by_id = {s["id"]: s for s in spans}
    errors = []
    for s in spans:
        if s["end"] < s["start"]:
            errors.append(f"span {s['id']} {s['name']} ends before it starts")
        p = by_id.get(s["parent"]) if s["parent"] is not None else None
        if s["parent"] is not None and p is None:
            errors.append(f"span {s['id']} {s['name']} has unknown parent {s['parent']}")
        elif p is not None and (s["start"] < p["start"] - slack or s["end"] > p["end"] + slack):
            errors.append(f"span {s['id']} {s['name']} leaves parent {p['name']}")
    siblings: dict[tuple, list] = {}
    for s in spans:
        siblings.setdefault((s["parent"], s["thread"]), []).append(s)
    for group in siblings.values():
        group.sort(key=lambda s: s["start"])
        for a, b in zip(group, group[1:]):
            if b["start"] < a["end"] - slack:
                errors.append(f"spans {a['name']} and {b['name']} overlap on one thread")
    return errors


def summarize(spans: list[dict], workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced run: LAYER_METRICS and worker_busy_frac."""
    selfs = self_times(spans)
    metrics = {}
    for metric, (kind, name, key) in LAYER_METRICS.items():
        picked = [(s, t) for s, t in zip(spans, selfs) if s["name"] == name]
        if kind == "busy":
            value = sum(s["end"] - s["start"] for s, _ in picked)
        elif kind == "self":
            value = sum(t for _, t in picked)
        else:
            value = sum(s["counts"].get(key, 0) for s, _ in picked)
        metrics[metric] = value
    root = next(s for s in spans if s["name"] == ROOT)
    wall = root["end"] - root["start"]
    busy = sum(s["end"] - s["start"] for s in spans if s["parent"] == root["id"])
    metrics["experiments.worker_busy_frac"] = busy / (wall * workers)
    return metrics
