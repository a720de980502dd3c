"""One benchmark process: import cellfree-sim, parse a config, maybe run it.

    python3 perfbench/child.py MODE CONFIG_JSON WORKERS [SPANS_JSON]

MODE is `setup` (import and parse only), `run` (also run the experiment) or
`trace` (run with every layer wrapped in spans, written to SPANS_JSON). The
last line of standard output is one JSON object with what was measured.
`ready_monotonic` is the `time.monotonic()` reading once the package is
imported and the config parsed; the parent subtracts its own reading taken
just before it started this process.
"""

import json
import sys
import time
from pathlib import Path


def facts() -> dict:
    """Library versions and the BLAS numpy was built against."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv: list[str]) -> int:
    mode, config_path, workers = argv[0], argv[1], int(argv[2])
    raw = json.loads(Path(config_path).read_text())
    import cellfree_sim
    from cellfree_sim.experiments import config_from_dict, run_experiment

    cfg = config_from_dict(raw)
    out = {"ready_monotonic": time.monotonic(), "package": cellfree_sim.__file__}

    if mode != "setup":
        import resource

        tracer = None
        if mode == "trace":
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        start = time.perf_counter()
        try:
            if tracer is None:
                _, csv_path = run_experiment(cfg, threads=workers)
            else:
                _, csv_path = tracer.root(run_experiment, cfg, threads=workers)
            out["csv"] = str(csv_path)
        except Exception as exc:  # a failed experiment is reported, not raised
            out["error"] = f"{type(exc).__name__}: {exc}"
        out["wall_s"] = time.perf_counter() - start
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            spans = tracer.dump()
            Path(argv[3]).write_text(json.dumps(spans))
            out["layers"] = tracing.summarize(spans, workers)
            out["self_sum_s"] = sum(tracing.self_times(spans))
            out["nesting_errors"] = tracing.nesting_errors(spans)
    out["facts"] = facts()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
