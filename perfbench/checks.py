"""Output checks on cellfree-sim result CSVs.

One operation is one evaluated (network setup x grid point); every check
reports the set of operations it failed, so a wrong output counts against
`failed` instead of stopping the benchmark. Operations are keyed by
(setup, sweep) for the sweeps and by setup for the CDF, whose sweep column
holds the CDF coordinate.
"""

from __future__ import annotations

import gzip
import math
from collections import defaultdict
from pathlib import Path

FIELDS = ("experiment", "setup", "sweep", "scheme", "bound", "ue", "se", "ci",
          "stat_draws", "eval_draws", "seed")
FLOAT_FIELDS = ("sweep", "se", "ci")
# The ROADMAP equivalence tolerance; the absolute floor only matters for
# values that are zero up to rounding (bits/s/Hz).
RTOL = 1e-9
ATOL = 1e-12
# The min/sum rows are recomputed here from 17-digit per-UE values.
AGGREGATE_RTOL = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def parse_rows(text: str) -> list[dict]:
    """CSV rows as dicts, skipping the timestamp comment and the header."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or tuple(lines[0].split(",")) != FIELDS:
        raise ValueError("result CSV has an unexpected header")
    return [dict(zip(FIELDS, ln.split(","))) for ln in lines[1:]]


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.csv.gz"


def load_reference(workload: str, seed: int) -> list[dict] | None:
    path = reference_path(workload, seed)
    if not path.exists():
        return None
    return parse_rows(gzip.decompress(path.read_bytes()).decode())


def op_key(row: dict) -> tuple:
    if row["experiment"] == "cdf":
        return (row["setup"],)
    return (row["setup"], row["sweep"])


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def check_invariants(rows: list[dict]) -> set:
    """Operations with a non-finite SE/CI or inconsistent aggregate rows."""
    failed = set()
    for row in rows:
        if not (math.isfinite(float(row["se"])) and math.isfinite(float(row["ci"]))):
            failed.add(op_key(row))
    groups = defaultdict(list)
    if rows and rows[0]["experiment"] == "cdf":
        # Pooled per-UE SEs sorted ascending, with coordinate rank / n.
        for row in rows:
            groups[(row["scheme"], row["bound"])].append(row)
        for group in groups.values():
            n = len(group)
            for rank, row in enumerate(group, start=1):
                prev = float(group[rank - 2]["se"]) if rank > 1 else -math.inf
                if float(row["sweep"]) != rank / n or float(row["se"]) < prev:
                    failed.add(op_key(row))
        return failed
    for row in rows:
        groups[(row["setup"], row["sweep"], row["scheme"], row["bound"])].append(row)
    for group in groups.values():
        per_ue = [r for r in group if r["ue"].isdigit()]
        agg = {r["ue"]: r for r in group if not r["ue"].isdigit()}
        ok = bool(per_ue) and set(agg) == {"min", "sum"}
        if ok:
            se = [float(r["se"]) for r in per_ue]
            ci = [float(r["ci"]) for r in per_ue]
            k_min = se.index(min(se))
            ok = (float(agg["min"]["se"]) == se[k_min]
                  and float(agg["min"]["ci"]) == ci[k_min]
                  and _close(float(agg["sum"]["se"]), math.fsum(se), AGGREGATE_RTOL, 0.0)
                  and _close(float(agg["sum"]["ci"]), math.sqrt(math.fsum(c * c for c in ci)),
                             AGGREGATE_RTOL, 0.0))
        if not ok:
            failed.add(op_key(group[0]))
    return failed


def compare(rows: list[dict], expected: list[dict], rtol: float = RTOL,
            atol: float = ATOL) -> set:
    """Operations whose rows differ from `expected` (floats within tolerance,
    every other field exactly). rtol = atol = 0 asks for identical rows."""
    got, want = defaultdict(list), defaultdict(list)
    for row in rows:
        got[op_key(row)].append(row)
    for row in expected:
        want[op_key(row)].append(row)
    failed = set()
    for key in set(got) | set(want):
        a, b = got.get(key, []), want.get(key, [])
        if len(a) != len(b) or not all(_same_row(x, y, rtol, atol) for x, y in zip(a, b)):
            failed.add(key)
    return failed


def _same_row(a: dict, b: dict, rtol: float, atol: float) -> bool:
    for name in FIELDS:
        if name in FLOAT_FIELDS:
            if not _close(float(a[name]), float(b[name]), rtol, atol):
                return False
        elif a[name] != b[name]:
            return False
    return True
