"""Aggregate BENCH_*.json artifacts into one markdown table.

Every acceptance benchmark writes a ``BENCH_<name>.json`` metrics dict
(``--json``); CI uploads them per run.  This tool collects whatever
subset exists and renders the headline numbers as a markdown table --
pasteable into a PR description, or appended to the CI job summary
(``$GITHUB_STEP_SUMMARY``) so the perf trajectory is visible on every
run without downloading artifacts.

The schemas are heterogeneous (each benchmark reports the quantities
it gates), so extraction is structural: every numeric leaf whose key
names a comparison -- ``*speedup*``, ``*ratio*`` (recovery's is a
cost *ceiling*, lower is better), ``*records_per_s`` -- is collected
with its JSON path.  The pipeline benchmark's result line
(``perfbench/run.py``, saved as ``BENCH_pipeline.json``, or as
``BENCH_pipeline-<workload>.json`` for the other workloads) is the one
fixed shape: each ``metrics.<name>.value`` is a row named by the
metric.  Headline rows (the gated quantity per benchmark, when known)
are marked and listed first.

Usage::

    python tools/bench_summary.py                       # ./BENCH_*.json
    python tools/bench_summary.py artifacts/BENCH_*.json
    python tools/bench_summary.py --out summary.md
"""

from __future__ import annotations

import argparse
import glob
import json
import sys
from pathlib import Path

# The gated quantity per benchmark: JSON path suffix of the number the
# CI step floors (or ceilings).  Everything else is supporting detail.
HEADLINES = {
    "abc_enforcer": "speedup",
    "fleet": "speedup",
    "parallel": "speedup",
    "recovery": "ratio",
    "ingest": "speedup",
    "kernel": "gate.oracle_speedup",
    "e2e": "gate.e2e_speedup",
    # lower is better: the telemetry residue with instruments off,
    # ceilinged at 0.02 in CI
    "obs": "gate.disabled_overhead_ratio",
    # not floored in CI: the run fails on any wrong answer instead
    "pipeline": "records_per_s",
}

METRIC_KEYS = ("speedup", "ratio", "records_per_s")


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def numeric_leaves(value, path=""):
    """Yield ``(dotted.path, number)`` for comparison-shaped leaves."""
    if isinstance(value, dict):
        for key, item in value.items():
            sub = f"{path}.{key}" if path else str(key)
            yield from numeric_leaves(item, sub)
    elif is_number(value):
        leaf = path.rsplit(".", 1)[-1]
        if any(key in leaf for key in METRIC_KEYS):
            yield path, value


def metric_rows(data) -> list[tuple[str, float]]:
    """``(name, number)`` rows of one artifact: by metric name for a
    pipeline result line (``metrics.<name>.value``), otherwise the
    comparison-shaped leaves of :func:`numeric_leaves`."""
    if isinstance(data, dict) and isinstance(data.get("metrics"), dict):
        return [
            (name, metric["value"])
            for name, metric in data["metrics"].items()
            if isinstance(metric, dict) and is_number(metric.get("value"))
        ]
    return list(numeric_leaves(data))


def bench_name(path: Path) -> str:
    stem = path.stem  # BENCH_kernel -> kernel
    return stem[6:] if stem.startswith("BENCH_") else stem


def headline_of(name: str) -> str | None:
    """The headline metric of a benchmark; every ``pipeline-<workload>``
    artifact shares the pipeline benchmark's."""
    if name.startswith("pipeline-"):
        name = "pipeline"
    return HEADLINES.get(name)


def fmt(value: float) -> str:
    """Thousands-separated from 1000 up, three significant digits
    below (so a 0.004 overhead ratio does not print as 0.00)."""
    if abs(value) >= 999.5:
        return f"{value:,.0f}"
    return f"{value:.3g}"


def summarize(paths: list[Path]) -> str:
    rows = []
    for path in sorted(paths):
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            rows.append((bench_name(path), "(unreadable)", "", str(exc)))
            continue
        name = bench_name(path)
        headline = headline_of(name)
        metrics = metric_rows(data)
        if not metrics:
            rows.append((name, "(no metrics)", "", ""))
            continue
        head = [
            (p, v)
            for p, v in metrics
            if headline is not None and (p == headline or p.endswith(headline))
        ]
        rest = [(p, v) for p, v in metrics if (p, v) not in head]
        for p, v in head:
            rows.append((name, p, fmt(v), "**gated**"))
        for p, v in rest:
            rows.append((name, p, fmt(v), ""))
    lines = [
        "| benchmark | metric | value | note |",
        "|---|---|---:|---|",
    ]
    for name, metric, value, note in rows:
        lines.append(f"| {name} | {metric} | {value} | {note} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="render BENCH_*.json artifacts as one markdown table"
    )
    parser.add_argument(
        "paths", nargs="*",
        help="JSON artifacts (default: ./BENCH_*.json)",
    )
    parser.add_argument(
        "--out", type=str, default=None,
        help="also write the table to this path (append mode, so it "
        "can target $GITHUB_STEP_SUMMARY)",
    )
    args = parser.parse_args(argv)

    paths = [Path(p) for p in args.paths]
    if not paths:
        paths = [Path(p) for p in glob.glob("BENCH_*.json")]
    if not paths:
        print("no BENCH_*.json artifacts found", file=sys.stderr)
        return 1
    table = summarize(paths)
    print(table)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write("\n## Benchmark summary\n\n")
            fh.write(table)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
