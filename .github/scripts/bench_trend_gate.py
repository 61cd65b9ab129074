#!/usr/bin/env python3
"""Bench trend gate: coverage must never shrink, and the load-bearing
groups must not regress against the parent commit measured on the same
runner.

Row coverage: fails if any (group, bench) row present in the committed
BENCH_candidates.json is missing from the change's runs — a renamed or
dropped benchmark must show up as an explicit diff in the PR, not as a
quietly shrinking report. The committed file is a trend record, not a
threshold.

Numbers: the parent and the change each run `perf_report --quick`
several times on one runner, alternating parent then change, so both
sides see the same machine and the same drift. Most groups stay
non-gating, but the zero-copy-loader and candidate-generation groups are
this repo's core perf claims, so a row in GATED_GROUP_PREFIXES fails when
the change's median exceeds the parent's median * (1 + TOLERANCE) +
SLACK_US. The 25% tolerance plus a 1 µs absolute floor absorbs runner
noise on both fast and slow rows; a real quadratic or an accidental deep
copy blows way past it. Rows that only one side has are reported but not
gated.

History: with --history PATH, appends one JSON line (label + every
change row, median across runs) so CI can accumulate a cross-commit
trend artifact.
"""

import argparse
import json
import statistics
import sys

GATED_GROUP_PREFIXES = ("index_build/snapshot_load", "candidates/")
TOLERANCE = 0.25
SLACK_US = 1.0

Rows = dict[tuple[str, str], float]


def load(path: str) -> Rows:
    with open(path, encoding="utf-8") as f:
        report = json.load(f)
    if report.get("schema") != "webtable-perf-report/v1":
        sys.exit(f"{path}: unknown schema {report.get('schema')!r}")
    return {(r["group"], r["bench"]): float(r["mean_us"]) for r in report["results"]}


def medians(paths: list[str]) -> Rows:
    """Per-row median over the runs that have the row."""
    runs: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        for key, mean_us in load(path).items():
            runs.setdefault(key, []).append(mean_us)
    return {key: statistics.median(values) for key, values in runs.items()}


def gated(group: str) -> bool:
    return any(group.startswith(p) for p in GATED_GROUP_PREFIXES)


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("committed", help="the committed BENCH_candidates.json")
    ap.add_argument("--parent", nargs="+", required=True, help="the parent's reports")
    ap.add_argument("--change", nargs="+", required=True, help="the change's reports")
    ap.add_argument("--history", help="append the change medians to this JSONL file")
    ap.add_argument("--label", default="unlabeled", help="history label (a commit SHA)")
    args = ap.parse_args()
    committed = load(args.committed)
    parent = medians(args.parent)
    change = medians(args.change)

    missing = sorted(set(committed) - set(change))
    added = sorted(set(change) - set(committed))
    for group, bench in added:
        print(f"new bench row: {group}/{bench}")
    if missing:
        for group, bench in missing:
            print(f"MISSING bench row: {group}/{bench}", file=sys.stderr)
        sys.exit(
            f"{len(missing)} bench row(s) present in the committed "
            "BENCH_candidates.json are missing from the change's perf report. "
            "If a benchmark was intentionally renamed or removed, update the "
            "committed BENCH_candidates.json in the same PR."
        )
    for group, bench in sorted(set(parent) - set(change)):
        print(f"only in parent (not gated): {group}/{bench}")
    for group, bench in sorted(set(change) - set(parent)):
        print(f"only in change (not gated): {group}/{bench}")

    regressions = []
    for key in sorted(set(parent) & set(change)):
        group, bench = key
        if not gated(group):
            continue
        limit = parent[key] * (1.0 + TOLERANCE) + SLACK_US
        verdict = "REGRESSION" if change[key] > limit else "ok"
        print(
            f"{verdict}: {group}/{bench}: parent {parent[key]:.2f} µs, "
            f"change {change[key]:.2f} µs (limit {limit:.2f})"
        )
        if change[key] > limit:
            regressions.append(key)

    if args.history:
        entry = {
            "label": args.label,
            "rows": [
                {"group": g, "bench": b, "mean_us": change[(g, b)]}
                for g, b in sorted(change)
            ],
        }
        with open(args.history, "a", encoding="utf-8") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
        print(f"appended trend history to {args.history}")

    if regressions:
        for group, bench in regressions:
            print(f"PERF REGRESSION: {group}/{bench}", file=sys.stderr)
        sys.exit(
            f"{len(regressions)} gated bench row(s) regressed more than "
            f"{TOLERANCE:.0%} (+{SLACK_US} µs) against the parent commit's "
            f"median over {len(args.parent)} run(s) on this runner."
        )
    print(
        f"trend gate ok: {len(committed)} rows covered, {len(added)} new, "
        f"{len(args.parent)} parent and {len(args.change)} change runs, 0 regressions"
    )


if __name__ == "__main__":
    main()
