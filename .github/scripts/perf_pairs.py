#!/usr/bin/env python3
"""Alternating parent/change pairs of the serving benchmark.

Runs `bash perfbench/run.sh` once from a checkout of the parent commit
and once from the working tree for every seed, swapping which side runs
first from one pair to the next (the first pair runs the parent first),
so both sides see the same machine and the same drift. Then it prints,
per metric:

* every pair: seed, parent value, change value, which side was lower;
* each side's median and quartiles, and the parent's interquartile range;
* how many pairs the change won (lower, or higher where BENCHMARK.json
  says higher is better).

Every run line carries `correct`, the operations attempted and the
operations failed; on `annotate` the operations attempted are summarised
too, because a run that uses up perfbench's pre-generated requests reads
`correct: false` with every reply right. The exit status is 1 when any
run is not correct or failed an operation.

The parent side is a checkout of the parent commit, made beforehand
with `git clone` and `git checkout`; each side builds into its own
`target/`. Every run is 30 s, the window BENCHMARK.json fixes.

    git clone --quiet . ../parent && git -C ../parent checkout --quiet HEAD~1
    python3 .github/scripts/perf_pairs.py --parent-dir ../parent \\
        --workload search --seeds 1-10 [--trace 0] [--log-dir DIR]
    python3 .github/scripts/perf_pairs.py --self-test

Run it from the repository root. A pair takes 70-150 s on a 2-core
machine, plus one build per side.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

DEFAULT_METRICS = ("setup_s", "p50_ms", "rss_mb")
RUN_SECONDS = 30


def parse_seeds(spec: str) -> list[int]:
    """`1-10`, `11,12,14` or a mix such as `1-3,7`."""
    seeds: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if "-" in part:
            lo, hi = (int(x) for x in part.split("-", 1))
            if hi < lo:
                raise ValueError(f"empty seed range {part!r}")
            seeds.extend(range(lo, hi + 1))
        elif part:
            seeds.append(int(part))
    if not seeds:
        raise ValueError(f"no seeds in {spec!r}")
    return seeds


def run_order(pair: int) -> tuple[str, str]:
    """Pair 0 runs the parent first; the order swaps every pair."""
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summary(values: list[float]) -> dict[str, float]:
    q1, q3 = quantile(values, 0.25), quantile(values, 0.75)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def change_won(parent: float, change: float, better: str) -> bool:
    return change > parent if better == "higher" else change < parent


def directions(bench_json: str) -> dict[str, str]:
    """Metric name -> "lower" or "higher", from BENCHMARK.json."""
    try:
        with open(bench_json, encoding="utf-8") as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {
        m["name"]: m.get("better", "lower")
        for m in spec.get("end_to_end", []) + spec.get("per_layer", [])
    }


def result_line(stdout: str) -> dict:
    """The JSON result perfbench prints as its last line of output."""
    for line in reversed(stdout.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no result line in perfbench output")


def run_side(root: str, args, seed: int, log_dir: str, tag: str) -> dict:
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, "target"))
    cmd = [
        "bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
        "--seconds", str(RUN_SECONDS), "--trace", str(args.trace),
    ]
    log = os.path.join(log_dir, f"{tag}.log")
    with open(log, "w", encoding="utf-8") as err:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=err,
                              text=True, check=False)
    with open(log, "a", encoding="utf-8") as err:
        err.write(proc.stdout)
    try:
        result = result_line(proc.stdout)
    except ValueError as e:
        sys.exit(f"{tag}: {e} (exit {proc.returncode}; log {log})")
    values = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    return {
        "correct": bool(result.get("correct")),
        "attempted": result.get("attempted", 0),
        "failed": result.get("failed", 0),
        "metrics": values,
        "log": log,
    }


def report(pairs: list[dict], metrics: list[str], better: dict[str, str], workload: str) -> list[str]:
    """The printed table: per metric, every pair, then the summaries."""
    out: list[str] = []
    for name in metrics:
        rows = [p for p in pairs if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
        if not rows:
            out.append(f"{name}: not measured")
            continue
        direction = better.get(name, "lower")
        out.append(f"{name} ({direction} is better)")
        out.append(f"  {'seed':>5} {'first':>7} {'parent':>12} {'change':>12}  winner")
        wins = 0
        for p in rows:
            pv, cv = p["parent"]["metrics"][name], p["change"]["metrics"][name]
            won = change_won(pv, cv, direction)
            wins += won
            tie = pv == cv
            winner = "tie" if tie else ("change" if won else "parent")
            out.append(f"  {p['seed']:>5} {p['first']:>7} {pv:>12.4f} {cv:>12.4f}  {winner}")
        ps = summary([p["parent"]["metrics"][name] for p in rows])
        cs = summary([p["change"]["metrics"][name] for p in rows])
        for side, s in (("parent", ps), ("change", cs)):
            out.append(f"  {side:<7} median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}")
        gap = cs["median"] - ps["median"]
        rel = gap / ps["median"] if ps["median"] else float("nan")
        out.append(f"  parent IQR {ps['iqr']:.4f}; median change {gap:+.4f} ({rel:+.1%})")
        out.append(f"  change won {wins}/{len(rows)} pairs")
    if workload == "annotate":
        attempted = [p[side]["attempted"] for p in pairs for side in ("parent", "change")]
        out.append(f"operations attempted per run: {min(attempted)}-{max(attempted)}")
    return out


def self_test() -> None:
    assert parse_seeds("1-10") == list(range(1, 11))
    assert parse_seeds("11-14") == [11, 12, 13, 14]
    assert parse_seeds("1-3, 7") == [1, 2, 3, 7]
    for bad in ("", "5-3"):
        try:
            parse_seeds(bad)
        except ValueError:
            pass
        else:
            raise AssertionError(f"{bad!r} must not parse")
    assert [run_order(i)[0] for i in range(4)] == ["parent", "change", "parent", "change"]
    xs = [float(x) for x in range(1, 11)]
    assert quantile(xs, 0.25) == 3.25 and quantile(xs, 0.75) == 7.75
    assert summary(xs) == {"median": 5.5, "q1": 3.25, "q3": 7.75, "iqr": 4.5}
    assert summary([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "iqr": 0.0}
    assert quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert change_won(1.0, 0.9, "lower") and not change_won(1.0, 0.9, "higher")
    assert not change_won(1.0, 1.0, "lower")
    assert result_line('build noise\n{"correct":true,"attempted":3,"failed":0}\n') == {
        "correct": True, "attempted": 3, "failed": 0}

    def side(v: float, attempted: int) -> dict:
        return {"metrics": {"p50_ms": v}, "attempted": attempted}

    pairs = [
        {"seed": 1, "first": "parent", "parent": side(1.0, 9000), "change": side(0.8, 9100)},
        {"seed": 2, "first": "change", "parent": side(1.2, 8500), "change": side(1.3, 8600)},
        {"seed": 3, "first": "parent", "parent": side(1.1, 8800), "change": side(0.9, 8900)},
    ]
    lines = report(pairs, ["p50_ms", "rss_mb"], {"p50_ms": "lower"}, "annotate")
    assert "  change won 2/3 pairs" in lines, lines
    assert "  parent  median 1.1000  q1 1.0500  q3 1.1500" in lines, lines
    assert "  parent IQR 0.1000; median change -0.2000 (-18.2%)" in lines, lines
    assert "rss_mb: not measured" in lines, lines
    assert lines[-1] == "operations attempted per run: 8500-9100", lines
    print("perf_pairs self-test ok")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--parent-dir", help="a checkout of the parent commit")
    ap.add_argument("--workload", default="search")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--metrics", default=",".join(DEFAULT_METRICS))
    ap.add_argument("--log-dir", help="where each run's output goes (default: a temp dir)")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return 0
    if not args.parent_dir:
        ap.error("--parent-dir is required")
    seeds = parse_seeds(args.seeds)
    metrics = [m for m in args.metrics.split(",") if m]
    change_root = os.getcwd()
    better = directions(os.path.join(change_root, "BENCHMARK.json"))
    log_dir = args.log_dir or tempfile.mkdtemp(prefix="perf-pairs-")
    os.makedirs(log_dir, exist_ok=True)
    roots = {"parent": os.path.abspath(args.parent_dir), "change": change_root}
    pairs = []
    for i, seed in enumerate(seeds):
        order = run_order(i)
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            r = run_side(roots[side], args, seed, log_dir, f"{args.workload}-{seed}-{side}")
            pair[side] = r
            shown = " ".join(f"{k}={v:.4f}" for k, v in sorted(r["metrics"].items()))
            print(f"seed {seed} {side:<6} correct={str(r['correct']).lower()} "
                  f"attempted={r['attempted']} failed={r['failed']} {shown}", flush=True)
        pairs.append(pair)
    print()
    print("\n".join(report(pairs, metrics, better, args.workload)))
    bad = [(p["seed"], side, p[side]["log"]) for p in pairs for side in ("parent", "change")
           if not p[side]["correct"] or p[side]["failed"]]
    for seed, side, log in bad:
        print(f"NOT CORRECT: seed {seed} {side} (log {log})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
