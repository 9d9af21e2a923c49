"""Compare benchmark runs of two commits, one row per workload.

    python3 bench/compare.py --parent ../parent --change .
    python3 bench/compare.py --results runs.jsonl

The first form runs `python3 bench/run.py` in both checkouts (the bench/
directory must be identical in both) for ten alternating pairs on every
workload of BENCHMARK.json: pair k uses seed k+1 on both sides, and which
side runs first alternates. Every result is appended to --results, so the
second form can judge saved runs.

Rules, for each end-to-end metric of BENCHMARK.json on each workload:
  gain          the change wins at least 9 of every 10 pairs (ties count for
                neither side), its median beats the parent's by more than the
                parent's interquartile range, and no pair fails more requests
                on the change than on the parent;
  unresolved    the parent's interquartile range exceeds the metric's bound,
                unless every change run beats every parent run;
  regression    the change's median is worse than the parent's by more than
                the metric's bound (a share of the parent's median);
  unchanged     otherwise.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(args, spec) -> None:
    trees = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    with open(args.results, "a", encoding="utf-8") as fh:
        for workload in (w["name"] for w in spec["workloads"]):
            for k in range(MIN_PAIRS):
                sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in sides:
                    result = run_once(trees[side], workload, k + 1, spec["run_seconds"])
                    row = {"workload": workload, "pair": k, "side": side, "result": result}
                    fh.write(json.dumps(row) + "\n")
                    fh.flush()
                    print(f"{workload} pair {k} {side} done", file=sys.stderr)


def verdict(metric: dict, parent: list[float], change: list[float],
            failed_more: bool) -> tuple[str, str]:
    """(verdict, detail) for one metric; parent[k] and change[k] form pair k."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    pq, cq = statistics.quantiles(parent, n=4), statistics.quantiles(change, n=4)
    pm, cm = statistics.median(parent), statistics.median(change)
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    iqr = pq[2] - pq[0]
    worse = sign * (pm - cm) / abs(pm)
    all_better = all(sign * (b - a) > 0 for a in parent for b in change)
    if wins >= 0.9 * len(parent) and sign * (cm - pm) > iqr and not failed_more:
        word = "gain"
    elif iqr / abs(pm) > metric["bound"] and not all_better:
        word = "unresolved"
    elif worse > metric["bound"]:
        word = "regression"
    else:
        word = "unchanged"
    detail = (f"{pm:.4g} [{pq[0]:.4g}, {pq[2]:.4g}] -> {cm:.4g} [{cq[0]:.4g}, {cq[2]:.4g}] "
              f"{metric['unit']}, wins {wins}/{len(parent)}")
    return word, detail


def report(rows: list[dict], spec: dict) -> int:
    """Print one row per workload; returns 1 when any metric regressed."""
    status = 0
    for workload in dict.fromkeys(r["workload"] for r in rows):
        pairs: dict[int, dict] = {}
        for r in rows:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        done = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        if len(done) < MIN_PAIRS:
            print(f"{workload}: only {len(done)} complete pairs, need {MIN_PAIRS}")
            status = 1
            continue
        incorrect = sum(1 for p in done for side in p.values() if not side["correct"])
        failed_more = any(p["change"]["failed"] > p["parent"]["failed"] for p in done)
        cells, details = [], []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            word, detail = verdict(metric, [p["parent"]["metrics"][name]["value"] for p in done],
                                   [p["change"]["metrics"][name]["value"] for p in done],
                                   failed_more)
            status |= word == "regression"
            cells.append(f"{name}={word}")
            details.append(f"    {name:16s} {word:10s} {detail}")
        extra = f"  ({incorrect} incorrect runs)" if incorrect else ""
        print(f"{workload:16s} {len(done)} pairs: " + "  ".join(cells) + extra)
        print("\n".join(details))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--results", default="bench-compare.jsonl", help="JSON-lines run log")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.parent or args.change:
        if not (args.parent and args.change):
            ap.error("--parent and --change go together")
        collect(args, spec)
    with open(args.results, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return report(rows, spec)


if __name__ == "__main__":
    sys.exit(main())
