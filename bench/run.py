"""Layered benchmark of the coalition-attr command line.

    python3 bench/run.py --workload game-to-report --seed 1 --seconds 35 --trace 0

It generates the workload's input files from the seed, then drives the real
front end in-process through `coalition_attr.cli.main(argv)` as one closed-loop
client: the next request starts when the previous one returns. Each request
is timed from the call to its return; argv parsing, file reads and the report
write are inside that interval. Whole cycles over the workload's fixed
request list run until the timed phase reaches --seconds. Every output is
checked, outside the timed interval (see checks.py). Each request's latency
is its median across the cycles; the quantiles are taken over those, and
throughput is the number of requests over their sum, so that a slow stretch
of the machine during part of the run moves none of them.

Requests that hit a known defect (workloads.py) run once after the timed
phase; their outcomes are printed by reason and kept out of the result's
`attempted` and `failed`, which count the timed requests.

--trace 0 prints the end-to-end metrics. --trace 1 runs every request twice
in a row, untraced and traced (in alternating order), and prints the
per-layer metrics (see spans.py) with the tracing overhead of those adjacent
pairs. The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import pickle
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
# One client and no threads beyond those a request asks for through
# COALITION_ATTR_THREADS: the BLAS thread pool, read when numpy loads, stays
# at one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent  # checkout root: the library is built from ROOT/src
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3  # setup_s is the median of these
MIN_CYCLES = 3  # each request's median latency needs at least three samples
WALL_LIMIT_S = 150.0  # stop early rather than overrun the 180 s budget
THREADS_ENV = "COALITION_ATTR_THREADS"

END_TO_END = [  # name, unit
    ("throughput_rps", "requests/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("error_rate", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]
# error_rate is printed but left out of the JSON result: it is 0 once the
# known defects are fixed, and an end-to-end metric must never be 0.
E2E_RESULT = ("throughput_rps", "latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mb")

# Per-layer metrics, per traced request: (name, unit, field, span selector).
# The selector is a set of span names, or "layer:<module>" for a whole module.
ORDER_EXPANDS = {f"orderings.{c}.expand" for c in ("Uniform", "Explicit", "PartialOrderUniform")}
ORDER_SAMPLES = {f"orderings.{c}.sample" for c in ("Uniform", "Explicit", "PartialOrderUniform")}
PER_LAYER = [
    ("cli.self_ms", "ms", "self_s", "layer:cli"),
    ("games.self_ms", "ms", "self_s", "layer:games"),
    ("games.from_json_ms", "ms", "total_s", {"games.Game.from_json"}),
    ("games.build_game_self_ms", "ms", "self_s", {"games.build_game"}),
    ("games.oracle_calls", "count", "calls", {spans.ORACLE}),
    ("expr.self_ms", "ms", "self_s", "layer:expr"),
    ("expr.parse_ms", "ms", "total_s", {"expr.parse", "expr.monomials"}),
    ("expr.evaluate_ms", "ms", "self_s", {"expr.evaluate"}),
    ("expr.evaluate_calls", "count", "calls", {"expr.evaluate"}),
    ("value_functions.self_ms", "ms", "self_s", "layer:value_functions"),
    ("value_functions.model_calls", "count", "calls", {"value_functions.Model.__call__"}),
    ("value_functions.oracle_self_ms", "ms", "self_s", {spans.ORACLE}),
    ("gaussian.self_ms", "ms", "self_s", "layer:gaussian"),
    ("gaussian.calls", "count", "calls", "layer:gaussian"),
    ("dividends.self_ms", "ms", "self_s", "layer:dividends"),
    ("dividends.fast_ms", "ms", "total_s", {"dividends.dividends_fast"}),
    ("dividends.zeta_ms", "ms", "total_s", {"dividends.zeta_reconstruct"}),
    ("allocations.self_ms", "ms", "self_s", "layer:allocations"),
    ("allocations.shapley_ms", "ms", "total_s",
     {"allocations.shapley_direct", "allocations.shapley_dividends",
      "allocations.shapley_permutation"}),
    ("allocations.harsanyi_self_ms", "ms", "self_s", {"allocations.harsanyi_allocate"}),
    ("allocations.weight_validate_ms", "ms", "total_s", {"allocations.WeightSystem.validate"}),
    ("allocations.proportional_value_ms", "ms", "total_s", {"allocations.proportional_value"}),
    ("allocations.proportional_value_calls", "count", "calls", {"allocations.proportional_value"}),
    ("allocations.pme_calls", "count", "calls", {"allocations.pme"}),
    ("allocations.weber_exact_self_ms", "ms", "self_s", {"allocations.weber_allocate"}),
    ("allocations.weber_mc_self_ms", "ms", "self_s", {"allocations.weber_monte_carlo"}),
    ("orderings.self_ms", "ms", "self_s", "layer:orderings"),
    ("orderings.expand_ms", "ms", "total_s", ORDER_EXPANDS),
    ("orderings.sample_ms", "ms", "total_s", ORDER_SAMPLES),
    ("orderings.sample_calls", "count", "calls", ORDER_SAMPLES),
]
# The per-layer metrics in the JSON result, the same names on every workload.
# One rule: a time goes in only if every workload measures it, since a layer a
# workload never enters reads exactly 0 there on every run, which measures
# nothing; call counts are exact, so a constant (0 included) is their correct
# reading. The other times are printed with the full table above and written
# to the trace file.
LAYER_RESULT = ("cli.self_ms", "games.self_ms", "allocations.self_ms", "games.oracle_calls",
                "expr.evaluate_calls", "value_functions.model_calls", "gaussian.calls",
                "allocations.proportional_value_calls", "orderings.sample_calls",
                "trace_overhead_pct")


def load_cli():
    """Import the front end from this checkout's sources, and only from there."""
    src = ROOT / "src"
    if not (src / "coalition_attr" / "cli.py").is_file():
        sys.exit(f"bench: no library sources under {src}")
    sys.path.insert(0, str(src))
    from coalition_attr import cli

    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"bench: imported coalition_attr from {cli.__file__}, not from {src}")
    return cli


def stem(label: str) -> str:
    return re.sub(r" d=.*", "", label)


def size(label: str) -> int:
    m = re.search(r"d=(\d+)", label)
    return int(m.group(1)) if m else 0


class Client:
    """One closed-loop client calling cli.main in this process."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer

    def send(self, req):
        """Returns (exit code, latency s, stdout, stderr, spans or None)."""
        os.environ[THREADS_ENV] = str(req.threads)
        out, err = io.StringIO(), io.StringIO()
        recorded = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            if self.tracer is None:
                rc = self.cli.main(list(req.argv))
            else:
                rc, recorded = self.tracer.call(self.cli.main, list(req.argv))
            latency = time.perf_counter() - start
        return rc, latency, out.getvalue(), err.getvalue(), recorded


def inputs_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(q for q in root.iterdir() if q.is_file()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def setup(cli, workload: str, seed: int, work: Path):
    """Generate inputs and references (in a child process, see workloads.py),
    then warm every timed request kind once."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-B", str(HERE / "workloads.py"), workload, str(seed), str(work)],
                   check=True)
    with open(work / workloads.REQUESTS_FILE, "rb") as fh:
        reqs = pickle.load(fh)
    digest = inputs_digest(work)
    smallest = {}
    for r in reqs:
        if r.probe:
            continue
        if stem(r.label) not in smallest or size(r.label) < size(smallest[stem(r.label)].label):
            smallest[stem(r.label)] = r
    client = Client(cli)
    for r in smallest.values():
        client.send(r)
    return time.perf_counter() - start, reqs, digest


class Outcomes:
    """Checks each request's first output fully; later outputs must match it."""

    def __init__(self, reqs):
        self.reqs = reqs
        self.first: dict[int, tuple[str, str | None]] = {}  # index -> (digest, reason)
        self.report_digest: dict[int, str] = {}

    def record(self, i: int, rc: int, stdout: str, stderr: str) -> str | None:
        req = self.reqs[i]
        report = None
        if req.out and rc == 0 and os.path.exists(req.out):
            with open(req.out, encoding="utf-8") as fh:
                report = fh.read()
        digest = hashlib.sha256(f"{rc}\0{stdout}\0{report}".encode()).hexdigest()
        if i not in self.first:
            reason = checks.check(req, rc, stdout, stderr, report)
            self.first[i] = (digest, reason)
            self.report_digest[i] = hashlib.sha256((report or "").encode()).hexdigest()
            self._thread_pairs(i)
            return self.first[i][1]
        if digest != self.first[i][0]:
            return "output differs from the first run of this request"
        return self.first[i][1]

    def _thread_pairs(self, i: int) -> None:
        pair = self.reqs[i].expect.get("pair")
        if pair is None:
            return
        for j, d in self.report_digest.items():
            if j != i and self.reqs[j].expect.get("pair") == pair and d != self.report_digest[i]:
                digest, _ = self.first[i]
                self.first[i] = (digest, "thread-1 and thread-2 reports differ")


def layer_metrics(summaries) -> dict[str, float]:
    """Mean per traced request of each per-layer metric."""
    totals = {name: 0.0 for name, *_ in PER_LAYER}
    for s in summaries:
        for name, unit, field, sel in PER_LAYER:
            if isinstance(sel, str):
                layer = sel.split(":", 1)[1] + "."
                rows = [row for span, row in s.items() if span.startswith(layer)]
            else:
                rows = [s[span] for span in sel if span in s]
            value = sum(row[field] for row in rows)
            totals[name] += value * (1000.0 if unit == "ms" else 1.0)
    return {name: v / max(1, len(summaries)) for name, v in totals.items()}


def self_time_mismatch(recorded, summary) -> float:
    """|sum of self times - root duration| / root duration for one request."""
    root = next(s for s in recorded if s[1] == spans.ROOT)
    duration = (root[3] - root[2]) * 1e-9
    total_self = sum(row["self_s"] for row in summary.values())
    return abs(total_self - duration) / duration


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wall_start = time.perf_counter()
    cli = load_cli()
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(cli, args, work, wall_start)
    finally:
        os.environ.pop(THREADS_ENV, None)
        shutil.rmtree(work, ignore_errors=True)


def measure(cli, args, work: Path, wall_start: float) -> int:
    seconds, every, digest = setup(cli, args.workload, args.seed, work)
    setups, digests = [seconds], {digest}
    reqs = [r for r in every if not r.probe]

    def set_up_again():
        # Repeats run between timed cycles, so that their median spans the
        # run rather than one stretch of machine noise.
        seconds, _, digest = setup(cli, args.workload, args.seed, work)
        setups.append(seconds)
        digests.add(digest)

    order = np.random.default_rng([args.seed, 99]).permutation(len(reqs)).tolist()
    outcomes = Outcomes(reqs)
    tracer = spans.Tracer() if args.trace else None
    plain, traced = Client(cli), Client(cli, tracer)
    clock = {False: 0.0, True: 0.0}  # timed-phase seconds, untraced / traced
    cycle_s: list[float] = []  # untraced seconds of each cycle
    per_request: list[list[float]] = [[] for _ in reqs]  # untraced latencies
    failures: dict[str, list[str]] = {}  # reason -> labels of failed requests
    summaries, traced_ids, worst_mismatch, traced_differs = [], [], 0.0, set()
    while True:
        cycle_start = clock[False]
        for k, i in enumerate(order):
            # with --trace 1, the traced run goes first in every other pair
            modes = ([True, False] if k % 2 else [False, True]) if args.trace else [False]
            for use_trace in modes:
                if reqs[i].out:  # each check reads the report of the call just made
                    Path(reqs[i].out).unlink(missing_ok=True)
                if use_trace:
                    tracer.install()
                try:
                    t0 = time.perf_counter()
                    rc, latency, stdout, stderr, recorded = (traced if use_trace else plain).send(
                        reqs[i])
                    clock[use_trace] += time.perf_counter() - t0
                finally:
                    tracer and tracer.uninstall()
                reason = outcomes.record(i, rc, stdout, stderr)
                if use_trace:
                    summary = spans.summarize(recorded)
                    summaries.append(summary)
                    traced_ids.append((tracer.request_id, reqs[i].label))
                    worst_mismatch = max(worst_mismatch, self_time_mismatch(recorded, summary))
                    if reason != outcomes.first[i][1]:
                        traced_differs.add(reqs[i].label)
                else:
                    per_request[i].append(latency)
                    if reason is not None:
                        failures.setdefault(reason, []).append(reqs[i].label)
        cycle_s.append(clock[False] - cycle_start)
        if len(setups) < SETUP_REPEATS:
            set_up_again()
        timed = clock[False] + clock[True]
        cycles = len(cycle_s)
        # stop at the whole number of cycles nearest to --seconds
        done = timed + 0.5 * timed / cycles >= args.seconds
        if (done and cycles >= MIN_CYCLES) or time.perf_counter() - wall_start > WALL_LIMIT_S:
            break

    while len(setups) < SETUP_REPEATS:
        set_up_again()
    problems = [] if len(digests) == 1 else ["generator wrote different bytes for one seed"]
    latencies = [x for xs in per_request for x in xs]
    attempted, failed = len(latencies), sum(map(len, failures.values()))
    unexpected = sorted(r for r in failures if not checks.is_known(r))
    if worst_mismatch > 1e-6:
        problems.append(f"span self times differ from the root duration by {worst_mismatch:.2e}")
    if traced_differs:
        problems.append("traced output differs: " + ", ".join(sorted(traced_differs)))
    probes = run_probes(cli, [r for r in every if r.probe])
    unexpected += sorted(r for r in probes if r is not None and not checks.is_known(r))
    correct = not unexpected and not problems

    typical = [statistics.median(xs) for xs in per_request]  # one per request
    e2e = {
        "throughput_rps": len(typical) / math.fsum(typical),
        "latency_p50_ms": statistics.median(typical) * 1e3,
        "latency_p90_ms": statistics.quantiles(typical, n=10, method="inclusive")[8] * 1e3,
        "error_rate": failed / attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond_p90 = sum(1 for x in latencies if x * 1e3 > e2e["latency_p90_ms"])
    print(f"workload {args.workload}  seed {args.seed}  {cycles} cycles of "
          f"{len(reqs)} requests  timed {clock[False]:.1f} s  "
          f"cycles {min(cycle_s):.2f}-{max(cycle_s):.2f} s")
    samples = {"setup_s": len(setups), "peak_rss_mb": 1}
    for name, unit in END_TO_END:
        if name == "latency_p90_ms" and beyond_p90 < 10:
            print(f"  {name:24s} not reported: {beyond_p90} samples beyond it")
            continue
        print(f"  {name:24s} {e2e[name]:14.6f} {unit:9s} n={samples.get(name, attempted)}")
    for reason, labels in sorted(failures.items()):
        print_labels(f"failed {len(labels):5d}", reason, labels)
    for reason, labels in sorted(probes.items(), key=lambda kv: str(kv[0])):
        print_labels(f"probe  {len(labels):5d}", reason or "passed", labels)
    for p in problems:
        print(f"  problem: {p}")
    write_latencies(args, reqs, per_request)

    if args.trace:
        layers = layer_metrics(summaries)
        layers["trace_overhead_pct"] = (clock[True] / clock[False] - 1.0) * 100.0
        print(f"per-layer means over {len(summaries)} traced requests; "
              f"self-time sum vs root: max rel diff "
              f"{worst_mismatch:.1e}")
        for name, unit, *_ in PER_LAYER + [("trace_overhead_pct", "%")]:
            print(f"  {name:38s} {layers[name]:14.6f} {unit}")
        write_trace(args, traced_ids, summaries)
        metrics = {k: {"value": layers[k], "unit": unit_of(k)} for k in LAYER_RESULT}
    else:
        metrics = {k: {"value": e2e[k], "unit": unit_of(k)} for k in E2E_RESULT}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_probes(cli, probes) -> dict:
    """Runs each known-defect request once, untimed: reason -> labels."""
    outcomes, client, found = Outcomes(probes), Client(cli), {}
    for i, req in enumerate(probes):
        if req.out:
            Path(req.out).unlink(missing_ok=True)
        rc, _, stdout, stderr, _ = client.send(req)
        outcomes.record(i, rc, stdout, stderr)
    for i, req in enumerate(probes):  # after all, so thread pairs are compared
        found.setdefault(outcomes.first[i][1], []).append(req.label)
    return found


def print_labels(head: str, reason: str, labels) -> None:
    kinds = sorted(set(labels))
    print(f"  {head}  {reason}: {', '.join(kinds[:6])}"
          + (f" and {len(kinds) - 6} more" if len(kinds) > 6 else ""))


def unit_of(name: str) -> str:
    if name == "trace_overhead_pct":
        return "%"
    return dict(END_TO_END).get(name) or next(u for n, u, *_ in PER_LAYER if n == name)


def write_latencies(args, reqs, per_request) -> None:
    """Every timed sample of every request, kept for inspection."""
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"latency-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    rows = [{"label": r.label, "median_ms": statistics.median(xs) * 1e3,
             "samples_ms": [x * 1e3 for x in xs]} for r, xs in zip(reqs, per_request)]
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "requests": rows}))
    print(f"  per-request latencies: {path.relative_to(ROOT)}")


def write_trace(args, traced_ids, summaries) -> None:
    """Per-request span aggregates of the traced run, kept for inspection."""
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    requests = [{"request": rid, "label": label, "spans": summary}
                for (rid, label), summary in zip(traced_ids, summaries)]
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "requests": requests}))
    print(f"  spans aggregated per request: {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
