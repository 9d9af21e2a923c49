"""Per-request output checks, run outside the timed interval.

`check` returns None for a correct output, or a failure reason. Reasons that
start with "known " are the defects the benchmark keeps visible on purpose
(ROADMAP item 4): they still count as failures, but they do not make the run
incorrect. Any other reason does.
"""
from __future__ import annotations

import json
import re

import numpy as np

# Scale-relative tolerances: |error| <= TOL * max(1, max |v|).
EFFICIENCY_TOL = 1e-10
PAYOFF_TOL = 1e-9
MC_SIGMAS = 6.0  # weber-mc payoffs within this many reported stderr
STDERR_SHARE = 0.2  # reported stderr within this share of the enumerated one
MEAN_ROUNDING = 1e-12  # relative rounding allowed on a Monte Carlo mean
ZERO_STDERR = float(np.sqrt(np.finfo(float).eps))  # relative; stderr of a constant

KNOWN_GATE = "known 4a: absolute 1e-10 efficiency gate"
KNOWN_STDERR = "known 4b: MC stderr cancellation"

# verify checks that compare against an absolute tolerance (the 4a defect)
ABSOLUTE_VERIFY_CHECKS = {
    "cross-route shapley equality",
    "telescoping along random orderings",
    "efficiency: egalitarian dividends",
    "efficiency: min-owner dividends",
    "efficiency: uniform random orders",
}
LARGE_SCALE = 1e6  # games at or above this magnitude trip absolute gates

_GAP = re.compile(r"efficiency gap (\S+) exceeds")


def _scale(expect: dict, *values) -> float:
    return max([1.0, expect.get("scale", 0.0)] + [abs(float(x)) for x in values])


def _close(got, want, tol: float) -> bool:
    return bool(np.all(np.abs(np.asarray(got, float) - np.asarray(want, float)) <= tol))


def _gate_defect(expect: dict, rc: int, stderr: str) -> str | None:
    """An exact method refused a result that is correct relative to its scale."""
    m = _GAP.search(stderr)
    if rc != 4 or m is None or expect.get("scale", 0.0) < LARGE_SCALE:
        return None
    return KNOWN_GATE if abs(float(m.group(1))) <= EFFICIENCY_TOL * _scale(expect) else None


def _efficient(report: dict, tol: float) -> bool:
    gap = sum(report["payoffs"]) - (report["v_full"] - report["v_empty"])
    return abs(gap) <= tol


def _payoffs(expect, report) -> str | None:
    scale = _scale(expect)
    # an approximate method (the PME epsilon ladder) is held to its own accuracy
    if not _efficient(report, expect.get("tol", EFFICIENCY_TOL) * scale):
        return "efficiency"
    if not _close(report["payoffs"], expect["payoffs"], expect.get("tol", PAYOFF_TOL) * scale):
        return "payoffs"
    return None


def _dividends(expect, report) -> str | None:
    scale = _scale(expect)
    if report["d"] != expect["d"] or not _close(report["dividends"], expect["dividends"],
                                                PAYOFF_TOL * scale):
        return "dividends"
    return None if abs(report["v_full"] - expect["v_full"]) <= PAYOFF_TOL * scale else "v_full"


def _model(expect, report) -> str | None:
    scale = _scale(expect, expect["v_full"], expect["v_empty"])
    if not _efficient(report, EFFICIENCY_TOL * scale):
        return "efficiency"
    if abs(report["v_full"] - expect["v_full"]) > PAYOFF_TOL * scale:
        return "v_full"
    tol = expect.get("v_empty_tol", PAYOFF_TOL * scale)
    return None if abs(report["v_empty"] - expect["v_empty"]) <= tol else "v_empty"


def _monte_carlo(expect, report) -> str | None:
    if not _efficient(report, EFFICIENCY_TOL * _scale(expect)):
        return "efficiency"
    pay, se = np.asarray(report["payoffs"]), np.asarray(report["stderr"])
    mean, var = expect["mean"], expect["var"]
    bad = []
    # a player whose marginal is the same in every order has a true stderr of
    # exactly 0; its mean and stderr are held to rounding instead
    mag = None if mean is None else np.maximum(1.0, np.abs(mean))
    if mean is not None and \
            not np.all(np.abs(pay - mean) <= MC_SIGMAS * se + MEAN_ROUNDING * mag):
        bad.append("payoff outside 6 stderr")
    if var is not None:
        true_se = np.sqrt(np.asarray(var) / expect["n"])
        tol = np.where(true_se > 0, STDERR_SHARE * true_se, ZERO_STDERR * mag)
        if not np.all(np.abs(se - true_se) <= tol):
            bad.append("stderr off by more than 20%")
    if not bad:
        return None
    # the estimate itself is fine and only the reported stderr is off
    if expect["offset"] >= LARGE_SCALE and var is not None and \
            np.all(np.abs(pay - mean) <= MC_SIGMAS * true_se + MEAN_ROUNDING * mag):
        return KNOWN_STDERR
    return bad[0]


def _verify(expect, rc, stdout) -> str | None:
    failed = {line[6:].strip() for line in stdout.splitlines() if line.startswith("FAIL")}
    passed = [line for line in stdout.splitlines() if line.startswith("PASS")]
    if rc == 0 and not failed and passed:
        return None
    if rc == 1 and failed and failed <= ABSOLUTE_VERIFY_CHECKS \
            and expect["scale"] >= LARGE_SCALE:
        return KNOWN_GATE
    return f"verify exit {rc}: " + ", ".join(sorted(failed))


def _paper_bench(report) -> str | None:
    rows = report["rows"]
    ok = report["pass"] and rows and all(r["max_dev"] <= r["tol"] for r in rows)
    return None if ok else "paper-bench row"


def check(req, rc: int, stdout: str, stderr: str, report_text: str | None) -> str | None:
    """Failure reason for one request's outcome, or None when it is correct."""
    expect = req.expect
    kind = expect["kind"]
    if kind == "verify":
        return _verify(expect, rc, stdout)
    if rc != 0:
        return _gate_defect(expect, rc, stderr) or f"exit {rc}"
    if report_text is None:
        return "no report"
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError:
        return "report is not JSON"
    if kind == "payoffs":
        return _payoffs(expect, report)
    if kind == "dividends":
        return _dividends(expect, report)
    if kind == "model":
        return _model(expect, report)
    if kind == "mc":
        return _monte_carlo(expect, report)
    return _paper_bench(report)


def is_known(reason: str | None) -> bool:
    return reason is not None and reason.startswith("known ")
