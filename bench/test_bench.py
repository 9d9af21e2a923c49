"""Self-tests of the benchmark: generator, references, checker and tracer."""
import contextlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from coalition_attr import (  # noqa: E402
    Explicit,
    Game,
    WeightSystem,
    causal_orderings,
    cli,
    dividends_recursive,
    harsanyi_allocate,
    pme,
    proportional_value,
    shapley_permutation,
    weber_allocate,
)


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_byte_identical_for_a_seed(workload, tmp_path):
    a = workloads.generate(workload, 7, str(tmp_path / "a"))
    b = workloads.generate(workload, 7, str(tmp_path / "b"))
    files_a = _tree(tmp_path / "a")
    assert files_a and files_a == _tree(tmp_path / "b")
    strip = lambda argv, root: [s.replace(str(root), "") for s in argv]  # noqa: E731
    assert [strip(r.argv, tmp_path / "a") for r in a] == [strip(r.argv, tmp_path / "b") for r in b]


def test_another_seed_changes_the_numbers_not_the_structure(tmp_path):
    a = workloads.generate("sampled-orders", 7, str(tmp_path / "a"))
    b = workloads.generate("sampled-orders", 8, str(tmp_path / "b"))
    assert _tree(tmp_path / "a").keys() == _tree(tmp_path / "b").keys()
    assert _tree(tmp_path / "a") != _tree(tmp_path / "b")
    assert [(r.label, r.threads) for r in a] == [(r.label, r.threads) for r in b]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_known_defect_inputs_are_probes_only(workload, tmp_path):
    # the 4a gate and 4b stderr inputs run untimed; `dividends` has no gate
    for r in workloads.generate(workload, 1, str(tmp_path)):
        large = r.expect.get("scale", 0.0) >= checks.LARGE_SCALE
        hits_gate = large and r.expect["kind"] in ("payoffs", "verify")
        assert r.probe == (hits_gate or r.expect.get("offset", 0.0) > 0), r.label


@pytest.mark.parametrize("d", [1, 3, 5])
def test_game_references_match_library_oracle_routes(d):
    rng = np.random.default_rng(d)
    phi = workloads.draw_dividends(rng, d, 1.0)
    v = workloads.zeta(phi, d)
    g = Game(d, v)
    np.testing.assert_allclose(dividends_recursive(g).dividends, phi, atol=1e-12)
    np.testing.assert_allclose(shapley_permutation(g).payoffs,
                               workloads.shapley_from_dividends(phi, d), atol=1e-12)
    np.testing.assert_allclose(harsanyi_allocate(g, WeightSystem("min-owner")).payoffs,
                               workloads.min_owner_from_dividends(phi, d), atol=1e-12)


def test_order_references_match_library():
    d = 5
    rng = np.random.default_rng(3)
    v = workloads.zeta(workloads.draw_dividends(rng, d, 1.0), d)
    g = Game(d, v)
    orders, probs = workloads._random_pmf(rng, d, 20)
    pmf = Explicit(tuple(map(tuple, orders.tolist())), tuple(probs.tolist()))
    np.testing.assert_allclose(weber_allocate(g, pmf).payoffs,
                               workloads.order_moments(v, orders, probs)[0], atol=1e-12)
    edges = workloads._random_dag(rng, d, 4)
    ext = workloads.linear_extensions(d, edges)
    dag = causal_orderings(d, edges)
    assert sorted(map(tuple, ext.tolist())) == sorted(dag.enumerate_extensions())
    np.testing.assert_allclose(weber_allocate(g, dag).payoffs,
                               workloads.order_moments(v, ext, np.full(len(ext), 1 / len(ext)))[0],
                               atol=1e-12)


def test_proportional_references_match_library():
    d = 5
    rng = np.random.default_rng(4)
    v = workloads.zeta(workloads.draw_dividends(rng, d, 1.0, positive=True), d)
    np.testing.assert_allclose(proportional_value(Game(d, v)).payoffs,
                               workloads.proportional_value(v, d), rtol=1e-12)
    np.testing.assert_allclose(pme(Game(d, v)).payoffs,
                               workloads.pme_reference(v, d, None), rtol=1e-12)
    v = workloads.zeta(workloads.draw_dividends(rng, d, 1.0, positive=True, dummy=2), d)
    np.testing.assert_allclose(pme(Game(d, v)).payoffs,
                               workloads.pme_reference(v, d, 2), atol=1e-5)


def _run(req):
    os.environ["COALITION_ATTR_THREADS"] = str(req.threads)
    try:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(req.argv))
    finally:
        os.environ.pop("COALITION_ATTR_THREADS", None)
    with open(req.out, encoding="utf-8") as fh:
        return rc, out.getvalue(), err.getvalue(), json.loads(fh.read())


def test_checker_rejects_corrupted_payoff_and_stderr(tmp_path):
    reqs = workloads.generate("sampled-orders", 1, str(tmp_path))
    req = next(r for r in reqs if r.label == "weber-mc uniform d=8 t1")
    rc, out, err, report = _run(req)
    assert checks.check(req, rc, out, err, json.dumps(report)) is None

    bad = dict(report, payoffs=list(report["payoffs"]))
    bad["payoffs"][0] += 10 * report["stderr"][0]
    bad["payoffs"][1] -= 10 * report["stderr"][0]  # keep the total efficient
    assert checks.check(req, rc, out, err, json.dumps(bad)) == "payoff outside 6 stderr"

    bad = dict(report, stderr=[1.5 * s for s in report["stderr"]])
    assert checks.check(req, rc, out, err, json.dumps(bad)) == "stderr off by more than 20%"


def test_checker_rejects_corrupted_exact_payoff(tmp_path):
    reqs = workloads.generate("game-to-report", 1, str(tmp_path))
    req = next(r for r in reqs if r.label == "harsanyi custom d=8 x1")
    rc, out, err, report = _run(req)
    assert checks.check(req, rc, out, err, json.dumps(report)) is None
    report["payoffs"][0] += 1e-6
    report["payoffs"][1] -= 1e-6
    assert checks.check(req, rc, out, err, json.dumps(report)) == "payoffs"


def test_known_defects_are_classified_not_hidden(tmp_path):
    reqs = workloads.generate("sampled-orders", 1, str(tmp_path))
    req = next(r for r in reqs if r.label == "weber-mc uniform d=8 offset 1e8 t1")
    rc, out, err, report = _run(req)
    reason = checks.check(req, rc, out, err, json.dumps(report))
    assert reason is None or reason == checks.KNOWN_STDERR
    gate = workloads.Request("x", [], expect={"kind": "payoffs", "scale": 1e8, "d": 8})
    stderr = "error: efficiency gap 1.5e-08 exceeds 1e-10 for exact method"
    assert checks.check(gate, 4, "", stderr, None) == checks.KNOWN_GATE
    unit = workloads.Request("x", [], expect={"kind": "payoffs", "scale": 1.0, "d": 8})
    assert checks.check(unit, 4, "", stderr, None) == "exit 4"


def test_span_self_times_add_up_to_the_root():
    # root [0, 10] with a child [1, 6]; the child has two overlapping
    # worker-thread children [2, 5] and [3, 4]
    s = [(1, "cli.main", 0, 10, None), (2, "allocations.f", 1, 6, 1),
         (3, "orderings.s", 2, 5, 2), (4, "orderings.s", 3, 4, 2)]
    own = spans.self_times(s)
    assert own[1] == pytest.approx(5e-9) and own[2] == pytest.approx(2e-9)
    assert own[3] == pytest.approx(2.5e-9) and own[4] == pytest.approx(0.5e-9)
    assert sum(own.values()) == pytest.approx(10e-9)


def test_tracer_install_restores_every_original(tmp_path):
    from coalition_attr import expr, value_functions

    before = (expr.evaluate, value_functions.Model.__call__, Game.__dict__["from_json"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert expr.evaluate is not before[0]
        req = next(r for r in workloads.generate("model-to-report", 1, str(tmp_path))
                   if r.label.startswith("marginal d=4"))
        rc, recorded = tracer.call(cli.main, req.argv)
    finally:
        tracer.uninstall()
    assert rc == 0
    assert (expr.evaluate, value_functions.Model.__call__, Game.__dict__["from_json"]) == before
    summary = spans.summarize(recorded)
    assert summary["value_functions.oracle"]["calls"] == 16
    assert summary["expr.evaluate"]["calls"] == summary["value_functions.Model.__call__"]["calls"]
    root = summary[spans.ROOT]["total_s"]
    assert sum(row["self_s"] for row in summary.values()) == pytest.approx(root, rel=1e-9)


def test_compare_verdicts_follow_the_pair_rules():
    import compare

    lower = {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}
    parent = [100.0 + k % 3 for k in range(10)]
    faster = [90.0 + k % 3 for k in range(10)]
    assert compare.verdict(lower, parent, faster, False)[0] == "gain"
    assert compare.verdict(lower, parent, faster, True)[0] == "unchanged"  # more failures
    slower = [120.0 + k % 3 for k in range(10)]
    assert compare.verdict(lower, parent, slower, False)[0] == "regression"
    assert compare.verdict(lower, parent, [p + 1 for p in parent], False)[0] == "unchanged"
    noisy = [60.0, 140.0] * 5
    assert compare.verdict(lower, noisy, noisy, False)[0] == "unresolved"
    higher = dict(lower, better="higher")
    assert compare.verdict(higher, parent, slower, False)[0] == "gain"


def test_checker_holds_a_constant_marginal_to_rounding():
    # player 1 always comes first, so its marginal never changes: true stderr 0
    expect = {"kind": "mc", "scale": 1.0, "d": 2, "n": 100, "offset": 0.0,
              "mean": np.array([0.25, 0.75]), "var": np.array([0.0, 0.01]), "pair": "x"}
    req = workloads.Request("x", [], expect=expect)
    report = {"payoffs": [0.25, 0.75], "v_full": 1.0, "v_empty": 0.0, "stderr": [1e-12, 0.01]}
    assert checks.check(req, 0, "", "", json.dumps(report)) is None
    report["stderr"] = [1e-3, 0.01]
    assert checks.check(req, 0, "", "", json.dumps(report)) == "stderr off by more than 20%"
