"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its observed worst-case deviation."""
import itertools
import random
import time

import numpy as np
import pytest

from coalition_attr import (
    Explicit,
    Game,
    GaussianSpec,
    Model,
    Uniform,
    WeightSystem,
    conditional_gaussian_game,
    dual_game,
    efficiency_gap,
    harsanyi_allocate,
    marginal_vector,
    pme,
    shapley_direct,
    shapley_dividends,
    shapley_permutation,
    sobol_closed_game,
    sobol_total_game,
    variance_fixture_spec,
    weber_allocate,
    weber_monte_carlo,
)
from coalition_attr import cli
from coalition_attr.cli import main as cli_main
from coalition_attr.dividends import dividends_fast, dividends_recursive, zeta_reconstruct
from coalition_attr.expr import ExprError, evaluate, parse, to_str
from conftest import g3_fixture, random_game


def report(name: str, dev: float, tol: float):
    print(f"PASS  {name}: max deviation {dev:.3e} (tol {tol:.0e})")


def test_criterion_1_prediction_decomposition_grid():
    t0 = time.monotonic()
    f = Model.from_expression("x1 + x2 + x1*x2", 2)
    worst = 0.0
    for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
        spec = GaussianSpec(np.zeros(2), np.array([[1.0, rho], [rho, 1.0]]))
        for x1, x2 in itertools.product((-2.0, -1.0, 0.0, 1.0, 2.0), repeat=2):
            g = conditional_gaussian_game(f, spec, np.array([x1, x2]))
            got = shapley_direct(g).payoffs
            want = np.array([
                x1 + rho / 2 * (x1 + x1**2 - x2 - x2**2 - 1) + x1 * x2 / 2,
                x2 + rho / 2 * (x2 + x2**2 - x1 - x1**2 - 1) + x1 * x2 / 2,
            ])
            worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-8
    assert elapsed < 1.0
    report("criterion 1 (conditional-Gaussian Shapley grid)", worst, 1e-8)


def test_criterion_2_variance_decomposition():
    t0 = time.monotonic()
    f = Model.from_expression("x1 + x2", 3)
    worst_shap, worst_pme = 0.0, 0.0
    for rho in (0.0, 0.3, 0.5, 0.9):
        g = sobol_closed_game(f, variance_fixture_spec(rho), normalize=True)
        shap = shapley_direct(dual_game(g)).payoffs
        want = np.array([0.5 * (1 - rho**2 / 2), 0.5, rho**2 / 4])
        worst_shap = max(worst_shap, float(np.max(np.abs(shap - want))))
        p = pme(g).payoffs
        worst_pme = max(worst_pme, float(np.max(np.abs(p - np.array([0.5, 0.5, 0.0])))))
    elapsed = time.monotonic() - t0
    assert worst_shap <= 1e-8
    assert worst_pme <= 1e-8
    assert elapsed < 5.0
    report("criterion 2 (dual-variance Shapley)", worst_shap, 1e-8)
    report("criterion 2 (proportional marginal effects)", worst_pme, 1e-8)


def test_criterion_3_cross_route_shapley():
    t0 = time.monotonic()
    worst = 0.0
    for d in range(1, 9):
        rng = np.random.default_rng(100 + d)
        for _ in range(50):
            g = random_game(d, rng)
            routes = [
                shapley_direct(g).payoffs,
                shapley_permutation(g).payoffs,
                shapley_dividends(g).payoffs,
                harsanyi_allocate(g, WeightSystem("egalitarian")).payoffs,
                weber_allocate(g, Uniform()).payoffs,
            ]
            for a, b in itertools.combinations(routes, 2):
                worst = max(worst, float(np.max(np.abs(a - b))))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-10
    assert elapsed < 30.0
    report("criterion 3 (five Shapley routes, 50 games x d<=8)", worst, 1e-10)


def test_criterion_4_efficiency_of_weber_and_harsanyi():
    rng = np.random.default_rng(200)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 9))
        g = random_game(d, rng)  # normal values: v(empty) != 0 almost surely
        if d <= 5:
            perms = list(itertools.permutations(range(d)))
            k = int(rng.integers(1, min(len(perms), 8) + 1))
            idx = rng.choice(len(perms), size=k, replace=False)
            probs = rng.dirichlet(np.ones(k))
            p = Explicit(tuple(perms[i] for i in idx), tuple(probs))
        else:
            p = Uniform()
        worst = max(worst, abs(efficiency_gap(g, weber_allocate(g, p))))
        entries = {}
        for mask in range(1, 1 << d):
            ms = [j for j in range(d) if (mask >> j) & 1]
            ws = rng.dirichlet(np.ones(len(ms)))
            for j, wj in zip(ms, ws):
                entries[(j, mask)] = float(wj)
        alloc = harsanyi_allocate(g, WeightSystem("custom", entries))
        worst = max(worst, abs(efficiency_gap(g, alloc)))
    assert worst <= 1e-10
    report("criterion 4 (efficiency over 200 random pairs)", worst, 1e-10)


def test_criterion_5_moebius_zeta():
    worst_rt, worst_sum, worst_eq = 0.0, 0.0, 0.0
    for d in range(1, 13):
        rng = np.random.default_rng(300 + d)
        g = random_game(d, rng)
        scale = max(1.0, float(np.max(np.abs(g.values))))
        t = dividends_fast(g)
        back = zeta_reconstruct(t)
        worst_rt = max(worst_rt, float(np.max(np.abs(back.values - g.values))) / scale)
        worst_sum = max(worst_sum, abs(float(np.sum(t.dividends)) - g.v_full) / scale)
        if d <= 10:
            ref = dividends_recursive(g)
            worst_eq = max(
                worst_eq, float(np.max(np.abs(t.dividends - ref.dividends))) / scale
            )
    assert worst_rt <= 1e-12 and worst_sum <= 1e-12 and worst_eq <= 1e-12
    report("criterion 5 (Moebius/zeta round-trip and totals)", max(worst_rt, worst_sum), 1e-12)


def test_criterion_6_telescoping():
    worst = 0.0
    for d in range(1, 7):
        rng = np.random.default_rng(400 + d)
        g = random_game(d, rng)
        span = g.v_full - g.v_empty
        for order in itertools.permutations(range(d)):
            worst = max(worst, abs(float(np.sum(marginal_vector(g, order))) - span))
    assert worst <= 1e-12
    report("criterion 6 (telescoping over all orderings)", worst, 1e-12)


def test_criterion_7_duality():
    worst_sd = 0.0
    for d in range(1, 7):
        rng = np.random.default_rng(500 + d)
        g = random_game(d, rng)
        a = shapley_direct(g).payoffs
        b = shapley_direct(dual_game(g)).payoffs
        worst_sd = max(worst_sd, float(np.max(np.abs(a - b))))
    assert worst_sd <= 1e-10
    f = Model.from_expression("x1 + 2*x2 + x1*x3 + x2^2", 3)
    spec = GaussianSpec(np.array([0.2, -0.1, 0.4]),
                        np.array([[1.0, 0.2, 0.4], [0.2, 1.0, -0.3], [0.4, -0.3, 1.0]]))
    closed = sobol_closed_game(f, spec, normalize=False)
    total = sobol_total_game(f, spec, normalize=False)
    worst_tv = float(np.max(np.abs(total.values - dual_game(closed).values)))
    assert worst_tv <= 1e-10
    report("criterion 7 (Shapley self-duality)", worst_sd, 1e-10)
    report("criterion 7 (total-variance duality)", worst_tv, 1e-10)


def test_criterion_8_monte_carlo_calibration():
    g2 = Game(2, np.array([0.0, 1.0, 2.0, 4.0]))
    rng = np.random.default_rng(600)
    g6 = random_game(6, rng)
    for g in (g2, g6):
        exact = shapley_direct(g).payoffs
        hits = 0
        for trial in range(100):
            a = weber_monte_carlo(g, Uniform(), 10_000, seed=1000 + trial)
            if np.all(np.abs(a.payoffs - exact) <= 3 * a.stderr):
                hits += 1
        assert hits >= 95, f"only {hits}/100 trials within 3 stderr"
    a = weber_monte_carlo(g6, Uniform(), 10_000, seed=77, threads=1)
    b = weber_monte_carlo(g6, Uniform(), 10_000, seed=77, threads=4)
    assert np.array_equal(a.payoffs, b.payoffs) and np.array_equal(a.stderr, b.stderr)
    print("PASS  criterion 8 (Monte Carlo calibration and bitwise determinism)")


def test_criterion_9_parser():
    from test_expr import _random_tree

    rng = random.Random(900)
    pts = [np.array([0.7, -1.1, 2.3])]
    for _ in range(100):
        tree = _random_tree(rng, 3, 4)
        back = parse(to_str(tree), 3)
        for pt in pts:
            assert evaluate(back, pt) == pytest.approx(evaluate(tree, pt), rel=1e-12, abs=1e-12)
    crashes = 0
    for _ in range(100_000):
        n = rng.randrange(0, 24)
        s = bytes(rng.randrange(0, 256) for _ in range(n)).decode("latin-1")
        try:
            parse(s, 3)
        except ExprError as err:
            assert 0 <= err.pos <= len(s)
        except Exception:
            crashes += 1
    assert crashes == 0
    print("PASS  criterion 9 (parser round-trip and 1e5-string fuzz)")


def test_criterion_10_cli_end_to_end(tmp_path, capsys, monkeypatch):
    assert cli_main(["paper-bench"]) == 0
    g2 = tmp_path / "g2.json"
    g2.write_text('{"d":2,"values":[0,1,2,4]}')
    g3 = tmp_path / "g3.json"
    g3.write_text(g3_fixture(0.5).to_json())
    d1 = tmp_path / "d1.json"
    d1.write_text('{"d":1,"values":[0,1]}')
    for path in (g2, g3, d1):
        assert cli_main(["verify", "--game", str(path)]) == 0
    # documented exit codes under injected faults
    assert cli_main(["attribute", "--method", "shapley"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("}{")
    assert cli_main(["attribute", "--game", str(bad), "--method", "shapley"]) == 3
    zero = tmp_path / "zero.json"
    zero.write_text('{"d":2,"values":[0,0,1,2]}')
    assert cli_main(["attribute", "--game", str(zero), "--method", "pv"]) == 4
    # a Moebius round trip off by 1 on the grand coalition fails verify
    real = cli.zeta_reconstruct
    monkeypatch.setattr(cli, "zeta_reconstruct",
                        lambda t: Game(t.d, real(t).values + np.eye(1 << t.d)[-1]))
    capsys.readouterr()
    assert cli_main(["verify", "--game", str(g2)]) == 1
    assert "FAIL  moebius round-trip" in capsys.readouterr().out
    print("PASS  criterion 10 (CLI end-to-end and exit codes)")
