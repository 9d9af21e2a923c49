import json
import warnings

import numpy as np
import pytest

from coalition_attr import Allocation, Game, cli
from coalition_attr.cli import main
from conftest import g3_fixture, unanimity_game


@pytest.fixture
def g2_file(tmp_path):
    p = tmp_path / "g2.json"
    p.write_text('{"d":2,"values":[0,1,2,4]}')
    return str(p)


@pytest.fixture
def g3_file(tmp_path):
    p = tmp_path / "g3_rho05.json"
    p.write_text(g3_fixture(0.5).to_json())
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_attribute_shapley(g2_file, capsys):
    code, out = run(capsys, "attribute", "--game", g2_file, "--method", "shapley")
    assert code == 0
    report = json.loads(out)
    assert report["payoffs"] == [1.5, 2.5]
    assert report["efficiency_gap"] == pytest.approx(0.0, abs=1e-10)
    assert "efficiency_gap" in report and "seed" in report


def test_attribute_cond_gauss(tmp_path, capsys):
    spec = tmp_path / "rho05.json"
    spec.write_text('{"mean":[0,0],"cov":[[1,0.5],[0.5,1]]}')
    code, out = run(capsys, "attribute", "--model", "x1+x2+x1*x2", "--gaussian", str(spec),
                    "--x", "1,2", "--value-fn", "cond-gauss", "--method", "shapley")
    assert code == 0
    report = json.loads(out)
    assert report["payoffs"] == pytest.approx([0.75, 3.75], abs=1e-10)
    assert sum(report["payoffs"]) == pytest.approx(4.5, abs=1e-10)
    assert report["v_empty"] == pytest.approx(0.5, abs=1e-12)


def test_attribute_marginal_value_fn(tmp_path, capsys):
    data = tmp_path / "bg.csv"
    data.write_text("a,b\n0,0\n2,2\n")
    code, out = run(capsys, "attribute", "--model", "x1 + x2", "--value-fn", "marginal",
                    "--data", str(data), "--x", "1,3", "--method", "shapley")
    assert code == 0
    report = json.loads(out)
    assert report["v_full"] == pytest.approx(4.0)
    assert report["v_empty"] == pytest.approx(2.0)  # mean background prediction
    assert sum(report["payoffs"]) == pytest.approx(2.0, abs=1e-10)


def test_pme_reads_a_roundoff_negative_dual_worth_as_zero(tmp_path, capsys):
    # x8 is not in the model, so the dual worth of {8} is 0, computed as -2.2e-16
    d = 8
    spec = tmp_path / "ar8.json"
    spec.write_text(json.dumps({"mean": [0] * d,
                                "cov": [[0.6 ** abs(i - j) for j in range(d)] for i in range(d)]}))
    code, out = run(capsys, "attribute", "--model",
                    "1*x1 + 2*x2 + 3*x3 + 4*x4 + 5*x5 + 6*x6 + 7*x7 + x1*x2",
                    "--gaussian", str(spec), "--value-fn", "sobol", "--method", "pme")
    assert code == 0
    report = json.loads(out)
    assert abs(report["efficiency_gap"]) <= 1e-10 * max(1.0, report["v_full"])
    assert report["payoffs"][7] == 0.0


def test_attribute_pme_on_dual(g3_file, capsys):
    code, out = run(capsys, "attribute", "--game", g3_file, "--method", "pme", "--on-dual")
    assert code == 0
    report = json.loads(out)
    assert report["payoffs"] == pytest.approx([0.5, 0.5, 0.0], abs=1e-4)
    assert report["allocated_game"] == "dual"


def power_game(d: int, scale: float) -> list[float]:
    """v(S) = scale * (sum_{i in S} a_i)^1.5: positive, with a positive dual."""
    a = np.linspace(0.5, 2.0, d)
    sums = np.array([a[[j for j in range(d) if m >> j & 1]].sum() for m in range(1 << d)])
    return (scale * sums**1.5).tolist()


@pytest.mark.parametrize("method", ["pv", "pme"])
@pytest.mark.parametrize("scale", [1e-30, 2.0**-100])
def test_pv_and_pme_at_any_scale(tmp_path, capsys, method, scale):
    # at d=12, the ratio potential of worths near 1e-30 underflows unless
    # the walk runs at unit scale
    payoffs = {}
    for c in (1.0, scale):
        g = tmp_path / "power.json"
        g.write_text(json.dumps({"d": 12, "values": power_game(12, c)}))
        code, out = run(capsys, "attribute", "--game", str(g), "--method", method)
        assert code == 0
        report = json.loads(out)
        assert abs(report["efficiency_gap"]) <= 1e-12 * report["v_full"]
        payoffs[c] = np.array(report["payoffs"])
    assert np.all(payoffs[scale] > 0)
    want = scale * payoffs[1.0]
    if scale == 2.0**-100:
        assert np.array_equal(payoffs[scale], want)
    else:
        assert np.max(np.abs(payoffs[scale] - want)) <= 1e-14 * np.max(want)


def power_game_file(tmp_path, d: int, scale: float) -> str:
    p = tmp_path / f"power{d}.json"
    p.write_text(json.dumps({"d": d, "values": power_game(d, scale)}))
    return str(p)


def zero_allocation(g, *args, **kwargs):
    return Allocation(np.zeros(g.d), "zero")


@pytest.mark.parametrize("method, route", [("pme", "pme"), ("shapley", "shapley_direct")])
def test_the_gate_is_relative_below_unit_scale(tmp_path, monkeypatch, capsys, method, route):
    # zero payoffs miss the whole of v(D) - v(empty), about 6e-29: an absolute
    # 1e-10 bound would pass them
    monkeypatch.setattr(cli, route, zero_allocation)
    code = main(["attribute", "--game", power_game_file(tmp_path, 12, 1e-30), "--method", method])
    assert code == 4
    assert "for exact method" in capsys.readouterr().err


def test_verify_fails_a_wrong_shapley_below_unit_scale(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "shapley_direct", zero_allocation)
    code, out = run(capsys, "verify", "--game", power_game_file(tmp_path, 12, 1e-30))
    assert code == 1
    assert "FAIL  cross-route shapley equality" in out


@pytest.mark.parametrize("scale", [1e-30, 2.0**-100, 1e-300])
def test_every_method_and_verify_pass_below_unit_scale(tmp_path, capsys, scale):
    game = power_game_file(tmp_path, 8, scale)
    for method in cli.METHODS:
        code, out = run(capsys, "attribute", "--game", game, "--method", method, "--seed", "1")
        assert code == 0, method
    code, out = run(capsys, "verify", "--game", game)
    assert code == 0 and "FAIL" not in out


# the cli global that each --method's route calls
ROUTE_GLOBALS = {
    "shapley": "shapley_direct",
    "shapley-perm": "shapley_permutation",
    "shapley-div": "shapley_dividends",
    "weber": "weber_allocate",
    "weber-mc": "weber_monte_carlo",
    "harsanyi": "harsanyi_allocate",
    "pv": "proportional_value",
    "pme": "pme",
}


def test_every_method_has_a_route():
    assert list(ROUTE_GLOBALS) == list(cli.METHODS)


@pytest.mark.parametrize("method", ROUTE_GLOBALS)
def test_the_gate_holds_every_allocation_without_a_stderr(tmp_path, monkeypatch, capsys,
                                                          method):
    real = getattr(cli, ROUTE_GLOBALS[method])
    calls = []

    def inefficient(g, *args, **kwargs):
        # the route's allocation, with v(D) - v(empty) too much for player 1
        calls.append(method)
        a = real(g, *args, **kwargs)
        payoffs = a.payoffs.copy()
        payoffs[0] += g.v_full - g.v_empty
        return Allocation(payoffs, a.method, a.stderr)

    # the route looks the global up when it runs, so it calls the wrapper
    monkeypatch.setattr(cli, ROUTE_GLOBALS[method], inefficient)
    code = main(["attribute", "--game", power_game_file(tmp_path, 3, 1.0), "--method", method,
                 "--seed", "1", "--n", "50"])
    assert calls == [method]
    if method == "weber-mc":
        assert code == 0
    else:
        assert code == 4
        assert "for exact method" in capsys.readouterr().err


def test_attribute_dual_shapley(g3_file, capsys):
    code, out = run(capsys, "attribute", "--game", g3_file, "--method", "shapley", "--on-dual")
    assert code == 0
    assert json.loads(out)["payoffs"] == pytest.approx([0.4375, 0.5, 0.0625], abs=1e-10)


def test_attribute_weber_mc_seeded(g2_file, capsys, tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        code, _ = run(capsys, "attribute", "--game", g2_file, "--method", "weber-mc",
                      "--n", "2000", "--seed", "11", "--out", str(out))
        assert code == 0
    assert out_a.read_text() == out_b.read_text()
    report = json.loads(out_a.read_text())
    assert "stderr" in report and len(report["stderr"]) == 2


def test_attribute_csv_format(g2_file, capsys):
    code, out = run(capsys, "attribute", "--game", g2_file, "--method", "shapley",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "player,payoff"
    assert lines[1].startswith("1,1.5")


def test_attribute_weights_file(g2_file, tmp_path, capsys):
    w = tmp_path / "w.json"
    w.write_text('{"preset":"min-owner"}')
    code, out = run(capsys, "attribute", "--game", g2_file, "--method", "harsanyi",
                    "--weights", str(w))
    assert code == 0
    assert json.loads(out)["payoffs"] == [2.0, 2.0]


def test_attribute_pmf_file(g2_file, tmp_path, capsys):
    pmf = tmp_path / "p.json"
    pmf.write_text('[{"order":[2,1],"p":1.0}]')
    code, out = run(capsys, "attribute", "--game", g2_file, "--method", "weber",
                    "--pmf", str(pmf))
    assert code == 0
    assert json.loads(out)["payoffs"] == [2.0, 2.0]


def test_attribute_dag_file(g3_file, tmp_path, capsys):
    dag = tmp_path / "dag.json"
    dag.write_text('{"edges":[[1,2],[2,3]]}')
    code, out = run(capsys, "attribute", "--game", g3_file, "--method", "weber",
                    "--dag", str(dag))
    assert code == 0
    report = json.loads(out)
    assert report["efficiency_gap"] == pytest.approx(0.0, abs=1e-10)


def test_attribute_dag_beyond_enumeration(tmp_path, capsys):
    # a chain of 4 edges leaves 12!/5! = 3.99e6 orders, more than 10!; the
    # exact values never list them
    g = tmp_path / "g12.json"
    g.write_text(Game(12, np.random.default_rng(12).normal(size=1 << 12)).to_json())
    dag = tmp_path / "chain.json"
    dag.write_text('{"edges":[[1,2],[2,3],[3,4],[4,5]]}')
    code, out = run(capsys, "attribute", "--game", str(g), "--method", "weber",
                    "--dag", str(dag))
    assert code == 0
    report = json.loads(out)
    assert abs(report["efficiency_gap"]) <= 1e-12
    assert abs(sum(report["payoffs"]) - (report["v_full"] - report["v_empty"])) <= 1e-12


# exit-code contract

def test_exit_2_on_config_errors(g2_file, capsys):
    assert main(["attribute", "--method", "shapley"]) == 2  # no game source
    assert main(["attribute", "--game", g2_file, "--model", "x1", "--method", "shapley"]) == 2
    assert main(["attribute", "--game", g2_file, "--method", "weber-mc"]) == 2  # missing seed
    assert main(["attribute", "--game", g2_file, "--method", "nope"]) == 2
    capsys.readouterr()


def test_exit_3_on_data_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["attribute", "--game", str(bad), "--method", "shapley"]) == 3
    assert main(["attribute", "--game", str(tmp_path / "missing.json"),
                 "--method", "shapley"]) == 3
    assert main(["dividends", "--game", str(bad)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("option, text", [
    ("--weights", '{"entries":[{"player":1,"coalition":1}]}'),  # no "w"
    ("--weights", '{"entries":[{"player":"a","coalition":1,"w":1}]}'),
    ("--weights", "[1,2]"),
    ("--pmf", '{"x":1}'),
    ("--dag", '{"edges":[[1]]}'),
    ("--gaussian", "[1,2]"),
])
def test_exit_3_on_structurally_invalid_json(g2_file, tmp_path, capsys, option, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    if option == "--gaussian":
        argv = ["--model", "x1", "--x", "1", "--value-fn", "cond-gauss", "--method", "shapley"]
    else:
        method = {"--weights": "harsanyi", "--pmf": "weber", "--dag": "weber"}[option]
        argv = ["--game", g2_file, "--method", method]
    assert main(["attribute", *argv, option, str(bad)]) == 3
    assert "bad " in capsys.readouterr().err


@pytest.mark.parametrize("entry, field", [
    ('{"player":1.9,"coalition":3.5,"w":0.25}', "player"),  # read as player 1 on {1,2}
    ('{"player":1,"coalition":1,"w":"1"}', "weight w"),
    ('{"player":1,"coalition":1,"w":true}', "weight w"),
])
def test_weight_entry_of_the_wrong_json_type_exits_3(g2_file, tmp_path, capsys, entry, field):
    w = tmp_path / "w.json"
    w.write_text('{"entries":[{"player":2,"coalition":2,"w":1},' + entry + "]}")
    assert main(["attribute", "--game", g2_file, "--method", "harsanyi", "--weights", str(w)]) == 3
    err = capsys.readouterr().err
    assert "bad weight system" in err and field in err


@pytest.mark.parametrize("preset", ["5", '["custom"]', "null"])
def test_weight_preset_of_the_wrong_json_type_exits_3(g2_file, tmp_path, capsys, preset):
    w = tmp_path / "w.json"
    w.write_text('{"preset":' + preset + "}")
    assert main(["attribute", "--game", g2_file, "--method", "harsanyi", "--weights", str(w)]) == 3
    err = capsys.readouterr().err
    assert "bad weight system" in err and "weight preset must be a string" in err


def test_unknown_weight_preset_exits_4(g2_file, tmp_path, capsys):
    w = tmp_path / "w.json"
    w.write_text('{"preset":"fair"}')
    assert main(["attribute", "--game", g2_file, "--method", "harsanyi", "--weights", str(w)]) == 4
    assert "unknown weight preset" in capsys.readouterr().err


@pytest.mark.parametrize("x", ["nan,1", "inf,1", "1,-inf"])
@pytest.mark.parametrize("value_fn", ["cond-gauss", "marginal", "sobol"])
def test_non_finite_instance_exits_2(tmp_path, capsys, value_fn, x):
    spec = tmp_path / "spec.json"
    spec.write_text('{"mean":[0,0],"cov":[[1,0],[0,1]]}')
    data = tmp_path / "bg.csv"
    data.write_text("0,0\n2,2\n")
    assert main(["attribute", "--model", "x1+x2", f"--x={x}", "--value-fn", value_fn,
                 "--gaussian", str(spec), "--data", str(data), "--method", "shapley"]) == 2
    assert f"bad vector '{x}'" in capsys.readouterr().err


def test_exit_3_on_undecodable_csv(tmp_path, capsys):
    data = tmp_path / "bg.csv"
    data.write_bytes(b"\xff\xfe1,2\n")
    assert main(["attribute", "--model", "x1 + x2", "--value-fn", "marginal",
                 "--data", str(data), "--x", "1,2", "--method", "shapley"]) == 3
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "-1", ""])
def test_exit_2_on_invalid_thread_count(g2_file, monkeypatch, capsys, value):
    monkeypatch.setenv("COALITION_ATTR_THREADS", value)
    assert main(["attribute", "--game", g2_file, "--method", "weber-mc", "--seed", "1",
                 "--n", "10"]) == 2
    assert "COALITION_ATTR_THREADS" in capsys.readouterr().err


@pytest.fixture
def gauss3_file(tmp_path):
    p = tmp_path / "gauss3.json"
    p.write_text('{"mean":[0,0,0],"cov":[[1,0.5,0],[0.5,1,0.5],[0,0.5,1]]}')
    return str(p)


def test_power_overflow_exits_2(tmp_path, capsys):
    data = tmp_path / "bg.csv"
    data.write_text("x1,x2\n1e200,1\n0,0\n")
    assert main(["attribute", "--model", "x1^2 + x2", "--value-fn", "marginal",
                 "--data", str(data), "--x", "1,1", "--method", "shapley"]) == 2
    assert "non-finite intermediate value" in capsys.readouterr().err
    assert main(["attribute", "--model", "2^99999 + x1", "--value-fn", "marginal",
                 "--data", str(data), "--x", "1,1", "--d", "2", "--method", "shapley"]) == 2
    assert "non-finite intermediate value" in capsys.readouterr().err


@pytest.mark.parametrize("value_fn", ["marginal", "cond-gauss", "sobol"])
def test_non_finite_coefficient_exits_2(tmp_path, gauss3_file, capsys, value_fn):
    data = tmp_path / "bg.csv"
    data.write_text("0,0,0\n1,1,1\n")
    assert main(["attribute", "--model", "2^99999 + x1", "--value-fn", value_fn,
                 "--data", str(data), "--gaussian", gauss3_file, "--x", "1,1,1",
                 "--method", "shapley"]) == 2
    assert "non-finite intermediate value" in capsys.readouterr().err


@pytest.mark.parametrize("value_fn", ["cond-gauss", "cond-mc", "sobol"])
def test_stacked_gaussian_spec_exits_3(tmp_path, capsys, value_fn):
    spec = tmp_path / "stacked.json"
    spec.write_text('{"mean":[[0,0]],"cov":[[[1,0],[0,1]]]}')
    assert main(["attribute", "--model", "x1+x2", "--gaussian", str(spec), "--x", "1,1",
                 "--value-fn", value_fn, "--method", "shapley", "--n", "10",
                 "--seed", "1"]) == 3
    assert "bad Gaussian spec" in capsys.readouterr().err


def test_main_builds_the_parser_once(g2_file, monkeypatch, capsys):
    built = []
    make_parser = cli.make_parser
    monkeypatch.setattr(cli, "make_parser", lambda: built.append(1) or make_parser())
    cli._parser.cache_clear()
    for _ in range(2):
        assert main(["attribute", "--game", g2_file, "--method", "shapley"]) == 0
    assert len(built) == 1
    capsys.readouterr()


@pytest.mark.parametrize("model", ["(" * 3000 + "x1" + ")" * 3000, "x1" + "+x1" * 3000])
def test_too_deep_expression_exits_2(tmp_path, capsys, model):
    data = tmp_path / "bg.csv"
    data.write_text("0\n1\n")
    assert main(["attribute", "--model", model, "--value-fn", "marginal",
                 "--data", str(data), "--x", "1", "--method", "shapley"]) == 2
    assert "nested deeper" in capsys.readouterr().err


@pytest.mark.parametrize("value_fn", ["cond-gauss", "cond-mc"])
@pytest.mark.parametrize("shape", [["--x=1,1"], ["--d", "2", "--x=1,1"]])
def test_feature_count_mismatch_exits_4(gauss3_file, capsys, value_fn, shape):
    argv = ["attribute", "--model", "x1 + x2", "--gaussian", gauss3_file,
            "--value-fn", value_fn, "--method", "shapley", "--n", "10", "--seed", "1"]
    assert main(argv + shape) == 4
    assert "disagree on feature count" in capsys.readouterr().err


def test_exit_4_on_numerical_failure(tmp_path, capsys):
    g = tmp_path / "neg.json"
    g.write_text('{"d":2,"values":[0,1,0,2]}')  # zero singleton worth
    assert main(["attribute", "--game", str(g), "--method", "pv"]) == 4
    capsys.readouterr()


def test_dividends_command(g2_file, capsys):
    code, out = run(capsys, "dividends", "--game", g2_file)
    assert code == 0
    report = json.loads(out)
    assert report["dividends"] == [0.0, 1.0, 2.0, 1.0]
    assert report["checksum"] == pytest.approx(report["v_full"])


def test_dividends_unanimity(tmp_path, capsys):
    p = tmp_path / "u.json"
    p.write_text(unanimity_game(3, 0b011).to_json())
    code, out = run(capsys, "dividends", "--game", str(p))
    assert code == 0
    div = json.loads(out)["dividends"]
    assert div[0b011] == 1.0
    assert sum(abs(x) for x in div) == 1.0


def test_verify_passes_on_fixtures(g2_file, g3_file, tmp_path, capsys):
    for path in (g2_file, g3_file):
        code, out = run(capsys, "verify", "--game", path)
        assert code == 0
        assert "FAIL" not in out


def test_verify_single_player(tmp_path, capsys):
    p = tmp_path / "d1.json"
    p.write_text('{"d":1,"values":[0.5,2.0]}')
    code, out = run(capsys, "verify", "--game", str(p))
    assert code == 0


def test_verify_fault_injection(g2_file, capsys, monkeypatch):
    # a Moebius round trip off by 1 on the grand coalition
    real = cli.zeta_reconstruct
    monkeypatch.setattr(cli, "zeta_reconstruct",
                        lambda t: Game(t.d, real(t).values + np.eye(1 << t.d)[-1]))
    code, out = run(capsys, "verify", "--game", g2_file)
    assert code == 1
    assert "FAIL  moebius round-trip" in out


def test_paper_bench(capsys):
    code, out = run(capsys, "paper-bench")
    assert code == 0
    assert "FAIL" not in out


def test_exact_gate_scales_with_the_game(tmp_path, capsys):
    # worths near 1e8: rounding alone leaves gaps far above an absolute 1e-10
    rng = np.random.default_rng(12)
    p = tmp_path / "big.json"
    p.write_text(Game(12, 1e8 * rng.uniform(0.5, 1.5, 1 << 12)).to_json())
    for method in ("shapley", "shapley-div", "harsanyi"):
        code, out = run(capsys, "attribute", "--game", str(p), "--method", method)
        assert code == 0, method
    code, out = run(capsys, "verify", "--game", str(p))
    assert code == 0 and "FAIL" not in out


def test_exact_gate_still_rejects_unit_scale_gap(tmp_path, capsys):
    # weights on {1,2} sum to 1 + 5e-10 (inside the weight tolerance) and the
    # dividend of {1,2} is 2, so the payoffs overshoot v(D) by 1e-9
    g = tmp_path / "g.json"
    g.write_text('{"d":2,"values":[0,1,2,5]}')
    w = tmp_path / "w.json"
    w.write_text(json.dumps({"preset": "egalitarian",
                             "entries": [{"player": 1, "coalition": 3, "w": 0.5 + 5e-10}]}))
    assert main(["attribute", "--game", str(g), "--method", "harsanyi", "--weights", str(w)]) == 4
    assert "efficiency gap" in capsys.readouterr().err


def test_out_of_range_weight_entries_exit_4(g2_file, tmp_path, capsys):
    for player, coalition, weight in ((1, -1, 0.3), (0, 1, 0.3), (3, 4, 0.3), (3, 1, 0.0),
                                      (1, 5, 0.3)):
        w = tmp_path / "w.json"
        w.write_text(json.dumps(
            {"entries": [{"player": player, "coalition": coalition, "w": weight}]}))
        assert main(["attribute", "--game", g2_file, "--method", "harsanyi",
                     "--weights", str(w)]) == 4, (player, coalition)
        assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("argv, game, message", [
    # payoffs 0.9e308 each: their sum and v(D) - v(empty) both overflow
    (["attribute", "--method", "shapley"], '{"d":2,"values":[-0.9e308,0,0,0.9e308]}',
     "gap nan is not finite"),
    (["dividends"], '{"d":2,"values":[0,1.7e308,1.7e308,-1.7e308]}',
     "non-finite dividend at coalition {1,2}"),
    (["dividends"], '{"d":2,"values":[0,1.7e308,1.7e308,1.7e308]}',
     "checksum inf is not finite"),
    (["attribute", "--method", "weber-mc", "--seed", "1", "--n", "100"],
     '{"d":3,"values":[0,1e200,-1e200,3e200,1e200,-2e200,0,1e200]}', "stderr must be finite"),
], ids=["gap", "dividend", "checksum", "stderr"])
def test_non_finite_report_value_exits_4(tmp_path, capsys, argv, game, message):
    p = tmp_path / "g.json"
    p.write_text(game)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([*argv, "--game", str(p)]) == 4
    out = capsys.readouterr()
    assert out.out == "" and message in out.err


def _strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_every_report_kind_is_strict_json(g2_file, tmp_path, capsys):
    reports = []
    for argv in (["attribute", "--game", g2_file, "--method", "shapley", "--seed", "3"],
                 ["attribute", "--game", g2_file, "--method", "weber-mc", "--seed", "3",
                  "--n", "50"],
                 ["dividends", "--game", g2_file],
                 ["paper-bench"]):
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 0
        reports.append(_strict_json(out.read_text(encoding="utf-8")))
    capsys.readouterr()
    assert [list(r) for r in reports] == [
        ["method", "players", "payoffs", "efficiency_gap", "v_empty", "v_full",
         "allocated_game", "config", "seed"],
        ["method", "players", "payoffs", "efficiency_gap", "v_empty", "v_full",
         "allocated_game", "config", "seed", "stderr"],
        ["d", "dividends", "checksum", "v_full"],
        ["rows", "pass"]]
    assert reports[-1]["pass"] and all(set(r) == {"case", "max_dev", "tol"}
                                       for r in reports[-1]["rows"])


def test_report_floats_round_trip_exactly(tmp_path, capsys):
    values = [1e-05, 1e16, 5e-324, 0.1, -2.5e-310, 1.7976931348623157e308, 1 / 3, -0.0]
    g = Game(3, np.array(values))
    p = tmp_path / "g.json"
    p.write_text(g.to_json())
    code, out = run(capsys, "dividends", "--game", str(p))
    assert code == 0
    assert _strict_json(out)["dividends"] == cli.dividends_fast(g).dividends.tolist()
    code, out = run(capsys, "attribute", "--game", str(p), "--method", "shapley-div")
    assert code == 0
    assert _strict_json(out)["payoffs"] == cli.shapley_dividends(g).payoffs.tolist()


def test_report_is_utf8_without_escapes(tmp_path, capsys):
    p = tmp_path / "spiel-über.json"
    p.write_text('{"d":2,"values":[0,1,2,4]}')
    out = tmp_path / "report.json"
    assert main(["attribute", "--game", str(p), "--method", "shapley", "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert "über".encode() in raw and b"\\u" not in raw
    assert json.loads(raw)["config"]["game"] == str(p)


def _mc_argv(method: str, g2_file: str, gauss3_file: str) -> list[str]:
    if method == "weber-mc":
        return ["attribute", "--game", g2_file, "--method", "weber-mc", "--n", "20"]
    return ["attribute", "--model", "x1 + x2*x3", "--gaussian", gauss3_file, "--x", "1,1,1",
            "--value-fn", "cond-mc", "--method", "shapley", "--n", "20"]


@pytest.mark.parametrize("value", ["-1", str(2**64)])
@pytest.mark.parametrize("method", ["weber-mc", "cond-mc"])
def test_seed_outside_64_bits_exits_2(g2_file, gauss3_file, capsys, method, value):
    assert main([*_mc_argv(method, g2_file, gauss3_file), "--seed", value]) == 2
    assert "seed must be in [0, 2^64)" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["weber-mc", "cond-mc"])
def test_largest_seed_runs_and_is_echoed(g2_file, gauss3_file, capsys, method):
    code, out = run(capsys, *_mc_argv(method, g2_file, gauss3_file), "--seed", str(2**64 - 1))
    assert code == 0
    assert f'"seed": {2**64 - 1}' in out and _strict_json(out)["seed"] == 2**64 - 1


@pytest.mark.parametrize("spec", ['{"mean":[0,NaN],"cov":[[1,0],[0,1]]}',
                                  '{"mean":[0,0],"cov":[[NaN,0],[0,1]]}',
                                  '{"mean":[0,0],"cov":[[1,Infinity],[Infinity,1]]}'],
                         ids=["nan-mean", "nan-cov", "inf-cov"])
@pytest.mark.parametrize("value_fn", ["cond-gauss", "cond-mc", "sobol", "sobol-total"])
def test_non_finite_gaussian_spec_exits_3(tmp_path, capsys, value_fn, spec):
    p = tmp_path / "spec.json"
    p.write_text(spec)
    assert main(["attribute", "--model", "x1+x2", "--gaussian", str(p), "--x", "1,1",
                 "--value-fn", value_fn, "--method", "shapley", "--n", "10",
                 "--seed", "1"]) == 3
    assert "bad Gaussian spec" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["weber", "weber-mc"])
def test_nan_pmf_probability_exits_3(g2_file, tmp_path, capsys, method):
    p = tmp_path / "pmf.json"
    p.write_text('[{"order":[1,2],"p":NaN},{"order":[2,1],"p":1.0}]')
    assert main(["attribute", "--game", g2_file, "--method", method, "--pmf", str(p),
                 "--seed", "1", "--n", "10"]) == 3
    assert "bad pmf" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-3"])
@pytest.mark.parametrize("method", ["weber-mc", "cond-mc", "sobol"])
def test_sample_count_below_2_exits_2(g2_file, gauss3_file, capsys, method, n):
    if method == "sobol":  # a cubic model has no closed form, so sobol runs Monte Carlo
        argv = ["attribute", "--model", "x1*x2*x3", "--gaussian", gauss3_file,
                "--value-fn", "sobol", "--method", "shapley"]
    else:
        argv = _mc_argv(method, g2_file, gauss3_file)[:-2]
    assert main([*argv, "--seed", "1", "--n", n]) == 2
    assert "sample count must be >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("argv, game", [
    (["dividends"], '{"d":2,"values":[0,1.7e308,1.7e308,-1.7e308]}'),
    (["attribute", "--method", "weber-mc", "--seed", "1", "--n", "5000"],
     '{"d":3,"values":[0,1e200,-1e200,3e200,1e200,-2e200,0,1e200]}'),
], ids=["dividends", "weber-mc"])
def test_numerical_exit_prints_no_numpy_warning(tmp_path, capsys, monkeypatch, argv, game,
                                                threads):
    monkeypatch.setenv("COALITION_ATTR_THREADS", threads)
    p = tmp_path / "g.json"
    p.write_text(game)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning, in any thread, would raise
        assert main([*argv, "--game", str(p)]) == 4
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err and err.startswith("error: ")


@pytest.mark.parametrize("text", [
    '{"edges":[[1,2],[2,1]]}',  # cycle
    '{"edges":[[2,2]]}',  # self-loop
    '{"edges":[[0,1]]}',  # unknown players
    '{"edges":[[1,9]]}',
    '{"edges":[[1.9,2]]}',  # not JSON integers
    '{"edges":[[true,2]]}',
    '{"edges":[["1",2]]}',
])
@pytest.mark.parametrize("method", ["weber", "weber-mc"])
def test_bad_dag_exits_3(g3_file, tmp_path, capsys, text, method):
    p = tmp_path / "dag.json"
    p.write_text(text)
    assert main(["attribute", "--game", g3_file, "--method", method, "--dag", str(p),
                 "--seed", "1", "--n", "10"]) == 3
    assert "bad DAG" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '[{"order":[1,1,2],"p":1.0}]',  # repeated player
    '[{"order":[1,2,3],"p":0.5},{"order":[3,2,1],"p":0.4}]',  # sums to 0.9
    '[{"order":[1,2],"p":1.0}]',  # two players for a three-player game
    '[{"order":[1,2,3,4],"p":1.0}]',
    '[{"order":[1.2,2,3],"p":1.0}]',  # not JSON integers
    '[{"order":[1,true,3],"p":1.0}]',
    '[{"order":[1,2,3],"p":"0.5"},{"order":[3,2,1],"p":0.5}]',  # not JSON numbers
    '[{"order":[1,2,3],"p":true}]',
])
@pytest.mark.parametrize("method", ["weber", "weber-mc"])
def test_bad_pmf_exits_3(g3_file, tmp_path, capsys, text, method):
    p = tmp_path / "pmf.json"
    p.write_text(text)
    assert main(["attribute", "--game", g3_file, "--method", method, "--pmf", str(p),
                 "--seed", "1", "--n", "10"]) == 3
    assert "bad pmf" in capsys.readouterr().err



@pytest.mark.parametrize("extra", [[], ["--x", "1,2"]])
@pytest.mark.parametrize("d", ["0", "-1", "two"])
def test_feature_count_below_1_exits_2(tmp_path, capsys, d, extra):
    data = tmp_path / "bg.csv"
    data.write_text("0,0\n1,1\n")
    assert main(["attribute", "--model", "x1", "--d", d, "--value-fn", "marginal",
                 "--data", str(data), "--method", "shapley", *extra]) == 2
    assert "--d" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["no-dir", "a-dir"])
@pytest.mark.parametrize("command", ["attribute", "dividends", "paper-bench"])
def test_unwritable_report_path_exits_3(g2_file, tmp_path, capsys, command, target):
    out = str(tmp_path / target)
    argv = {"attribute": ["--game", g2_file, "--method", "shapley"],
            "dividends": ["--game", g2_file], "paper-bench": []}[command]
    assert main([command, *argv, "--out", out]) == 3
    assert f"error: cannot write {out}" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ['{"mean":[true,0],"cov":[[1,0],[0,1]]}',
                                  '{"mean":["1",0],"cov":[[1,0],[0,1]]}',
                                  '{"mean":[[0,0]],"cov":[[1,0],[0,1]]}',
                                  '{"mean":[0,0],"cov":[[1,0],[0,true]]}',
                                  '{"mean":[0,0],"cov":[[1,0],[0,"1"]]}',
                                  '{"mean":[0,0],"cov":[1,0,0,1]}',
                                  '{"mean":0,"cov":[[1]]}'],
                         ids=["bool-mean", "string-mean", "nested-mean", "bool-cov",
                              "string-cov", "flat-cov", "scalar-mean"])
def test_gaussian_spec_entries_of_the_wrong_json_type_exit_3(tmp_path, capsys, spec):
    p = tmp_path / "spec.json"
    p.write_text(spec)
    assert main(["attribute", "--model", "x1+x2", "--gaussian", str(p), "--x", "1,1",
                 "--value-fn", "cond-gauss", "--method", "shapley"]) == 3
    assert "bad Gaussian spec" in capsys.readouterr().err
