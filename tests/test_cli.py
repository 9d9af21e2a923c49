import json
import warnings

import numpy as np
import orjson
import pytest

from coalition_attr import Allocation, Game, allocations, cli
from coalition_attr.cli import main
from conftest import InlinePool, g3_fixture, unanimity_game


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
        seed = ["--seed", "1"] if method == "weber-mc" else []  # the one method that draws
        code, out = run(capsys, "attribute", "--game", game, "--method", method, *seed)
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


def test_csv_byte_order_mark_is_not_part_of_the_first_row(tmp_path, capsys):
    argv = ["attribute", "--model", "x1+x2", "--value-fn", "marginal", "--x", "0,0",
            "--method", "shapley", "--data"]
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(b"1,2\n3,4\n")
    marked.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n")
    code, want = run(capsys, *argv, str(plain))
    assert code == 0 and json.loads(want)["v_empty"] == 5.0
    assert run(capsys, *argv, str(marked)) == (0, want)


@pytest.mark.parametrize("header", [b"x1,x2\n", b"\xef\xbb\xbfx1,x2\n"])
def test_a_header_row_is_skipped(tmp_path, capsys, header):
    data = tmp_path / "bg.csv"
    data.write_bytes(header + b"1,2\n3,4\n")
    code, out = run(capsys, "attribute", "--model", "x1+x2", "--value-fn", "marginal",
                    "--x", "0,0", "--method", "shapley", "--data", str(data))
    assert code == 0 and json.loads(out)["v_empty"] == 5.0


@pytest.mark.parametrize("first", ["1,2x", "a,2"])
def test_a_first_row_with_a_number_is_data(tmp_path, capsys, first):
    # a typo in the first data row is an error, not a header that drops the row
    data = tmp_path / "bg.csv"
    data.write_text(f"{first}\n3,4\n")
    assert main(["attribute", "--model", "x1+x2", "--value-fn", "marginal", "--x", "0,0",
                 "--method", "shapley", "--data", str(data)]) == 3
    assert f"bad CSV {data}" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_csv_entry_exits_3(tmp_path, capsys, entry):
    data = tmp_path / "bg.csv"
    data.write_text(f"a,b\n0,0\n2,{entry}\n")
    assert main(["attribute", "--model", "x1 + x2", "--value-fn", "marginal",
                 "--data", str(data), "--x", "1,2", "--method", "shapley"]) == 3
    err = capsys.readouterr().err
    assert f"bad CSV {data}: non-finite entry '{entry}' at row 3, column 2" in err


@pytest.mark.parametrize("method", ["weber", "weber-mc"])
def test_pmf_with_dag_exits_2(g2_file, tmp_path, capsys, method):
    pmf, dag = tmp_path / "pmf.json", tmp_path / "dag.json"
    pmf.write_text('[{"order":[2,1],"p":1.0}]')
    dag.write_text('{"edges":[[1,2]]}')
    assert main(["attribute", "--game", g2_file, "--method", method, "--pmf", str(pmf),
                 "--dag", str(dag), "--seed", "1", "--n", "10"]) == 2
    assert "at most one of --pmf or --dag" in capsys.readouterr().err


READS = {"weber": ("pmf", "dag"), "weber-mc": ("pmf", "dag"), "harsanyi": ("weights",)}


@pytest.mark.parametrize("method, option", [
    (method, option) for method in ROUTE_GLOBALS for option in ("pmf", "dag", "weights")
    if option not in READS.get(method, ())])
def test_a_file_the_method_does_not_read_exits_2(tmp_path, capsys, method, option):
    # each file is invalid for its option and the game file is missing, so
    # reading either would exit 3
    pmf, weights = tmp_path / "pmf.json", tmp_path / "w.json"
    pmf.write_text('[{"order":[1,2],"p":0.9}]')
    weights.write_text('{"preset":"fair"}')
    path = pmf if option == "pmf" else weights
    argv = ["attribute", "--game", str(tmp_path / "missing.json"), "--method", method,
            f"--{option}", str(path), "--seed", "1", "--n", "10"]
    assert main(argv) == 2
    assert f"--{option} is not read by --method {method}" in capsys.readouterr().err


def test_the_files_each_method_reads():
    assert {m: reads for m, (_, reads) in cli.METHODS.items() if reads} == READS


@pytest.mark.parametrize("option, value", [("--value-fn", "marginal"), ("--data", "bg.csv"),
                                           ("--gaussian", "spec.json"), ("--x", "1,1")])
def test_a_model_option_with_game_exits_2(tmp_path, capsys, option, value):
    # no file exists, so reading the game, the CSV or the spec would exit 3
    argv = ["attribute", "--game", str(tmp_path / "missing.json"), "--method", "shapley",
            option, str(tmp_path / value) if value.endswith(("csv", "json")) else value]
    assert main(argv) == 2
    assert f"{option} is not read with --game" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["attribute", "--gam", "g2.json", "--method", "shapley"],
    ["attribute", "--game", "g2.json", "--method", "shapley", "--meth", "pv"],
    ["attribute", "--game", "g2.json", "--method", "shapley", "--gauss", "spec.json"],
    ["paper-bench", "--ou", "report.json"],
], ids=["gam", "meth", "gauss", "ou"])
def test_an_abbreviated_option_exits_2(g2_file, tmp_path, capsys, argv):
    abbreviated = next(a for a in argv if a in ("--gam", "--meth", "--gauss", "--ou"))
    argv = [g2_file if a == "g2.json" else str(tmp_path / a) if a.endswith("json") else a
            for a in argv]
    assert main(argv) == 2
    assert f"unrecognized arguments: {abbreviated}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["--game", "g.json"], "--unnormalized is not read with --game"),
    (["--model", "x1", "--value-fn", "marginal", "--data", "bg.csv", "--x", "1"],
     "--unnormalized is not read by --value-fn marginal"),
    (["--model", "x1", "--value-fn", "cond-gauss", "--gaussian", "spec.json", "--x", "1"],
     "--unnormalized is not read by --value-fn cond-gauss"),
    (["--model", "x1", "--value-fn", "cond-mc", "--gaussian", "spec.json", "--x", "1",
      "--seed", "1"], "--unnormalized is not read by --value-fn cond-mc"),
])
def test_unnormalized_outside_sobol_exits_2(tmp_path, capsys, argv, message):
    # no file exists, so reading one would exit 3
    argv = [str(tmp_path / a) if a.endswith(("csv", "json")) else a for a in argv]
    assert main(["attribute", "--method", "shapley", "--unnormalized", *argv]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("value_fn", ["sobol", "sobol-total"])
def test_unnormalized_sobol_reports_the_model_variance(tmp_path, capsys, value_fn):
    # Var(x1 + x2 + x1*x2) at rho = 0.5: 3 for the sum, 1 + rho^2 for the
    # product, and no covariance between them (odd Gaussian moments)
    spec = tmp_path / "rho05.json"
    spec.write_text('{"mean":[0,0],"cov":[[1,0.5],[0.5,1]]}')
    argv = ["attribute", "--model", "x1+x2+x1*x2", "--gaussian", str(spec),
            "--value-fn", value_fn, "--method", "shapley"]
    code, out = run(capsys, *argv, "--unnormalized")
    assert code == 0
    assert json.loads(out)["v_full"] == pytest.approx(4.25, rel=1e-12)
    code, out = run(capsys, *argv)
    assert code == 0 and json.loads(out)["v_full"] == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("argv, message", [
    (["--gaussian", "spec.json", "--x", "1"], "--model requires --value-fn"),
    (["--value-fn", "marginal", "--data", "bg.csv"], "marginal needs --x"),
    (["--value-fn", "cond-gauss", "--gaussian", "spec.json"], "cond-gauss needs --x"),
    (["--value-fn", "cond-mc", "--x", "1"], "cond-mc needs --gaussian"),
    (["--value-fn", "cond-gauss", "--gaussian", "spec.json", "--x", "1,nan"], "bad vector"),
])
def test_value_fn_options_are_checked_before_any_file_is_read(tmp_path, capsys, argv, message):
    # no file exists, so reading one would exit 3, and the model would not parse
    argv = [str(tmp_path / a) if a.endswith(("csv", "json")) else a for a in argv]
    assert main(["attribute", "--model", "x1 +", "--method", "shapley", *argv]) == 2
    assert message in capsys.readouterr().err


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


UNDRAWN = {
    "game": (["--game", "g2"], "--method shapley"),
    "cond-gauss": (["--model", "x1 + x2*x3", "--value-fn", "cond-gauss", "--gaussian", "g3",
                    "--x", "1,1,1"], "--value-fn cond-gauss or --method shapley"),
    "sobol": (["--model", "x1 + x2*x3", "--value-fn", "sobol", "--gaussian", "g3"],
              "--value-fn sobol or --method shapley"),
    "sobol-total": (["--model", "x1 + x2*x3", "--value-fn", "sobol-total", "--gaussian", "g3"],
                    "--value-fn sobol-total or --method shapley"),
}


@pytest.mark.parametrize("given", [["--seed", "7"], ["--n", "50"], ["--n", "50", "--seed", "7"]],
                         ids=["seed", "n", "both"])
@pytest.mark.parametrize("source", UNDRAWN)
def test_seed_or_n_where_nothing_is_drawn_exits_2(g2_file, gauss3_file, tmp_path, capsys,
                                                  source, given):
    # a certified quadratic's Sobol games are closed forms: nothing is drawn
    argv, readers = UNDRAWN[source]
    argv = [{"g2": g2_file, "g3": gauss3_file}.get(a, a) for a in argv]
    out = tmp_path / "report.json"
    assert main(["attribute", *argv, "--method", "shapley", *given, "--out", str(out)]) == 2
    option = "seed" if "--seed" in given else "n"
    assert f"--{option} is not read by {readers}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("route", ["weber-mc", "cond-mc", "sobol-mc"])
def test_a_route_that_draws_reads_the_seed_and_defaults_n(g2_file, gauss3_file, capsys,
                                                           monkeypatch, route):
    if route == "sobol-mc":  # a cubic model has no closed form
        argv = ["attribute", "--model", "x1*x2*x3", "--gaussian", gauss3_file,
                "--value-fn", "sobol", "--method", "shapley"]
    else:
        argv = _mc_argv(route, g2_file, gauss3_file)[:-2]  # without its --n
    monkeypatch.setattr(cli, "MC_SAMPLES", 30)
    code, default = run(capsys, *argv, "--seed", "5")
    assert code == 0 and json.loads(default)["seed"] == 5
    assert run(capsys, *argv, "--seed", "5", "--n", "30") == (0, default)
    assert cli.make_parser().parse_args(argv).n is None


def test_power_overflow_exits_2(tmp_path, capsys):
    data = tmp_path / "bg.csv"
    data.write_text("x1,x2\n1e200,1\n0,0\n")
    assert main(["attribute", "--model", "x1^2 + x2", "--value-fn", "marginal",
                 "--data", str(data), "--x", "1,1", "--method", "shapley"]) == 2
    assert "non-finite intermediate value" in capsys.readouterr().err
    assert main(["attribute", "--model", "2^99999 + x1", "--value-fn", "marginal",
                 "--data", str(data), "--x", "1,1", "--method", "shapley"]) == 2
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
@pytest.mark.parametrize("shape", [["--x=1,1"], ["--x=1,1,1,1"]])
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
    # 10**19 lies past int64 (player 20 is its lowest member)
    for player, coalition, weight in ((1, -1, 0.3), (0, 1, 0.3), (3, 4, 0.3), (3, 1, 0.0),
                                      (1, 5, 0.3), (20, 10**19, 0.5)):
        w = tmp_path / "w.json"
        w.write_text(json.dumps(
            {"entries": [{"player": player, "coalition": coalition, "w": weight}]}))
        assert main(["attribute", "--game", g2_file, "--method", "harsanyi",
                     "--weights", str(w)]) == 4, (player, coalition)
        err = capsys.readouterr().err
        assert "out of range" in err and "Traceback" not in err


def test_repeated_weight_entry_exits_3(g2_file, tmp_path, capsys):
    # the second entry for player 1 on {1,2} no longer replaces the first
    w = tmp_path / "w.json"
    w.write_text(json.dumps({"entries": [{"player": 1, "coalition": 3, "w": 0.9},
                                         {"player": 1, "coalition": 3, "w": 0.3},
                                         {"player": 2, "coalition": 3, "w": 0.7}]}))
    assert main(["attribute", "--game", g2_file, "--method", "harsanyi", "--weights", str(w)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert "bad weight system" in out.err
    assert "repeated weight entry (player 1, coalition 3)" in out.err


@pytest.mark.parametrize("spec", ["3-feature", "malformed", "missing"])
def test_marginal_never_reads_the_gaussian_spec(tmp_path, capsys, spec):
    data = tmp_path / "bg.csv"
    data.write_text("a,b\n0,0\n2,1\n")
    path = tmp_path / "spec.json"
    if spec == "3-feature":
        path.write_text('{"mean":[0,0,0],"cov":[[1,0,0],[0,1,0],[0,0,1]]}')
    elif spec == "malformed":
        path.write_text('{"mean":[0,0],')
    argv = ["attribute", "--model", "x1+x2+x1*x2", "--value-fn", "marginal", "--data", str(data),
            "--x", "1,1", "--method", "shapley"]
    want = run(capsys, *argv)
    assert want[0] == 0 and run(capsys, *argv, "--gaussian", str(path)) == want


def test_weber_mc_thread_count_is_capped_by_chunks(g2_file, monkeypatch, capsys):
    argv = ["attribute", "--game", g2_file, "--method", "weber-mc", "--seed", "4", "--n", "3000"]
    want = run(capsys, *argv)
    sizes = []
    monkeypatch.setattr(allocations, "ThreadPoolExecutor",
                        lambda max_workers: sizes.append(max_workers) or InlinePool())
    monkeypatch.setattr(allocations.os, "cpu_count", lambda: 64)
    monkeypatch.setenv("COALITION_ATTR_THREADS", "100000")
    assert run(capsys, *argv) == want
    assert sizes == [3]  # 3000 samples are 3 chunks


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
    for argv in (["attribute", "--game", g2_file, "--method", "shapley"],
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


@pytest.mark.parametrize("scale", [1.0, 1e8])
def test_tables_are_written_as_their_lists_would_be(tmp_path, capsys, scale):
    edges = [-0.0, 5e-324, 1.7976931348623157e308, 1e16, 0.1]
    v = scale * np.random.default_rng(9).normal(size=1 << 8)
    assert Game(3, edges + [1.0] * 3).to_json() == orjson.dumps(
        {"d": 3, "values": edges + [1.0] * 3}).decode()
    v[:4] = edges[:2] + edges[3:]  # the largest double would overflow the dividends
    g = Game(8, v)
    assert g.to_json() == orjson.dumps({"d": 8, "values": v.tolist()}).decode()
    p = tmp_path / "g.json"
    p.write_text(g.to_json())
    code, out = run(capsys, "dividends", "--game", str(p))
    phi = cli.dividends_fast(g).dividends
    want = {"d": 8, "dividends": phi.tolist(), "checksum": float(np.sum(phi)), "v_full": g.v_full}
    assert code == 0
    assert out == orjson.dumps(want, option=orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE).decode()


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


@pytest.mark.parametrize("model", ["x1^3 + x2", "x1^3 - x1^3 + x2", "x1/x2"])
def test_cond_gauss_without_a_closed_form_exits_2(gauss3_file, capsys, model):
    assert main(["attribute", "--model", model, "--gaussian", gauss3_file, "--x", "1,1,1",
                 "--value-fn", "cond-gauss", "--method", "shapley"]) == 2
    assert "cond-gauss needs a model that expands to degree <= 2" in capsys.readouterr().err


def test_a_high_power_model_runs_marginal(tmp_path, capsys):
    data = tmp_path / "bg.csv"
    data.write_text("0,0,0,0,0,0,0,0,0,0\n")
    model = "(" + "+".join(f"x{i}" for i in range(1, 11)) + ")^12"
    code, out = run(capsys, "attribute", "--model", model, "--value-fn", "marginal",
                    "--data", str(data), "--x", ",".join(["0.1"] * 10), "--method", "shapley")
    assert code == 0
    assert json.loads(out)["v_full"] == pytest.approx(1.0)


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
    # there is no --d: --gaussian or --x fixes the feature count, so the
    # parser refuses every --d, one that would fit the inputs included
    data = tmp_path / "bg.csv"
    data.write_text("0,0\n1,1\n")
    for value in (d, "2"):
        assert main(["attribute", "--model", "x1", "--d", value, "--value-fn", "marginal",
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
