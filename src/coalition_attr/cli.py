"""Command-line front end: build or load a game, run an allocation, and
write a reproducible JSON (or CSV) report.

Subcommands: attribute, dividends, verify, paper-bench.
Exit codes: 0 ok, 1 verification failure, 2 config error, 3 data/format
error, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import os
import sys

import numpy as np
import orjson

from . import __version__
from .allocations import (
    WeightSystem,
    harsanyi_allocate,
    marginal_vector,
    pme,
    proportional_value,
    shapley_direct,
    shapley_dividends,
    shapley_permutation,
    weber_allocate,
    weber_monte_carlo,
)
from .dividends import dividends_fast, zeta_reconstruct
from .expr import ExprError
from .games import EXACT_TOL, Allocation, Game, GameError, dual_game, efficiency_gap, magnitude
from .gaussian import GaussianSpec
from .orderings import Explicit, Uniform, causal_orderings_from_json
from .value_functions import (
    Model,
    conditional_gaussian_game,
    conditional_mc_game,
    marginal_game,
    sobol_closed_game,
    sobol_total_game,
    variance_fixture_spec,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4
MC_SAMPLES = 10000  # --n where a Monte Carlo route runs without one


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _threads() -> int:
    raw = os.environ.get("COALITION_ATTR_THREADS", "1")
    if not raw.isdecimal() or int(raw) < 1:
        raise CliError(f"COALITION_ATTR_THREADS must be a positive integer, got {raw!r}",
                       EXIT_CONFIG)
    return int(raw)


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}", EXIT_DATA) from e


def _load_json(path: str, parse, what: str, numerical: bool = False, stream: bool = False):
    """Parse a JSON input file from its bytes (orjson checks the UTF-8), or
    with `stream` from the open binary file; a file that cannot be read, at
    open or later, is a data error. So is a structurally invalid one and one
    that fails validation (GameError), unless `numerical` leaves that to main
    (exit 4)."""
    try:
        with open(path, "rb") as fh:
            return parse(fh if stream else fh.read())
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}", EXIT_DATA) from e
    except (KeyError, TypeError, AttributeError, ValueError) as e:
        if numerical and isinstance(e, GameError):
            raise
        raise CliError(f"bad {what} {path}: {e}", EXIT_DATA) from e


def _load_game(path: str) -> Game:
    """A game file, which Game.from_json reads from the open file in pieces."""
    return _load_json(path, Game.from_json, "game file", stream=True)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _load_csv_matrix(path: str) -> np.ndarray:
    try:  # "-sig": without the byte order mark that spreadsheet exports start with
        text = _read_bytes(path).decode("utf-8-sig")
    except UnicodeDecodeError as e:
        raise CliError(f"cannot read {path}: {e}", EXIT_DATA) from e
    try:
        rows = list(csv.reader(io.StringIO(text)))
        if not rows:
            raise ValueError("empty file")
        start = 0 if any(map(_is_number, rows[0])) else 1  # a header has no number
        data = np.array([[float(c) for c in row] for row in rows[start:] if row])
        if data.size == 0:
            raise ValueError("no data rows")
        if not np.all(np.isfinite(data)):
            i, j, c = next((i, j, c) for i, row in enumerate(rows[start:], start + 1)
                           for j, c in enumerate(row, 1) if not math.isfinite(float(c)))
            raise ValueError(f"non-finite entry {c!r} at row {i}, column {j}")
        return data
    except ValueError as e:
        raise CliError(f"bad CSV {path}: {e}", EXIT_DATA) from e


def _parse_vector(text: str) -> np.ndarray:
    try:
        x = np.array([float(c) for c in text.split(",")])
    except ValueError as e:
        raise CliError(f"bad vector {text!r}: {e}", EXIT_CONFIG) from e
    if not np.all(np.isfinite(x)):
        raise CliError(f"bad vector {text!r}: entries must be finite", EXIT_CONFIG)
    return x


def _build_game(args) -> tuple[Game, dict]:
    sources = [s for s in (args.game, args.model) if s]
    if len(sources) != 1:
        raise CliError("exactly one of --game or --model is required", EXIT_CONFIG)
    if args.game:
        for option in ("value_fn", "data", "gaussian", "x", "unnormalized"):
            if getattr(args, option):
                raise CliError(f"--{option.replace('_', '-')} is not read with --game", EXIT_CONFIG)
        return _load_game(args.game), {"game": args.game}
    vf = args.value_fn
    if not vf:
        raise CliError("--model requires --value-fn", EXIT_CONFIG)
    route, needs = VALUE_FNS[vf]
    if args.unnormalized and vf not in ("sobol", "sobol-total"):
        raise CliError(f"--unnormalized is not read by --value-fn {vf}", EXIT_CONFIG)
    missing = [f"--{option}" for option in needs if not getattr(args, option)]
    if missing:
        raise CliError(f"{vf} needs {' and '.join(missing)}", EXIT_CONFIG)

    x = _parse_vector(args.x) if args.x else None
    spec = None  # marginal takes d from --x and never reads --gaussian
    if "gaussian" in needs:
        spec = _load_json(args.gaussian, GaussianSpec.from_json, "Gaussian spec")
    d = spec.d if spec is not None else len(x)  # every value function needs one of them
    try:
        model = Model.from_expression(args.model, d)
    except ExprError as e:
        raise CliError(f"bad model expression: {e}", EXIT_CONFIG) from e
    return route(model, spec, x, args), {"model": args.model, "value_fn": vf, "d": d}


def _draws(args) -> tuple[int, int]:
    """(--n, --seed) of a Monte Carlo route: --seed is required, --n defaults
    to MC_SAMPLES. The route is marked as one that reads them."""
    if args.seed is None:
        raise CliError("Monte Carlo paths require --seed", EXIT_CONFIG)
    args.drawn = True
    return (MC_SAMPLES if args.n is None else args.n), args.seed


def _sobol(sobol, model: Model, spec: GaussianSpec, args) -> Game:
    """A Sobol game: closed form for a certified quadratic, else Monte Carlo."""
    mc = None if model.quad is not None else _draws(args)
    return sobol(model, spec, normalize=not args.unnormalized, mc=mc)


def _certified(model: Model) -> Model:
    """The model, when it is a certified quadratic: cond-gauss has no Monte Carlo fallback."""
    if model.quad is None:
        raise CliError("cond-gauss needs a model that expands to degree <= 2; use cond-mc",
                       EXIT_CONFIG)
    return model


# Each --value-fn's route, (model, spec, x, args) -> Game, and the options it
# needs. Routes look value functions up in this module's globals when called,
# so a wrapped global is seen.
VALUE_FNS = {
    "marginal": (lambda f, spec, x, args: marginal_game(f, _load_csv_matrix(args.data), x),
                 ("data", "x")),
    "cond-gauss": (lambda f, spec, x, args: conditional_gaussian_game(_certified(f), spec, x),
                   ("gaussian", "x")),
    "cond-mc": (lambda f, spec, x, args: conditional_mc_game(f, spec, x, *_draws(args)),
                ("gaussian", "x")),
    "sobol": (lambda f, spec, x, args: _sobol(sobol_closed_game, f, spec, args), ("gaussian",)),
    "sobol-total": (lambda f, spec, x, args: _sobol(sobol_total_game, f, spec, args),
                    ("gaussian",)),
}


def _order_distribution(d: int, args):
    """Random-order distribution from --pmf or --dag, else uniform."""
    if args.pmf and args.dag:
        raise CliError("at most one of --pmf or --dag", EXIT_CONFIG)
    if args.pmf:
        pmf = _load_json(args.pmf, Explicit.from_json, "pmf")
        if pmf.orders.shape[1] != d:
            raise CliError(f"bad pmf {args.pmf}: orders of {pmf.orders.shape[1]} players "
                           f"for a {d}-player game", EXIT_DATA)
        return pmf
    if args.dag:
        return _load_json(args.dag, lambda text: causal_orderings_from_json(d, text), "DAG")
    return Uniform()


def _weights(args) -> WeightSystem:
    if not args.weights:
        return WeightSystem()
    # a weight file that fails validation exits 4, as its checks against the game do
    return _load_json(args.weights, WeightSystem.from_json, "weight system", numerical=True)


def _weber_mc(g: Game, args) -> Allocation:
    n, seed = _draws(args)
    return weber_monte_carlo(g, _order_distribution(g.d, args), n, seed, threads=_threads())


# Each --method's route, (game, args) -> Allocation, and the file options it
# reads, in --help order. Routes look allocations up in this module's globals
# when called, so a wrapped global is seen.
METHODS = {
    "shapley": (lambda g, args: shapley_direct(g), ()),
    "shapley-perm": (lambda g, args: shapley_permutation(g), ()),
    "shapley-div": (lambda g, args: shapley_dividends(g), ()),
    "weber": (lambda g, args: weber_allocate(g, _order_distribution(g.d, args)), ("pmf", "dag")),
    "weber-mc": (_weber_mc, ("pmf", "dag")),
    "harsanyi": (lambda g, args: harsanyi_allocate(g, _weights(args)), ("weights",)),
    "pv": (lambda g, args: proportional_value(g), ()),
    "pme": (lambda g, args: pme(g), ()),
}


def _write_report(report: dict, args) -> None:
    """The one report writer: CSV, or indented JSON through orjson, as UTF-8."""
    if getattr(args, "format", "json") == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["player", "payoff"] + (["stderr"] if report.get("stderr") else []))
        for i, p in enumerate(report["payoffs"], start=1):
            row = [i, p]
            if report.get("stderr"):
                row.append(report["stderr"][i - 1])
            writer.writerow(row)
        data = buf.getvalue().encode()
    else:
        data = orjson.dumps(report, option=orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE
                            | orjson.OPT_SERIALIZE_NUMPY)
    if getattr(args, "out", None):
        try:
            with open(args.out, "wb") as fh:
                fh.write(data)
        except OSError as e:
            raise CliError(f"cannot write {args.out}: {e}", EXIT_DATA) from e
    else:
        sys.stdout.write(data.decode())


def cmd_attribute(args) -> int:
    route, reads = METHODS[args.method]
    for option in ("pmf", "dag", "weights"):
        if getattr(args, option) and option not in reads:
            raise CliError(f"--{option} is not read by --method {args.method}", EXIT_CONFIG)
    g, echo = _build_game(args)
    # pme is the one method that dualizes internally; --on-dual dualizes the others
    dual_inside = args.method == "pme"
    target = dual_game(g) if (args.on_dual and not dual_inside) else g
    alloc = route(target, args)
    allocated = dual_game(target) if dual_inside else target
    gap = efficiency_gap(allocated, alloc)
    if not math.isfinite(gap):
        raise CliError(f"efficiency gap {gap} is not finite", EXIT_NUMERICAL)
    tol = EXACT_TOL * magnitude(allocated)
    if alloc.stderr is None and abs(gap) > tol:  # only Monte Carlo sets a stderr
        raise CliError(f"efficiency gap {gap} exceeds {tol:.3g} for exact method", EXIT_NUMERICAL)
    # Checked once the routes have run, so an input error is reported first,
    # and only a route that drew (a Sobol route on a certified quadratic
    # draws nothing) counts as reading them.
    for option in ("seed", "n"):
        if getattr(args, option) is not None and not args.drawn:
            readers = [f"--value-fn {args.value_fn}"] * bool(args.model) + [f"--method {args.method}"]
            raise CliError(f"--{option} is not read by {' or '.join(readers)}: nothing is drawn "
                           "at random", EXIT_CONFIG)
    report = {
        "method": alloc.method,
        "players": list(range(1, target.d + 1)),
        "payoffs": alloc.payoffs.tolist(),
        "efficiency_gap": gap,
        "v_empty": target.v_empty,
        "v_full": target.v_full,
        "allocated_game": "dual" if (args.on_dual or dual_inside) else "primal",
        "config": {**echo, "method": args.method, "on_dual": bool(args.on_dual)},
        "seed": args.seed,
    }
    if alloc.stderr is not None:
        report["stderr"] = alloc.stderr.tolist()
    _write_report(report, args)
    return EXIT_OK


def cmd_dividends(args) -> int:
    g = _load_game(args.game)
    t = dividends_fast(g)
    checksum = float(np.sum(t.dividends))
    if not math.isfinite(checksum):
        raise CliError(f"dividend checksum {checksum} is not finite", EXIT_NUMERICAL)
    report = {
        "d": g.d,
        "dividends": t.dividends,
        "checksum": checksum,
        "v_full": g.v_full,
    }
    _write_report(report, args)
    return EXIT_OK


def verify_game(g: Game, seed: int = 0) -> list[tuple[str, bool]]:
    """Consistency checks bundling the efficiency and equivalence results."""
    rng = np.random.default_rng(seed)
    checks: list[tuple[str, bool]] = []

    # exact uniform Weber and egalitarian Harsanyi run these two routes' code
    routes = [shapley_direct(g), shapley_dividends(g)]
    if g.d <= Uniform.MAX_EXACT_PLAYERS:
        routes.append(shapley_permutation(g))
    base = routes[0].payoffs
    scale = magnitude(g)
    tol = EXACT_TOL * scale
    checks.append((
        "cross-route shapley equality",
        all(np.max(np.abs(r.payoffs - base)) <= tol for r in routes[1:]),
    ))

    t = dividends_fast(g)
    back = zeta_reconstruct(t)
    checks.append((
        "moebius round-trip",
        float(np.max(np.abs(back.values - g.values))) / scale <= 1e-12,
    ))
    checks.append(("dividend total equals grand worth",
                   abs(float(np.sum(t.dividends)) - g.v_full) / scale <= 1e-12))

    totals = marginal_vector(g, [rng.permutation(g.d) for _ in range(5)]).sum(axis=1)
    checks.append(("telescoping along random orderings",
                   bool(np.all(np.abs(totals - (g.v_full - g.v_empty)) <= 1e-12 * scale))))

    for label, alloc in [
        ("egalitarian dividends", routes[1]),
        ("min-owner dividends", harsanyi_allocate(g, WeightSystem("min-owner"))),
        ("uniform random orders", routes[0]),
    ]:
        checks.append((f"efficiency: {label}", abs(efficiency_gap(g, alloc)) <= tol))
    return checks


def cmd_verify(args) -> int:
    g = _load_game(args.game)
    checks = verify_game(g)
    all_ok = True
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        all_ok = all_ok and ok
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


def bench_rows() -> list[dict]:
    """Compare computed allocations to the bundled closed-form references."""
    rows = []
    # prediction-decomposition example: f = x1 + x2 + x1*x2, correlated pair
    grid = [(x1, x2) for x1 in (-2.0, -1.0, 0.0, 1.0, 2.0) for x2 in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
        spec = GaussianSpec(np.zeros(2), np.array([[1.0, rho], [rho, 1.0]]))
        model = Model.from_expression("x1 + x2 + x1*x2", 2)
        worst = 0.0
        for (x1, x2), g in zip(grid, conditional_gaussian_game(model, spec, np.array(grid))):
            got = shapley_direct(g).payoffs
            want = np.array([
                x1 + rho / 2 * (x1 + x1**2 - x2 - x2**2 - 1) + x1 * x2 / 2,
                x2 + rho / 2 * (x2 + x2**2 - x1 - x1**2 - 1) + x1 * x2 / 2,
            ])
            worst = max(worst, float(np.max(np.abs(got - want))))
        rows.append({"case": f"cond-gauss shapley rho={rho}", "max_dev": worst, "tol": 1e-8})
    # variance-decomposition example: f = x1 + x2 with a spurious correlated x3
    model3 = Model.from_expression("x1 + x2", 3)
    for rho in (0.0, 0.3, 0.5, 0.9):
        g = sobol_closed_game(model3, variance_fixture_spec(rho), normalize=True)
        w = dual_game(g)
        shap = shapley_direct(w).payoffs
        want = np.array([0.5 * (1 - rho**2 / 2), 0.5, rho**2 / 4])
        rows.append({
            "case": f"dual-sobol shapley rho={rho}",
            "max_dev": float(np.max(np.abs(shap - want))),
            "tol": 1e-8,
        })
        p = pme(g).payoffs
        rows.append({
            "case": f"pme rho={rho}",
            "max_dev": float(np.max(np.abs(p - np.array([0.5, 0.5, 0.0])))),
            "tol": 1e-8,
        })
    return rows


def cmd_paper_bench(args) -> int:
    rows = bench_rows()
    all_ok = True
    for row in rows:
        ok = row["max_dev"] <= row["tol"]
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'}  {row['case']:34s} max dev {row['max_dev']:.3e} "
              f"(tol {row['tol']:.0e})")
    if args.out:
        _write_report({"rows": rows, "pass": all_ok}, args)
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


def seed(text: str) -> int:
    """--seed: an integer in [0, 2^64), the range of a JSON report's integers."""
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2^64), got {text}")
    return value


def sample_count(text: str) -> int:
    """--n: a Monte Carlo sample count of at least 2, so a standard error exists."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"sample count must be >= 2, got {text}")
    return value


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="coalition-attr",
        description="Game-theoretic feature attribution with efficient allocations.",
        allow_abbrev=False,  # an option added later must not change what a prefix means
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    at = sub.add_parser("attribute", help="build or load a game and allocate it",
                        allow_abbrev=False)
    at.add_argument("--game", help="game JSON file")
    at.add_argument("--model", help="model expression over x1..xd")
    at.add_argument("--value-fn", choices=list(VALUE_FNS))
    at.add_argument("--data", help="background dataset CSV")
    at.add_argument("--gaussian", help="Gaussian spec JSON")
    at.add_argument("--x", help="instance, comma-separated")
    at.add_argument("--method", required=True, choices=list(METHODS))
    at.add_argument("--pmf", help="explicit random-order pmf JSON")
    at.add_argument("--weights", help="weight system JSON")
    at.add_argument("--dag", help="causal DAG JSON")
    at.add_argument("--n", type=sample_count,
                    help=f"Monte Carlo sample count (default {MC_SAMPLES})")
    at.add_argument("--seed", type=seed)
    at.add_argument("--on-dual", action="store_true", help="allocate the dual game")
    at.add_argument("--unnormalized", action="store_true", help="skip variance normalization")
    at.add_argument("--out", help="report path (default stdout)")
    at.add_argument("--format", choices=["json", "csv"], default="json")
    at.set_defaults(func=cmd_attribute, drawn=False)

    dv = sub.add_parser("dividends", help="dividend table of a game file", allow_abbrev=False)
    dv.add_argument("--game", required=True)
    dv.add_argument("--out")
    dv.set_defaults(func=cmd_dividends, format="json")

    vf = sub.add_parser("verify", help="run consistency checks on a game file",
                        allow_abbrev=False)
    vf.add_argument("--game", required=True)
    vf.set_defaults(func=cmd_verify)

    pb = sub.add_parser("paper-bench", help="reproduce the bundled closed-form examples",
                        allow_abbrev=False)
    pb.add_argument("--out")
    pb.set_defaults(func=cmd_paper_bench)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    return make_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if (e.code or 0) != 0 else EXIT_OK
    try:
        # every non-finite result is caught and reported as an exit code, so
        # numpy's floating-point warnings would only repeat it on stderr
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except ExprError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except GameError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
