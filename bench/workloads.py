"""Seeded input generator for the three benchmark workloads.

Every game is built by zeta-transforming dividends drawn here, so exact
Shapley values, min-owner and custom Harsanyi payoffs and dividend tables
are known without calling the library. Random-order references are
enumerated here at d=8 (and for explicit pmfs at any d), proportional values
come from Ortmann's ratio potential, and model worths from a direct numpy
evaluation of the quadratic form. The program under test only ever sees the
files written to the work directory and the argv of each request.

The structure of a workload (request classes, sizes, methods, thread counts)
is fixed; the seed draws every number in it. The same seed writes the same
bytes.

Requests that hit a known defect (ROADMAP item 4: the absolute efficiency
gate on 1e8-magnitude games, the stderr cancellation on large-offset games)
are marked `probe`: they run once after the timed phase and their outcomes
are listed by reason, so that every timed request succeeds at the seed.
"""
from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

BIG = 1e8  # worth magnitude that trips the absolute 1e-10 efficiency gate
CHUNK = 1 << 14  # worths per write of a game file
REQUESTS_FILE = "requests.pickle"  # written next to the inputs when run as a script


@dataclass
class Request:
    """One `cli.main(argv)` call and what its output must be."""

    label: str
    argv: list
    out: str | None = None  # report file; None means the output is stdout
    threads: int = 1
    expect: dict = field(default_factory=dict)
    probe: bool = False  # a known-defect request: run once, untimed


# --------------------------------------------------------------- game tables

def popcounts(d: int) -> np.ndarray:
    return np.bitwise_count(np.arange(1 << d)).astype(np.int64)


def membership(d: int) -> np.ndarray:
    """(2^d, d) boolean matrix: row m marks the players in coalition m."""
    return ((np.arange(1 << d)[:, None] >> np.arange(d)) & 1).astype(bool)


def zeta(phi: np.ndarray, d: int) -> np.ndarray:
    """v(A) = sum of phi over subsets of A (superset-sum over each bit axis)."""
    v = np.array(phi, dtype=float)
    for j in range(d):
        blocks = v.reshape(-1, 2, 1 << j)
        blocks[:, 1, :] += blocks[:, 0, :]
    return v


def shapley_from_dividends(phi: np.ndarray, d: int) -> np.ndarray:
    """Each dividend shared equally by its members: one masked sum per player,
    so no (2^d, d) matrix is built in the benchmark's process."""
    sizes = popcounts(d)
    share = np.where(sizes > 0, phi / np.maximum(sizes, 1), 0.0)
    masks = np.arange(1 << d)
    return np.array([share[(masks >> j) & 1 == 1].sum() for j in range(d)])


def min_owner_from_dividends(phi: np.ndarray, d: int) -> np.ndarray:
    m = np.arange(1, 1 << d)
    low = np.log2(m & -m).astype(int)
    return np.bincount(low, weights=phi[1:], minlength=d)


def draw_dividends(rng, d: int, magnitude: float = 1.0, positive: bool = False,
                   dummy: int | None = None, offset: float = 0.0) -> np.ndarray:
    """Dividends decaying by coalition size, scaled so max |v| ~ magnitude.

    `offset` is added to every singleton dividend after scaling, which gives
    v(S) = offset*|S| + (unit-scale game).
    """
    sizes = popcounts(d)
    raw = rng.uniform(0.1, 1.0, 1 << d) if positive else rng.normal(size=1 << d)
    phi = raw * 0.6 ** sizes
    phi[0] = 0.0
    if dummy is not None:
        phi[(np.arange(1 << d) >> dummy) & 1 == 1] = 0.0
    phi *= magnitude / np.max(np.abs(zeta(phi, d)))
    phi[1 << np.arange(d)] += offset
    return phi


def marginals(v: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Marginal contribution of each player along each order (rows)."""
    n, d = orders.shape
    bits = np.left_shift(1, orders)
    after = np.cumsum(bits, axis=1)
    out = np.empty((n, d))
    np.put_along_axis(out, orders, v[after] - v[after - bits], axis=1)
    return out


def order_moments(v: np.ndarray, orders: np.ndarray, probs: np.ndarray):
    """Exact mean and variance of the marginal vector under a finite pmf.

    Shifting by the first order's marginals makes the variance exactly 0 for a
    player whose marginal contribution never changes (say, one a DAG always
    puts first).
    """
    mv = marginals(v, orders)
    shifted = mv - mv[0]
    m = probs @ shifted
    return mv[0] + m, probs @ (shifted - m) ** 2


def linear_extensions(d: int, edges) -> np.ndarray:
    """All orderings of 0..d-1 that put every edge's tail before its head."""
    perms = np.array(list(itertools.permutations(range(d))), dtype=np.int64)
    pos = np.argsort(perms, axis=1)
    keep = np.ones(len(perms), dtype=bool)
    for u, w in edges:
        keep &= pos[:, u] < pos[:, w]
    return perms[keep]


def proportional_value(v: np.ndarray, d: int) -> np.ndarray:
    """Ortmann's ratio potential: P(S) = v(S) / sum_i 1/P(S-i), x_i = P(N)/P(N-i)."""
    sizes = popcounts(d)
    masks = np.arange(1 << d)
    P = np.ones(1 << d)
    for k in range(1, d + 1):
        layer = masks[sizes == k]
        acc = np.zeros(len(layer))
        for j in range(d):
            has = (layer >> j) & 1 == 1
            acc[has] += 1.0 / P[layer[has] ^ (1 << j)]
        P[layer] = v[layer] / acc
    full = (1 << d) - 1
    return P[full] / P[full ^ (1 << np.arange(d))]


def dual(v: np.ndarray) -> np.ndarray:
    full = len(v) - 1
    return v[full] - v[full ^ np.arange(len(v))]


def pme_reference(v: np.ndarray, d: int, dummy: int | None) -> np.ndarray:
    """PME = proportional value of the dual. A dummy player is null in the
    dual too; the limit gives it 0 and the others the restricted game's PME."""
    if dummy is None:
        return proportional_value(dual(v), d)
    keep = np.arange(1 << d)
    keep = keep[(keep >> dummy) & 1 == 0]
    # re-index the coalitions without the dummy as a (d-1)-player table
    low = keep & ((1 << dummy) - 1)
    sub = np.empty(1 << (d - 1))
    sub[low | ((keep >> (dummy + 1)) << dummy)] = v[keep]
    return np.insert(proportional_value(dual(sub), d - 1), dummy, 0.0)


# ------------------------------------------------------------------- writing

class Files:
    """Writes inputs under one work directory, with stable names."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(os.path.join(root, "out"), exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def out(self, name: str) -> str:
        """Where the program writes a report (kept apart from the inputs)."""
        return os.path.join(self.root, "out", name)

    def write(self, name: str, text: str) -> str:
        p = self.path(name)
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(text)
        return p

    def game(self, name: str, v: np.ndarray, d: int) -> str:
        """The bytes of json.dumps({"d": d, "values": v.tolist()}), written in
        chunks so that a d=20 table never exists as one list or string here."""
        p = self.path(name)
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(f'{{"d": {d}, "values": [')
            for k in range(0, len(v), CHUNK):
                fh.write((", " if k else "") + ", ".join(map(repr, v[k:k + CHUNK].tolist())))
            fh.write("]}")
        return p


def _random_dag(rng, d: int, n_edges: int) -> list[tuple[int, int]]:
    perm = rng.permutation(d)
    pairs = [(int(perm[a]), int(perm[b])) for a in range(d) for b in range(a + 1, d)]
    pick = rng.choice(len(pairs), size=n_edges, replace=False)
    return sorted(pairs[i] for i in pick)


def _dag_json(edges) -> str:
    return json.dumps({"edges": [[u + 1, w + 1] for u, w in edges]})


def _random_pmf(rng, d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    seen: dict[tuple, None] = {}
    while len(seen) < k:
        seen[tuple(int(j) for j in rng.permutation(d))] = None
    orders = np.array(list(seen), dtype=np.int64)
    p = rng.uniform(0.5, 1.5, k)
    return orders, p / p.sum()


def _pmf_json(orders: np.ndarray, probs: np.ndarray) -> str:
    return json.dumps([{"order": [int(j) + 1 for j in o], "p": float(p)}
                       for o, p in zip(orders, probs)])


# ------------------------------------------------------------ model-to-report

@dataclass
class Quadratic:
    """f(x) = c + b.x + x'Mx, rendered as an expression over x1..xd."""

    c: float
    b: np.ndarray
    M: np.ndarray
    text: str

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        return self.c + X @ self.b + np.einsum("ni,ij,nj->n", X, self.M, X)

    def mean_var(self, mu: np.ndarray, S: np.ndarray) -> tuple[float, float]:
        g = self.b + 2 * self.M @ mu
        MS = self.M @ S
        return (float(self.c + self.b @ mu + np.trace(MS) + mu @ self.M @ mu),
                float(g @ S @ g + 2 * np.trace(MS @ MS)))


def _coef(rng) -> float:
    c = round(float(rng.normal()), 3)
    return c if c != 0.0 else 0.5


def _render(terms) -> str:
    parts = []
    for coef, factors in terms:
        body = "*".join([repr(abs(float(coef)))] + factors)
        sign = "-" if coef < 0 else ("+" if parts else "")
        parts.append(f"{sign} {body}" if parts else sign + body)
    return " ".join(parts)


def quadratic_model(rng, d: int) -> Quadratic:
    c, b, M = _coef(rng), np.array([_coef(rng) for _ in range(d)]), np.zeros((d, d))
    terms = [(c, [])] + [(b[i], [f"x{i + 1}"]) for i in range(d)]
    pairs = [(i, i + 1) for i in range(d - 1)] + [tuple(sorted(rng.choice(d, 2, replace=False)))]
    for i, j in pairs:
        a = _coef(rng)
        M[i, j] += a / 2
        M[j, i] += a / 2
        terms.append((a, [f"x{i + 1}", f"x{j + 1}"]))
    for i in sorted(rng.choice(d, 2, replace=False)):
        a = _coef(rng)
        M[i, i] += a
        terms.append((a, [f"x{i + 1}^2"]))
    return Quadratic(c, b, M, _render(terms))


def ar1(rng, d: int, rho: float) -> tuple[np.ndarray, np.ndarray]:
    mu = np.round(rng.normal(0.0, 0.5, d), 3)
    idx = np.arange(d)
    return mu, rho ** np.abs(idx[:, None] - idx[None, :])


def _vec(x: np.ndarray) -> str:
    return ",".join(repr(float(t)) for t in x)


def _draw(rng, mu, S, n) -> np.ndarray:
    return np.round(rng.multivariate_normal(mu, S, size=n, method="cholesky"), 4)


RHOS = (0.0, 0.5, 0.9)


def model_requests(seed: int, files: Files) -> list[Request]:
    rng = np.random.default_rng([seed, 1])
    reqs = []
    specs = {}
    for d in (3, 4, 6, 7, 8, 10):
        for rho in RHOS:
            mu, S = ar1(rng, d, rho)
            path = files.write(f"gauss_d{d}_r{rho}.json",
                               json.dumps({"mean": mu.tolist(), "cov": S.tolist()}))
            specs[d, rho] = (mu, S, path)

    def model_req(d, rho, out_name):
        mu, S, path = specs[d, rho]
        f = quadratic_model(rng, d)
        out = files.out(out_name)
        argv = ["attribute", "--model", f.text, "--gaussian", path,
                "--method", "shapley", "--out", out]
        return f, mu, S, argv, out

    # One model per correlation at d=6 and d=8 and one at d=10, so the median
    # falls in the middle of the nine d=8 closed forms.
    closed = [(d, r) for d in (6, 8) for r in RHOS] + [(10, 0.5)]
    for k, (d, rho) in enumerate(closed):
        tag = f"{k}_d{d}_r{rho}"
        f, mu, S, argv, out = model_req(d, rho, f"cg_{tag}.json")
        x = _draw(rng, mu, S, 1)[0]
        argv += ["--value-fn", "cond-gauss", f"--x={_vec(x)}"]
        reqs.append(Request(f"cond-gauss d={d}", argv, out, expect={
            "kind": "model", "v_full": float(f(x)[0]), "v_empty": f.mean_var(mu, S)[0]}))

        f, mu, S, argv, out = model_req(d, rho, f"sd_{tag}.json")
        argv += ["--value-fn", "sobol", "--on-dual"]
        reqs.append(Request(f"sobol dual d={d}", argv, out, expect={
            "kind": "model", "v_full": 1.0, "v_empty": 0.0}))

        f, mu, S, argv, out = model_req(d, rho, f"st_{tag}.json")
        argv += ["--value-fn", "sobol-total", "--unnormalized"]
        reqs.append(Request(f"sobol-total d={d}", argv, out, expect={
            "kind": "model", "v_full": f.mean_var(mu, S)[1], "v_empty": 0.0}))

    for k, (d, rho) in enumerate(((4, 0.0), (6, 0.5), (7, 0.0), (7, 0.9))):
        tag = f"{k}_d{d}_r{rho}"
        f, mu, S, argv, out = model_req(d, rho, f"mg_{tag}.json")
        bg, x = _draw(rng, mu, S, 100), _draw(rng, mu, S, 1)[0]
        header = ",".join(f"x{i + 1}" for i in range(d))
        data = files.write(f"bg_{tag}.csv", header + "\n" + "\n".join(
            ",".join(repr(float(t)) for t in row) for row in bg) + "\n")
        argv += ["--value-fn", "marginal", "--data", data, f"--x={_vec(x)}"]
        reqs.append(Request(f"marginal d={d}", argv, out, expect={
            "kind": "model", "v_full": float(f(x)[0]), "v_empty": float(np.mean(f(bg)))}))

    # marginal d=7, cond-mc d=6 and the cubic sobol below cost about the same
    # (~0.5 s), so the 90th percentile falls inside that band of five
    # pointwise requests.
    for d, rho, n in ((4, 0.5, 300), (6, 0.5, 240), (6, 0.9, 240)):
        tag = f"d{d}_r{rho}"
        f, mu, S, argv, out = model_req(d, rho, f"mc_{tag}.json")
        x = _draw(rng, mu, S, 1)[0]
        mean, var = f.mean_var(mu, S)
        argv += ["--value-fn", "cond-mc", f"--x={_vec(x)}", "--n", str(n),
                 "--seed", str(int(rng.integers(1 << 30)))]
        reqs.append(Request(f"cond-mc d={d}", argv, out, expect={
            "kind": "model", "v_full": float(f(x)[0]), "v_empty": mean,
            "v_empty_tol": 6.0 * np.sqrt(var / n)}))

    a, b, c = (round(abs(float(rng.normal())) + 0.2, 3) for _ in range(3))
    out = files.out("sobol_cubic.json")
    argv = ["attribute", "--model", f"{a}*x1 + {b}*x2*x3 + {c}*x1^3",
            "--gaussian", specs[3, 0.5][2], "--value-fn", "sobol", "--method", "shapley",
            "--n", "100", "--seed", str(int(rng.integers(1 << 30))), "--out", out]
    reqs.append(Request("sobol-mc cubic d=3", argv, out, expect={
        "kind": "model", "v_full": 1.0, "v_empty": 0.0}))

    out = files.out("paper_bench.json")
    reqs.append(Request("paper-bench", ["paper-bench", "--out", out], out,
                        expect={"kind": "paper-bench"}))
    return reqs


# ------------------------------------------------------------- game-to-report

def game_requests(seed: int, files: Files) -> list[Request]:
    rng = np.random.default_rng([seed, 2])
    reqs = []

    def attribute(label, gpath, method, out_name, expect, extra=(), probe=False):
        out = files.out(out_name)
        argv = ["attribute", "--game", gpath, "--method", method, "--out", out, *extra]
        reqs.append(Request(label, argv, out, expect=expect, probe=probe))

    # (d, magnitude, kinds). At magnitude 1e8 every exact method and `verify`
    # hit the absolute 1e-10 gate (known 4a), so those requests are probes;
    # `dividends` has no gate and is timed at both magnitudes. The median
    # falls inside one request class, the fourteen d=16 `shapley` and
    # `shapley-div` requests, whichever side of them the d=12 Harsanyi pair
    # lands: two classes in one band shift against each other as the
    # machine's load changes. The 90th percentile falls among the six
    # 130-200 ms requests (verify, pv/pme d=12, the d=16 dividend tables),
    # below the three ~1 s ones.
    every = ("shapley", "shapley-div", "harsanyi", "min-owner", "custom", "weber-pmf",
             "weber-dag", "dividends", "verify")
    plan = [(8, 1.0, every),
            (8, BIG, every),
            (12, 1.0, ("shapley", "shapley-div", "harsanyi", "min-owner", "dividends", "verify")),
            (12, BIG, ("shapley", "shapley-div", "harsanyi", "min-owner", "dividends")),
            (16, 1.0, ("shapley", "shapley-div", "harsanyi", "dividends")),
            (16, 1.0, ("shapley", "shapley-div", "dividends"))]
    plan += [(16, 1.0, ("shapley", "shapley-div"))] * 5
    for k, (d, mag, kinds) in enumerate(plan):
        tag = f"{k}_d{d}_{'big' if mag == BIG else 'unit'}"
        probe = mag == BIG
        phi = draw_dividends(rng, d, mag)
        v = zeta(phi, d)
        gpath = files.game(f"game_{tag}.json", v, d)
        base = {"kind": "payoffs", "scale": float(np.max(np.abs(v))), "d": d}
        lab = f"d={d} x{mag:g}"
        shap = shapley_from_dividends(phi, d)
        for kind in kinds:
            if kind in ("shapley", "shapley-div", "harsanyi"):
                attribute(f"{kind} {lab}", gpath, kind, f"{kind}_{tag}.json",
                          {**base, "payoffs": shap}, probe=probe)
            elif kind == "min-owner":
                w = files.write("w_min_owner.json", json.dumps({"preset": "min-owner"}))
                attribute(f"harsanyi min-owner {lab}", gpath, "harsanyi", f"mo_{tag}.json",
                          {**base, "payoffs": min_owner_from_dividends(phi, d)},
                          ("--weights", w), probe)
            elif kind == "custom":
                W = rng.uniform(0.2, 1.0, (1 << d, d)) * membership(d)
                W[1:] /= W[1:].sum(axis=1, keepdims=True)
                entries = [{"player": j + 1, "coalition": m, "w": float(W[m, j])}
                           for m in range(1, 1 << d) for j in range(d) if W[m, j]]
                w = files.write(f"w_custom_{tag}.json",
                                json.dumps({"preset": "custom", "entries": entries}))
                attribute(f"harsanyi custom {lab}", gpath, "harsanyi", f"cw_{tag}.json",
                          {**base, "payoffs": phi @ W}, ("--weights", w), probe)
            elif kind == "weber-pmf":
                orders, probs = _random_pmf(rng, d, 300)
                pmf = files.write(f"pmf_{tag}.json", _pmf_json(orders, probs))
                attribute(f"weber pmf {lab}", gpath, "weber", f"wp_{tag}.json",
                          {**base, "payoffs": order_moments(v, orders, probs)[0]},
                          ("--pmf", pmf), probe)
            elif kind == "weber-dag":
                edges = _random_dag(rng, d, 6)
                dag = files.write(f"dag_{tag}.json", _dag_json(edges))
                ext = linear_extensions(d, edges)
                mean = order_moments(v, ext, np.full(len(ext), 1.0 / len(ext)))[0]
                attribute(f"weber dag {lab}", gpath, "weber", f"wd_{tag}.json",
                          {**base, "payoffs": mean}, ("--dag", dag), probe)
            elif kind == "dividends":
                out = files.out(f"div_{tag}.json")
                reqs.append(Request(f"dividends {lab}", ["dividends", "--game", gpath,
                                                         "--out", out], out,
                                    expect={**base, "kind": "dividends", "dividends": phi,
                                            "v_full": float(v[-1])}))
            elif kind == "verify":
                reqs.append(Request(f"verify {lab}", ["verify", "--game", gpath],
                                    expect={**base, "kind": "verify"}, probe=probe))

    for d, n_dummy in ((8, 1), (12, 1)):
        for dummy in [None] + [int(j) for j in rng.choice(d, n_dummy, replace=False)]:
            tag = f"d{d}_{'pos' if dummy is None else f'dummy{dummy}'}"
            phi = draw_dividends(rng, d, 1.0, positive=True, dummy=dummy)
            v = zeta(phi, d)
            gpath = files.game(f"pos_{tag}.json", v, d)
            base = {"kind": "payoffs", "scale": float(np.max(np.abs(v))), "d": d}
            lab = f"d={d}{' dummy' if dummy is not None else ''}"
            if dummy is None:
                attribute(f"pv {lab}", gpath, "pv", f"pv_{tag}.json",
                          {**base, "payoffs": proportional_value(v, d)})
            attribute(f"pme {lab}", gpath, "pme", f"pme_{tag}.json",
                      {**base, "payoffs": pme_reference(v, d, dummy), "tol": 1e-5})

    d = 20
    phi = draw_dividends(rng, d, 1.0)
    v = zeta(phi, d)
    gpath = files.game("game_d20.json", v, d)
    attribute("shapley d=20 x1", gpath, "shapley", "shapley_d20.json",
              {"kind": "payoffs", "scale": float(np.max(np.abs(v))), "d": d,
               "payoffs": shapley_from_dividends(phi, d)})
    return reqs


# ------------------------------------------------------------- sampled-orders

def order_requests(seed: int, files: Files) -> list[Request]:
    rng = np.random.default_rng([seed, 3])
    reqs = []
    # The 1e8-offset game reports a wrong stderr (known 4b): its requests are
    # probes.
    games = [(d, 1.0, 0.0) for d in (8, 12, 16)] + [(8, 1.0, BIG)]
    for d, mag, offset in games:
        tag = f"d{d}{'_offset' if offset else ''}"
        phi = draw_dividends(rng, d, mag, offset=offset)
        v = zeta(phi, d)
        gpath = files.game(f"game_{tag}.json", v, d)
        scale = float(np.max(np.abs(v)))
        lab = f"d={d}{' offset 1e8' if offset else ''}"
        enumerable = d <= 8
        dists = []
        shap = shapley_from_dividends(phi, d)
        if enumerable:
            perms = np.array(list(itertools.permutations(range(d))), dtype=np.int64)
            mean, var = order_moments(v, perms, np.full(len(perms), 1.0 / len(perms)))
            dists.append(("uniform", [], 20000, mean, var))
        else:
            dists.append(("uniform", [], 20000, shap, None))
        orders, probs = _random_pmf(rng, d, 300)
        pmf = files.write(f"pmf_{tag}.json", _pmf_json(orders, probs))
        mean, var = order_moments(v, orders, probs)
        # d=16 reads a 65536-worth file (~40 ms): fewer draws there keep the
        # six pmf requests, which hold the median, at about the same cost.
        dists.append(("pmf", ["--pmf", pmf], 1000 if d == 16 else 2000, mean, var))
        edges = _random_dag(rng, d, d)
        dag = files.write(f"dag_{tag}.json", _dag_json(edges))
        if enumerable:
            ext = linear_extensions(d, edges)
            mean, var = order_moments(v, ext, np.full(len(ext), 1.0 / len(ext)))
        else:
            mean = var = None
        dists.append(("dag", ["--dag", dag], 1000 if d == 16 else 1500, mean, var))
        for name, extra, n, mean, var in dists:
            mc_seed = str(int(rng.integers(1 << 30)))
            for threads in (1, 2):
                out = files.out(f"mc_{tag}_{name}_t{threads}.json")
                argv = ["attribute", "--game", gpath, "--method", "weber-mc", "--n", str(n),
                        "--seed", mc_seed, "--out", out, *extra]
                expect = {"kind": "mc", "scale": scale, "d": d, "n": n, "offset": offset,
                          "mean": mean, "var": var, "pair": f"{tag}_{name}"}
                reqs.append(Request(f"weber-mc {name} {lab} t{threads}", argv, out,
                                    threads=threads, expect=expect, probe=offset > 0))
    return reqs


BUILDERS = {"model-to-report": model_requests, "game-to-report": game_requests,
            "sampled-orders": order_requests}
WORKLOADS = tuple(BUILDERS)


def generate(workload: str, seed: int, root: str) -> list[Request]:
    """Write the inputs of one workload under `root` and return its requests."""
    return BUILDERS[workload](seed, Files(root))


if __name__ == "__main__":
    # python3 workloads.py <workload> <seed> <root>: writes the inputs and a
    # pickle of the requests under <root>. run.py generates in this separate
    # process so that the generator's arrays (8 MiB each at d=20) do not
    # count in the benchmark process's peak memory.
    import pickle
    import sys

    import workloads  # this file as a module, so the pickle names workloads.Request

    name, seed, root = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    reqs = workloads.generate(name, seed, root)
    with open(os.path.join(root, REQUESTS_FILE), "wb") as fh:
        pickle.dump(reqs, fh)
