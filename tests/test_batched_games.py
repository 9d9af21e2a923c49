"""Batched game construction against the per-mask bodies it replaced.

The references below evaluate one coalition at a time and the model one row
at a time, as every game construction did before model games were built
from blocks of coalitions. Monte Carlo games must match them bit for bit
(same seeds, same draws, same sums); closed forms to 1e-12 of the game's
magnitude.
"""
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalition_attr import games, gaussian, value_functions
from coalition_attr.games import GameError, build_game, members
from coalition_attr.gaussian import GaussianSpec, gaussian_conditional
from coalition_attr.value_functions import (
    Model,
    conditional_gaussian_game,
    conditional_mc_game,
    marginal_game,
    sobol_closed_game,
    sobol_total_game,
)

MODELS = {
    2: "1.5*x1 + 0.3*x2 + 0.7*x1*x2 - 0.4*x2^2",
    3: "0.2 + x1 - 0.5*x3 + 0.9*x1*x3 + 0.3*x2*x3 + 1.1*x2^2",
    4: "x1*x2 + 0.5*x3*x4 - x4^2 + 0.1*x1",
    5: "x1 + x2*x3 - 0.7*x4*x5 + 0.2*x5^2 + x1*x5",
    6: "x1*x6 + x2*x3 - 0.7*x4*x5 + 0.2*x5^2 + x1 - 2*x3^2",
}


def ar1_spec(d: int, rho: float, seed: int) -> GaussianSpec:
    idx = np.arange(d)
    mean = np.round(np.random.default_rng(seed).normal(0.0, 0.5, d), 3)
    return GaussianSpec(mean, rho ** np.abs(idx[:, None] - idx[None, :]))


def singular_spec(d: int) -> GaussianSpec:
    """Features 1 and 2 perfectly correlated (rho = 1), so every block
    holding both is singular."""
    S = np.full((d, d), 0.3) + 0.7 * np.eye(d)
    S[:2, :2] = 1.0
    return GaussianSpec(np.linspace(-0.5, 0.5, d), S)


SPECS = {"rho0": lambda d: ar1_spec(d, 0.0, d), "rho05": lambda d: ar1_spec(d, 0.5, d),
         "rho09": lambda d: ar1_spec(d, 0.9, d), "singular": singular_spec}


# ------------------------------------------------------------ references

def rest_of(mask: int, d: int) -> list[int]:
    return [j for j in range(d) if not (mask >> j) & 1]


def ref_game(d: int, worth) -> np.ndarray:
    return np.array([worth(m) for m in range(1 << d)])


def ref_marginal(f, data, x):
    def worth(mask):
        if mask == (1 << f.d) - 1:
            return f(x)
        idx = list(members(mask))
        patched = data.copy()
        patched[:, idx] = x[idx]
        return float(np.mean([f(row) for row in patched]))

    return ref_game(f.d, worth)


def ref_conditional_mc(f, spec, x, n, seed):
    def worth(mask):
        if mask == (1 << f.d) - 1:
            return f(x)
        idx, rest = list(members(mask)), rest_of(mask, f.d)
        cond = gaussian_conditional(spec, mask, x[idx], allow_singular=True)
        rng = np.random.default_rng(np.random.SeedSequence((seed, mask)))
        draws = rng.multivariate_normal(cond.mean, cond.cov, size=n, method="svd")
        pts = np.empty((n, f.d))
        pts[:, idx] = x[idx]
        pts[:, rest] = draws
        return float(np.mean([f(p) for p in pts]))

    return ref_game(f.d, worth)


def ref_sobol_mc(f, spec, n, seed, total_index):
    n_in = max(64, int(np.sqrt(n)))
    full = (1 << f.d) - 1

    def worth(mask):
        cond_mask = (full ^ mask) if total_index else mask
        idx, rest = list(members(cond_mask)), rest_of(cond_mask, f.d)
        rng = np.random.default_rng(np.random.SeedSequence((seed, mask, int(total_index))))
        if not rest:
            if total_index:
                return 0.0
            draws = rng.multivariate_normal(spec.mean, spec.cov, size=n, method="svd")
            return float(np.var([f(p) for p in draws], ddof=1))
        if not idx:
            draws = rng.multivariate_normal(spec.mean, spec.cov, size=n, method="svd")
            return float(np.var([f(p) for p in draws], ddof=1)) if total_index else 0.0
        outer = rng.multivariate_normal(
            spec.mean[idx], spec.cov[np.ix_(idx, idx)], size=n, method="svd")
        stats = np.empty(n)
        for t in range(n):
            cond = gaussian_conditional(spec, cond_mask, outer[t], allow_singular=True)
            inner = rng.multivariate_normal(cond.mean, cond.cov, size=n_in, method="svd")
            pts = np.empty((n_in, f.d))
            pts[:, idx] = outer[t]
            pts[:, rest] = inner
            vals = np.array([f(p) for p in pts])
            stats[t] = np.var(vals, ddof=1) if total_index else np.mean(vals)
        return float(np.mean(stats)) if total_index else float(np.var(stats, ddof=1))

    return ref_game(f.d, worth)


def ref_condition(spec, mask):
    known, rest = list(members(mask)), rest_of(mask, spec.d)
    Saa = spec.cov[np.ix_(known, known)]
    Sca = spec.cov[np.ix_(rest, known)]
    Scc = spec.cov[np.ix_(rest, rest)]
    W = np.zeros((len(rest), 0))
    if known:
        sv = np.linalg.svd(Saa, compute_uv=False)
        singular = sv[-1] <= sv[0] * 1e-12
        W = (np.linalg.pinv(Saa) @ Sca.T if singular else np.linalg.solve(Saa, Sca.T)).T
    m0 = spec.mean[rest] - W @ spec.mean[known]
    Sc = Scc - W @ Sca.T
    return known, rest, W, m0, (Sc + Sc.T) / 2


def ref_mean_quad(q, spec, mask):
    c0, b0, M0 = q
    known, rest, W, m0, Sc = ref_condition(spec, mask)
    bB, bC = b0[known], b0[rest]
    MBB, MBC = M0[np.ix_(known, known)], M0[np.ix_(known, rest)]
    MCC = M0[np.ix_(rest, rest)]
    c = c0 + bC @ m0 + np.trace(MCC @ Sc) + m0 @ MCC @ m0
    b = bB + W.T @ bC + 2 * MBC @ m0 + 2 * W.T @ MCC @ m0
    M = MBB + MBC @ W + W.T @ MBC.T + W.T @ MCC @ W
    return c, b, (M + M.T) / 2


def ref_var_quad(q, spec, mask):
    _, b0, M0 = q
    known, rest, W, m0, Sc = ref_condition(spec, mask)
    bC, MCB, MCC = b0[rest], M0[np.ix_(rest, known)], M0[np.ix_(rest, rest)]
    g0 = bC + 2 * MCC @ m0
    G = 2 * MCB + 2 * MCC @ W
    MSc = MCC @ Sc
    c = g0 @ Sc @ g0 + 2 * np.trace(MSc @ MSc)
    M = G.T @ Sc @ G
    return c, 2 * G.T @ Sc @ g0, (M + M.T) / 2


def ref_mean_under(q, mu, S):
    c, b, M = q
    return c + b @ mu + np.trace(M @ S) + mu @ M @ mu


def ref_var_under(q, mu, S):
    _, b, M = q
    g = b + 2 * M @ mu
    MS = M @ S
    return g @ S @ g + 2 * np.trace(MS @ MS)


def quad_of(f):
    q = f.quad_form()
    return q.c, q.b, q.M


def ref_conditional_gaussian(f, spec, x):
    q = quad_of(f)

    def worth(mask):
        c, b, M = ref_mean_quad(q, spec, mask)
        xa = x[list(members(mask))]
        return c + b @ xa + xa @ M @ xa

    v = ref_game(f.d, worth)
    v[-1] = f(x)
    return v


def ref_sobol(f, spec, total_index):
    q, full = quad_of(f), (1 << f.d) - 1

    def worth(mask):
        cond_mask = (full ^ mask) if total_index else mask
        idx = list(members(cond_mask))
        mu, S = spec.mean[idx], spec.cov[np.ix_(idx, idx)]
        if total_index:
            cv = ref_var_quad(q, spec, cond_mask)
            return ref_mean_under(cv, mu, S) if idx else cv[0]
        return ref_var_under(ref_mean_quad(q, spec, cond_mask), mu, S) if idx else 0.0

    return ref_game(f.d, worth)


def close(got, want):
    return np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


# ------------------------------------------------------------ equality

@pytest.mark.parametrize("d", sorted(MODELS))
def test_marginal_game_is_bit_identical_to_per_mask(d):
    f = Model.from_expression(MODELS[d], d)
    rng = np.random.default_rng(d)
    data, x = rng.normal(size=(37, d)), rng.normal(size=d)
    assert np.array_equal(marginal_game(f, data, x).values, ref_marginal(f, data, x))


@pytest.mark.parametrize("d", sorted(MODELS))
@pytest.mark.parametrize("spec_name", sorted(SPECS))
def test_conditional_mc_game_is_bit_identical_to_per_mask(d, spec_name):
    f, spec = Model.from_expression(MODELS[d], d), SPECS[spec_name](d)
    x = np.random.default_rng(d).normal(size=d)
    got = conditional_mc_game(f, spec, x, n=30, seed=11).values
    assert np.array_equal(got, ref_conditional_mc(f, spec, x, 30, 11))


def asymmetric_spec(d: int) -> GaussianSpec:
    """A valid spec whose covariance is asymmetric by 7e-13, below
    SYMMETRY_TOL: the empty mask draws from it as it is."""
    idx = np.arange(d)
    S = 0.6 ** np.abs(idx[:, None] - idx[None, :])
    S[0, 1] += 7e-13
    return GaussianSpec(np.linspace(0.2, -0.2, d), S)


@pytest.mark.parametrize("n", [2, 7, 240, 1000])
@pytest.mark.parametrize("spec_of", [singular_spec, asymmetric_spec, SPECS["rho09"]])
def test_conditional_mc_blocks_are_bit_identical_to_per_mask(monkeypatch, n, spec_of):
    # 50 rows: blocks of 25, 7 or 1 masks, and 240 or 1000 points split
    # across several model calls
    monkeypatch.setattr(value_functions, "MAX_ROWS", 50)
    d = 4
    f, spec = Model.from_expression(MODELS[d], d), spec_of(d)
    x = np.random.default_rng(n).normal(size=d)
    got = conditional_mc_game(f, spec, x, n=n, seed=3).values
    assert np.array_equal(got, ref_conditional_mc(f, spec, x, n, 3))


@pytest.mark.parametrize("d", sorted(MODELS))
@pytest.mark.parametrize("spec_name", sorted(SPECS))
def test_stacked_instances_give_each_its_own_game(d, spec_name):
    f, spec = Model.from_expression(MODELS[d], d), SPECS[spec_name](d)
    X = np.random.default_rng(d).normal(size=(5, d))
    stacked = conditional_gaussian_game(f, spec, X)
    assert len(stacked) == len(X)
    for x, g in zip(X, stacked):
        assert np.array_equal(g.values, conditional_gaussian_game(f, spec, x).values)
    assert conditional_gaussian_game(f, spec, X[:0]) == []


def test_build_game_builds_a_stack_of_games():
    gs = build_game(3, lambda masks: np.stack([masks * 1.0, masks * 2.0]), stack=2)
    assert [g.values.tolist() for g in gs] == [list(range(8)), list(range(0, 16, 2))]
    with pytest.raises(GameError, match="shape"):
        build_game(3, lambda masks: masks * 1.0, stack=2)
    with pytest.raises(GameError, match=r"non-finite value on \{1,2\}"):
        build_game(3, lambda masks: np.stack([masks * 1.0, np.where(masks == 3, np.nan, 0)]),
                   stack=2)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("total_index", [False, True])
def test_sobol_mc_game_is_bit_identical_to_per_mask(d, spec_name, total_index):
    f = Model.from_expression(MODELS[d] + " + 0.3*x1^3", d)
    spec = SPECS[spec_name](d)
    sobol = sobol_total_game if total_index else sobol_closed_game
    got = sobol(f, spec, normalize=False, mc=(12, 5)).values
    assert np.array_equal(got, ref_sobol_mc(f, spec, 12, 5, total_index))


@pytest.mark.parametrize("d", sorted(MODELS))
@pytest.mark.parametrize("spec_name", sorted(SPECS))
def test_closed_forms_agree_with_per_mask(d, spec_name):
    f, spec = Model.from_expression(MODELS[d], d), SPECS[spec_name](d)
    x = np.random.default_rng(d).normal(size=d)
    assert close(conditional_gaussian_game(f, spec, x).values,
                 ref_conditional_gaussian(f, spec, x))
    assert close(sobol_closed_game(f, spec, normalize=False).values,
                 ref_sobol(f, spec, False))
    assert close(sobol_total_game(f, spec, normalize=False).values,
                 ref_sobol(f, spec, True))


# ------------------------------------------------------------ chunking

def all_games(d: int):
    f = Model.from_expression(MODELS[d], d)
    cubic = Model.from_expression(MODELS[d] + " + 0.3*x1^3", d)
    spec = ar1_spec(d, 0.5, d)
    rng = np.random.default_rng(d)
    data, x = rng.normal(size=(37, d)), rng.normal(size=d)
    return [
        marginal_game(f, data, x),
        conditional_mc_game(f, spec, x, n=30, seed=2),
        conditional_gaussian_game(f, spec, x),
        sobol_closed_game(f, spec),
        sobol_total_game(f, singular_spec(d)),
        sobol_closed_game(cubic, spec, mc=(70, 3)),
        sobol_total_game(cubic, spec, mc=(70, 3)),
    ]


@pytest.mark.parametrize("chunk, rows", [(2, 7), (3, 100), (1, 64)])
def test_chunk_sizes_do_not_change_results(monkeypatch, chunk, rows):
    want = all_games(4)
    monkeypatch.setattr(games, "BUILD_CHUNK", chunk)
    monkeypatch.setattr(value_functions, "MAX_ROWS", rows)
    calls = []
    call = Model.__call__
    monkeypatch.setattr(Model, "__call__", lambda f, X: calls.append(np.shape(X)) or call(f, X))
    for got, ref in zip(all_games(4), want):
        assert np.array_equal(got.values, ref.values)
    assert max(shape[0] for shape in calls if len(shape) == 2) <= rows


def test_build_game_walks_layers_in_chunks(monkeypatch):
    monkeypatch.setattr(games, "BUILD_CHUNK", 4)
    seen = []

    def oracle(masks):
        assert masks.dtype == np.int64 and 1 <= len(masks) <= 4
        assert len(set(np.bitwise_count(masks).tolist())) == 1
        seen.append(masks.copy())
        return masks * 2.0

    g = build_game(5, oracle)
    order = np.concatenate(seen)
    assert sorted(order.tolist()) == list(range(32))
    assert np.all(np.diff(np.bitwise_count(order)) >= 0)
    assert len(seen) == sum(-(-n // 4) for n in (1, 5, 10, 10, 5, 1))
    assert np.array_equal(g.values, 2.0 * np.arange(32))


def test_pointwise_oracles_take_one_coalition_closed_forms_a_layer(monkeypatch):
    batches = []
    build = value_functions.build_game

    def counting(d, oracle, *args, **kwargs):
        return build(d, lambda masks: batches.append(len(masks)) or oracle(masks),
                     *args, **kwargs)

    monkeypatch.setattr(value_functions, "build_game", counting)
    d = 4
    f = Model.from_expression(MODELS[d], d)
    cubic = Model.from_expression(MODELS[d] + " + 0.3*x1^3", d)
    spec, x = ar1_spec(d, 0.5, d), np.zeros(d)
    # marginal takes one coalition per call, as the benchmark's oracle count expects
    marginal_game(f, np.ones((5, d)), x)
    assert batches == [1] * (1 << d)
    batches.clear()
    # a regular spec's closed forms are swept, with no oracle; an irregular
    # one's take a layer per call
    conditional_gaussian_game(f, spec, x)
    assert batches == []
    layered = [
        lambda: conditional_gaussian_game(f, singular_spec(d), x),
        lambda: sobol_closed_game(cubic, spec, mc=(10, 1)),
        lambda: sobol_total_game(cubic, spec, mc=(10, 1)),
    ]
    for build_one in layered:
        build_one()
        assert batches == [1, 4, 6, 4, 1]
        batches.clear()
    # conditional Monte Carlo takes a layer block of at most MAX_ROWS // n masks
    conditional_mc_game(f, spec, x, n=10, seed=1)
    assert batches == [1, 4, 6, 4, 1]
    batches.clear()
    monkeypatch.setattr(value_functions, "MAX_ROWS", 25)
    conditional_mc_game(f, spec, x, n=10, seed=1)
    assert batches == [1, 2, 2, 2, 2, 2, 2, 2, 1]
    batches.clear()
    conditional_mc_game(f, spec, x, n=30, seed=1)
    assert batches == [1] * (1 << d)


def test_build_game_rejects_a_misshapen_oracle():
    with pytest.raises(GameError, match="shape"):
        build_game(3, lambda masks: 0.0)


def test_model_rows_and_points():
    f = Model.from_expression("x1*x2 + 1", 2)
    rows = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(f(rows), [3.0, 13.0])
    assert f(rows[1]) == 13.0 and isinstance(f(rows[1]), float)
    g = Model(lambda X: np.where(X[:, 0] > 2, np.inf, 0.0), 2)
    with pytest.raises(GameError, match=r"non-finite output at \[3. 4.\]"):
        g(rows)


# ------------------------------------------------------------ memory

def test_marginal_game_memory_stays_bounded():
    # the whole (2^10 masks x 1000 rows x 10) block would take about 82 MB
    d = 10
    terms = [f"x{i + 1}*x{i % d + 2}" for i in range(d - 1)] + [f"x{i + 1}" for i in range(d)]
    f = Model.from_expression(" + ".join(terms) + " + x3^2", d)
    rng = np.random.default_rng(0)
    data, x = rng.normal(size=(1000, d)), rng.normal(size=d)
    tracemalloc.start()
    try:
        marginal_game(f, data, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_conditional_mc_game_memory_stays_bounded():
    # one mask of 5000 points per block: 0.4 MB of points, where the whole
    # layer of 252 masks would take about 100 MB
    d = 10
    terms = [f"x{i + 1}*x{i % d + 2}" for i in range(d - 1)] + [f"x{i + 1}" for i in range(d)]
    f = Model.from_expression(" + ".join(terms) + " + x3^2", d)
    idx = np.arange(d)
    spec = GaussianSpec(np.zeros(d), 0.5 ** np.abs(idx[:, None] - idx[None, :]))
    tracemalloc.start()
    try:
        conditional_mc_game(f, spec, np.linspace(-1.0, 1.0, d), n=5000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# ------------------------------------------------------------ regularity gate

def ring_model(d: int) -> str:
    terms = [f"{0.3 + 0.1 * i:.1f}*x{i + 1}*x{(i + 1) % d + 1}" for i in range(d)]
    return " + ".join(terms + [f"x{i + 1}" for i in range(d)] + ["0.5*x1^2"])


def gate_games(d: int, spec: GaussianSpec, model: str) -> list[np.ndarray]:
    """The three closed forms, cond-mc and both Monte Carlo Sobol games."""
    f = Model.from_expression(model, d)
    cubic = Model.from_expression(model + " + 0.3*x1^3", d)
    x = np.random.default_rng(d).normal(size=d)
    return [g.values for g in (
        conditional_gaussian_game(f, spec, x),
        sobol_closed_game(f, spec, normalize=False),
        sobol_total_game(f, spec, normalize=False),
        conditional_mc_game(f, spec, x, n=20, seed=4),
        sobol_closed_game(cubic, spec, normalize=False, mc=(6, 2)),
        sobol_total_game(cubic, spec, normalize=False, mc=(6, 2)),
    )]


GATE_CASES = [(d, name, SPECS[name], MODELS[d]) for d in sorted(MODELS) for name in sorted(SPECS)]
GATE_CASES += [(8, f"ar1 rho={rho}", lambda d, rho=rho: ar1_spec(d, rho, 1), ring_model(8))
               for rho in (0.0, 0.5, 0.9)]


@pytest.mark.parametrize("d, name, spec_of, model", GATE_CASES,
                         ids=[f"d{d}-{name}" for d, name, _, _ in GATE_CASES])
def test_skipping_the_singular_block_test_changes_no_game(monkeypatch, d, name, spec_of, model):
    spec = spec_of(d)
    assert spec.regular == (name != "singular")
    got = gate_games(d, spec, model)
    # REGULAR_COND = 0 makes every spec irregular: each block takes the test,
    # and the closed forms condition by solves instead of the sweep
    monkeypatch.setattr(gaussian, "REGULAR_COND", 0.0)
    parent = spec_of(d)
    assert not parent.regular
    want = gate_games(d, parent, model)
    for a, b in zip(got[:3], want[:3]):
        assert np.array_equal(a, b) if name == "singular" else close(a, b)
    for a, b in zip(got[3:], want[3:]):  # Monte Carlo games
        assert np.array_equal(a, b)


def count_block_tests(monkeypatch) -> list[int]:
    """[solves, eigvalsh calls made inside _solve_or_pinv], counted from now on."""
    counts = [0, 0]
    inside = []
    solve, eigvalsh = gaussian._solve_or_pinv, np.linalg.eigvalsh

    def counted_solve(*args):
        counts[0] += 1
        inside.append(True)
        try:
            return solve(*args)
        finally:
            inside.pop()

    def counted_eigvalsh(A):
        counts[1] += bool(inside)
        return eigvalsh(A)

    monkeypatch.setattr(gaussian, "_solve_or_pinv", counted_solve)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    return counts


def rotated_spec(eigenvalues) -> GaussianSpec:
    d = len(eigenvalues)
    Q = np.linalg.qr(np.random.default_rng(d).normal(size=(d, d)))[0]
    S = (Q * np.asarray(eigenvalues)) @ Q.T
    return GaussianSpec(np.zeros(d), (S + S.T) / 2)


def test_a_regular_spec_builds_its_games_without_a_block_test(monkeypatch):
    spec = ar1_spec(5, 0.9, 5)
    counts = count_block_tests(monkeypatch)
    gate_games(5, spec, MODELS[5])
    assert counts[0] > 0 and counts[1] == 0


@pytest.mark.parametrize("spec_of", [
    lambda: singular_spec(4),
    lambda: rotated_spec([1.0, 0.5, 0.2, 3e-12]),  # cond 3.3e11: in (1e11, 1e12]
    lambda: rotated_spec([1.0, 0.5, 0.2, -5e-11]),  # PSD-repaired
], ids=["singular", "cond-3e11", "repaired"])
def test_an_irregular_spec_keeps_the_block_test(monkeypatch, spec_of):
    spec = spec_of()
    assert not spec.regular
    counts = count_block_tests(monkeypatch)
    gate_games(4, spec, MODELS[4])
    assert counts[0] > 0 and counts[1] == counts[0]


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 8), st.floats(0.0, 11.0), st.integers(-6, 6), st.integers(0, 2**32 - 1))
def test_no_principal_block_of_a_regular_spec_fails_the_block_test(d, log_cond, k, seed):
    # Cauchy interlacing: each block's spectrum lies inside the spec's, so a
    # spec of condition number <= 1e11 has no block of computed condition
    # number above 1e12, eigvalsh's roundoff included
    rng = np.random.default_rng(seed)
    w = 10.0 ** (k - log_cond * np.concatenate([[0.0, 1.0], rng.uniform(size=d)])[:d])
    Q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    S = (Q * w) @ Q.T
    spec = GaussianSpec(np.zeros(d), (S + S.T) / 2)
    if not spec.regular:  # the computed condition number rounded above 1e11
        assert log_cond > 10.9
        return
    for layer in games.layers(d)[1:]:
        known, _ = games.split_masks(layer, d)
        blocks = np.linalg.eigvalsh(gaussian._block(spec.cov, known, known))
        assert np.all(blocks[:, 0] > blocks[:, -1] * 1e-12)


# ------------------------------------------------------------ flat gather

@pytest.mark.parametrize("contiguous", [True, False])
def test_block_equals_the_two_index_gather(contiguous):
    rng = np.random.default_rng(7)
    A = rng.normal(size=(9, 9))
    rows, cols = rng.integers(0, 9, size=(6, 4)), rng.integers(0, 9, size=(6, 5))
    if not contiguous:
        A = rng.normal(size=(9, 18))[:, ::2]  # every other column: a strided view
        rows = rng.integers(0, 9, size=(4, 6)).T  # transposed index stacks
        cols = rng.integers(0, 9, size=(6, 10))[:, 1::2]
    assert A.flags.c_contiguous == rows.flags.c_contiguous == contiguous
    want = A[rows[..., :, None], cols[..., None, :]]
    got = gaussian._block(A, rows, cols)
    assert got.shape == want.shape == (6, 4, 5) and np.array_equal(got, want)
    assert np.array_equal(gaussian._block(A, rows[0], cols[0]), A[np.ix_(rows[0], cols[0])])


@pytest.mark.parametrize("d", [0, 1, 4, 7])
def test_split_masks_gives_c_contiguous_index_rows(d):
    for layer in games.layers(d):
        known, rest = games.split_masks(layer, d)
        assert known.flags.c_contiguous and rest.flags.c_contiguous
        assert known.shape[1] + rest.shape[1] == d


# ------------------------------------------------------------ sweep

def solved(spec: GaussianSpec) -> GaussianSpec:
    """The spec flagged irregular: its closed forms condition each layer by
    solves, the covariance route, instead of sweeping."""
    twin = GaussianSpec(spec.mean, spec.cov)
    object.__setattr__(twin, "regular", False)
    return twin


def closed_forms(f, spec, x) -> list[np.ndarray]:
    return [conditional_gaussian_game(f, spec, x).values,
            sobol_closed_game(f, spec, normalize=False).values,
            sobol_total_game(f, spec, normalize=False).values]


def random_quadratic(rng: np.random.Generator, d: int) -> Model:
    terms = [f"{rng.normal():.4f}*x{i + 1}" for i in range(d)]
    terms += [f"{rng.normal():.4f}*x{rng.integers(d) + 1}*x{rng.integers(d) + 1}"
              for _ in range(d + 1)]
    return Model.from_expression(f"{rng.normal():.3f} + " + " + ".join(terms), d)


def rotated(rng: np.random.Generator, w: np.ndarray) -> np.ndarray:
    Q = np.linalg.qr(rng.normal(size=(len(w), len(w))))[0]
    S = (Q * w) @ Q.T
    return (S + S.T) / 2


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 8), st.floats(0.0, 3.0), st.integers(-3, 3), st.integers(0, 2**32 - 1))
def test_sweep_agrees_with_the_covariance_route(d, log_cond, k, seed):
    rng = np.random.default_rng(seed)
    w = 10.0 ** (k - log_cond * np.concatenate([[0.0, 1.0], rng.uniform(size=d)])[:d])
    spec = GaussianSpec(rng.normal(size=d) * 10.0 ** (k / 2), rotated(rng, w))
    assert spec.regular
    f, x = random_quadratic(rng, d), spec.mean + rng.normal(size=d) * 10.0 ** (k / 2)
    for got, want in zip(closed_forms(f, spec, x), closed_forms(f, solved(spec), x)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def mp_closed_forms(q, spec: GaussianSpec, x: np.ndarray) -> list[np.ndarray]:
    """The three closed forms at 60 digits, from the float inputs taken as
    exact: cond-gauss q(m_A) + tr(M Σ_A), the closed Sobol index
    g'P_A g + 2 tr((M P_A)^2) with P_A = Σ - Σ_A, and the total index
    E[Var(f | X_B)] at B = D \\ A."""
    mp.mp.dps = 60
    d = spec.d
    mat = lambda a: mp.matrix([[mp.mpf(float(t)) for t in row] for row in np.atleast_2d(a)])
    Sig, M = mat(spec.cov), mat(q.M)
    mu, b, xv = mat(spec.mean[:, None]), mat(q.b[:, None]), mat(x[:, None])
    g = b + 2 * M * mu
    K = M * Sig * M
    tr = lambda A: mp.fsum(A[i, i] for i in range(A.rows))
    cg, closed, total = [], [], []
    for mask in range(1 << d):
        known = list(members(mask))
        S, m = Sig, mu
        if known:
            rest = [j for j in range(d) if j not in known]
            inv = mp.matrix([[Sig[i, j] for j in known] for i in known]) ** -1
            S, m = mp.zeros(d, d), mp.matrix(xv)
            for i in rest:
                W = [mp.fsum(Sig[i, a] * inv[r, c] for r, a in enumerate(known))
                     for c in range(len(known))]
                m[i] = mu[i] + mp.fsum(W[c] * (xv[a] - mu[a]) for c, a in enumerate(known))
                for j in rest:
                    S[i, j] = Sig[i, j] - mp.fsum(W[c] * Sig[a, j] for c, a in enumerate(known))
        cg.append(q.c + (b.T * m)[0] + (m.T * M * m)[0] + tr(M * S))
        MP, SM = M * (Sig - S), S * M
        closed.append((g.T * (Sig - S) * g)[0] + 2 * tr(MP * MP))
        total.append((g.T * S * g)[0] + 4 * tr(S * K) - 2 * tr(SM * SM))
    return [np.array([float(t) for t in v]) for v in (cg, closed, total[::-1])]


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("cond", [1e2, 1e5, 1e8, 1e11])
def test_sweep_error_is_the_covariance_routes_against_60_digits(d, cond):
    rng = np.random.default_rng(d)
    w = np.geomspace(1.0, 1.01 / cond, d)  # 1.01: the rounded spec stays regular at 1e11
    spec = GaussianSpec(rng.normal(size=d), rotated(rng, w))
    assert spec.regular
    f = random_quadratic(rng, d)
    x = spec.mean + np.linalg.cholesky(spec.cov) @ rng.normal(size=d)
    refs = mp_closed_forms(f.quad, spec, x)
    refs[0][-1] = f(x)  # v(D) = f(x), as the game reports it
    for ref, got, want in zip(refs, closed_forms(f, spec, x), closed_forms(f, solved(spec), x)):
        scale = np.max(np.abs(ref))
        sweep_error, solve_error = np.max(np.abs(got - ref)), np.max(np.abs(want - ref))
        assert sweep_error <= 10 * solve_error + 1e-13 * scale


def test_a_regular_spec_sweeps_without_a_solve_or_an_oracle(monkeypatch):
    d = 5
    f, spec = Model.from_expression(MODELS[d], d), ar1_spec(d, 0.9, d)
    assert spec.regular
    counts = count_block_tests(monkeypatch)
    monkeypatch.setattr(value_functions, "build_game", None)  # any oracle walk would fail
    closed_forms(f, spec, np.ones(d))
    assert counts == [0, 0]
    assert conditional_gaussian_game(f, spec, np.empty((0, d))) == []


def test_sweep_blocks_come_in_mask_order(monkeypatch):
    d = 6
    rng = np.random.default_rng(4)
    spec, X = GaussianSpec(rng.normal(size=d), rotated(rng, rng.uniform(0.5, 2.0, d))), \
        rng.normal(size=(3, d))
    monkeypatch.setattr(gaussian, "SWEEP_BLOCK", 4)
    blocks = [(S.copy(), m.copy()) for S, m in gaussian.sweep(spec, X)]
    assert [len(S) for S, _ in blocks] == [4] * 16 and [m.shape for _, m in blocks] == [(3, 4, d)] * 16
    S, m = np.concatenate([S for S, _ in blocks]), np.concatenate([m for _, m in blocks], axis=1)
    for mask in range(1 << d):
        known, rest = list(members(mask)), rest_of(mask, d)
        # zero on A's rows and columns, and x on A, exactly
        assert not S[mask][known].any() and not S[mask][:, known].any()
        assert np.array_equal(m[:, mask, known], X[:, known])
        for i, x in enumerate(X):
            cond = gaussian_conditional(spec, mask, x[known])
            assert np.allclose(m[i, mask, rest], cond.mean, rtol=0, atol=1e-13)
            assert np.allclose(S[mask][np.ix_(rest, rest)], cond.cov, rtol=0, atol=1e-13)


@pytest.mark.parametrize("block", [1, 2, 16, 1024])
def test_the_sweep_block_size_changes_no_game_beyond_roundoff(monkeypatch, block):
    d = 6
    f, spec = Model.from_expression(MODELS[d], d), ar1_spec(d, 0.5, d)
    x = np.random.default_rng(d).normal(size=d)
    want = closed_forms(f, spec, x)
    monkeypatch.setattr(gaussian, "SWEEP_BLOCK", block)
    for got, ref in zip(closed_forms(f, spec, x), want):
        assert close(got, ref)


def test_closed_form_memory_stays_below_the_covariance_routes():
    # the covariance route peaks at 4.7-4.8 MiB for each of these games
    d = 14
    terms = [f"x{i + 1}*x{i % d + 2}" for i in range(d - 1)] + [f"x{i + 1}" for i in range(d)]
    f = Model.from_expression(" + ".join(terms) + " + x3^2", d)
    idx = np.arange(d)
    spec = GaussianSpec(np.zeros(d), 0.5 ** np.abs(idx[:, None] - idx[None, :]))
    for build in (lambda: conditional_gaussian_game(f, spec, np.linspace(-1.0, 1.0, d)),
                  lambda: sobol_closed_game(f, spec), lambda: sobol_total_game(f, spec)):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
