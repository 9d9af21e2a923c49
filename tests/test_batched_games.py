"""Batched game construction against the per-mask bodies it replaced.

The references below evaluate one coalition at a time and the model one row
at a time, as every game construction did before model games were built
from blocks of coalitions. Monte Carlo games must match them bit for bit
(same seeds, same draws, same sums); closed forms to 1e-12 of the game's
magnitude.
"""
import tracemalloc

import numpy as np
import pytest

from coalition_attr import games, value_functions
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
    layered = [
        lambda: conditional_gaussian_game(f, spec, x),
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
