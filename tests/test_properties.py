"""Property tests for the array allocation core, at magnitudes 1e-8 to 1e9.

Each exact allocation is compared with an independent route: brute-force
dividend sharing through a scalar weight reference and `dividends_recursive`, or
the subset recursion of the proportional value, or, for proportional
marginal effects on duals with zero worths, the proportional value of the
worths shifted by a small epsilon. The game-theoretic invariants (linearity,
translation, self-duality, dummy players) are checked directly. Tolerances
are relative to the largest worth of the game, with a floor of a few
subnormal ulps.
"""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coalition_attr import (
    Explicit,
    Game,
    Uniform,
    WeightSystem,
    causal_orderings,
    dividends_fast,
    dividends_recursive,
    harsanyi_allocate,
    dual_game,
    efficiency_gap,
    marginal_vector,
    pme,
    proportional_value,
    shapley_direct,
    shapley_dividends,
    shapley_permutation,
    weber_allocate,
    zeta_reconstruct,
)
from coalition_attr.cli import verify_game
from coalition_attr.games import EXACT_TOL, magnitude
from conftest import reference_weight

REL = 1e-10
FLOOR = 4 * np.finfo(float).smallest_subnormal
PRESETS = st.sampled_from(WeightSystem.PRESETS)
core = settings(deadline=None, max_examples=60)


@st.composite
def games(draw, max_d=6, positive=False):
    d = draw(st.integers(1, max_d))
    scale = 10.0 ** draw(st.integers(-8, 9))
    lo = 0.01 if positive else -1.0
    vals = draw(hnp.arrays(np.float64, 1 << d, elements=st.floats(lo, 1.0)))
    return Game(d, scale * vals)


@st.composite
def dual_worths(draw, max_d=6, scaled=True):
    """Nonnegative worths w, w(empty) = 0, with random zeros: the dual of the
    game dual_game(w), so the game that pme allocates."""
    d = draw(st.integers(1, max_d))
    scale = 10.0 ** draw(st.integers(-8, 9)) if scaled else 1.0
    elements = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    vals = draw(hnp.arrays(np.float64, 1 << d, elements=elements))
    vals[0] = 0.0
    return Game(d, scale * vals)


def _with_dummy(vals: np.ndarray, i: int) -> np.ndarray:
    """The worths u(S without i) over one more player: player i adds nothing
    to any coalition."""
    low = (1 << i) - 1
    return np.array([vals[(m & low) | ((m >> 1) & ~low)] for m in range(2 * vals.size)])


def _members(mask: int, d: int) -> list[int]:
    return [j for j in range(d) if (mask >> j) & 1]


def weight_system(preset: str, d: int, seed: int) -> WeightSystem:
    """`preset` with random sharing weights stored on random coalitions
    (on every nonempty coalition for "custom")."""
    rng = np.random.default_rng(seed)
    entries = {}
    for mask in range(1, 1 << d):
        if preset == "custom" or rng.random() < 0.3:
            ms = _members(mask, d)
            for j, w in zip(ms, rng.dirichlet(np.ones(len(ms)))):
                entries[(j, mask)] = float(w)
    return WeightSystem(preset, entries)


def _tol(*gs: Game) -> float:
    # the floor forgives a half-ulp rounding of a subnormal worth
    return REL * sum(float(np.max(np.abs(g.values))) for g in gs) + FLOOR


@core
@given(games(), PRESETS, st.integers(0, 2**32 - 1))
@example(Game(2, [5e-324, 0, 0, 0]), "egalitarian", 0)
def test_harsanyi_equals_brute_force_dividend_sharing(g, preset, seed):
    w = weight_system(preset, g.d, seed)
    phi = dividends_recursive(g).dividends
    want = [sum(reference_weight(w, j, m) * phi[m] for m in range(1, 1 << g.d)) for j in range(g.d)]
    got = harsanyi_allocate(g, w).payoffs
    assert np.max(np.abs(got - want)) <= _tol(g)


@core
@given(games(), games(), st.floats(-3.0, 3.0), PRESETS, st.integers(0, 2**32 - 1))
def test_harsanyi_is_linear(g, h, a, preset, seed):
    h = Game(g.d, np.resize(h.values, 1 << g.d))  # the second game over g's players
    w = weight_system(preset, g.d, seed)
    got = harsanyi_allocate(Game(g.d, a * g.values + h.values), w).payoffs
    want = a * harsanyi_allocate(g, w).payoffs + harsanyi_allocate(h, w).payoffs
    assert np.max(np.abs(got - want)) <= _tol(g) * max(1.0, abs(a)) + _tol(h)


@core
@given(games(max_d=5), st.integers(0, 5), PRESETS, st.integers(0, 2**32 - 1))
def test_dummy_player_gets_zero_under_every_preset(g, i, preset, seed):
    d = g.d + 1
    i = i % d
    a = harsanyi_allocate(Game(d, _with_dummy(g.values, i)), weight_system(preset, d, seed))
    assert a.payoffs[i] == 0.0


def _pv_recursion(g: Game) -> np.ndarray:
    """Reference: phi_i({i}) = v({i}) and, for |S| >= 2,
    phi_i(S) = v(S) / (1 + sum_{j in S, j != i} phi_j(S\\{i}) / phi_i(S\\{j}))."""
    table = {}
    for mask in sorted(range(1, 1 << g.d), key=lambda m: bin(m).count("1")):
        ms = _members(mask, g.d)
        for i in ms:
            acc = 1.0 + sum(table[mask ^ (1 << i), j] / table[mask ^ (1 << j), i]
                            for j in ms if j != i)
            table[mask, i] = g.values[mask] / acc
    return np.array([table[(1 << g.d) - 1, i] for i in range(g.d)])


@core
@given(games(max_d=5, positive=True))
def test_proportional_value_matches_subset_recursion(g):
    got = proportional_value(g).payoffs
    assert np.max(np.abs(got - _pv_recursion(g))) <= _tol(g)


@core
@given(games(positive=True), st.integers(-8, 9))
def test_proportional_value_is_homogeneous(g, k):
    c = 10.0**k
    got = proportional_value(Game(g.d, c * g.values)).payoffs
    assert np.max(np.abs(got - c * proportional_value(g).payoffs)) <= c * _tol(g)


@core
@given(games(positive=True), dual_worths(), st.integers(-900, 900))
def test_pv_and_pme_scale_by_powers_of_two_bit_for_bit(g, w, k):
    scaled = proportional_value(Game(g.d, np.ldexp(g.values, k))).payoffs
    assert np.array_equal(scaled, np.ldexp(proportional_value(g).payoffs, k))
    h = dual_game(w)
    scaled = pme(Game(h.d, np.ldexp(h.values, k))).payoffs
    assert np.array_equal(scaled, np.ldexp(pme(h).payoffs, k))


@st.composite
def normal_games(draw, max_d=6):
    """Games whose nonzero worths lie within a factor 100 of the game's scale,
    so that scaling by 2^k, |k| <= 900, keeps every worth and payoff normal."""
    d = draw(st.integers(1, max_d))
    scale = 10.0 ** draw(st.integers(-8, 9))
    sizes = st.floats(0.01, 1.0)
    elements = st.one_of(st.just(0.0), sizes, sizes.map(lambda x: -x))
    return Game(d, scale * draw(hnp.arrays(np.float64, 1 << d, elements=elements)))


@core
@given(normal_games(), PRESETS, st.integers(0, 2**32 - 1), st.integers(-900, 900))
def test_linear_methods_dividends_and_verify_scale_by_powers_of_two_bit_for_bit(
        g, preset, seed, k):
    p, weights = order_distribution(g.d, seed), weight_system(preset, g.d, seed)
    routes = [shapley_direct, shapley_permutation, shapley_dividends,
              lambda h: weber_allocate(h, Uniform()), lambda h: weber_allocate(h, p),
              lambda h: harsanyi_allocate(h, weights)]
    scaled = Game(g.d, np.ldexp(g.values, k))
    for route in routes:
        assert np.array_equal(route(scaled).payoffs, np.ldexp(route(g).payoffs, k))
    assert np.array_equal(dividends_fast(scaled).dividends,
                          np.ldexp(dividends_fast(g).dividends, k))
    assert verify_game(scaled) == verify_game(g)


@core
@given(dual_worths())
def test_pme_is_efficient_on_duals_with_zero_worths(w):
    g = dual_game(w)
    allocated = dual_game(g)
    assert abs(efficiency_gap(allocated, pme(g))) <= EXACT_TOL * magnitude(allocated)


@core
@given(dual_worths(max_d=5), st.integers(0, 5))
def test_pme_gives_a_dummy_zero_and_the_others_their_pme_without_it(w, i):
    i = i % (w.d + 1)
    got = pme(dual_game(Game(w.d + 1, _with_dummy(w.values, i)))).payoffs
    assert got[i] == 0.0
    want = np.insert(pme(dual_game(w)).payoffs, i, 0.0)
    assert np.max(np.abs(got - want)) <= _tol(w)


@core
@given(dual_worths(max_d=5, scaled=False))
def test_pme_is_the_limit_of_pv_on_dual_worths_shifted_by_epsilon(w):
    shifted = w.values + 1e-12
    shifted[0] = 0.0
    want = proportional_value(Game(w.d, shifted)).payoffs
    # the 1e-12 shift is absolute, and so is the bound below unit scale
    assert np.max(np.abs(pme(dual_game(w)).payoffs - want)) <= 1e-8 * max(1.0, magnitude(w))


@core
@given(st.integers(1, 6).flatmap(
    lambda d: hnp.arrays(np.float64, 1 << d, elements=st.integers(-(2**40), 2**40))))
def test_moebius_zeta_round_trip_is_exact_on_integer_worths(vals):
    # every intermediate is an integer below 2^53, so no rounding occurs
    g = Game(int(np.log2(vals.size)), vals)
    t = dividends_fast(g)
    assert np.array_equal(t.dividends, dividends_recursive(g).dividends)
    assert np.array_equal(zeta_reconstruct(t).values, g.values)


def order_distribution(d: int, seed: int):
    """An explicit pmf over distinct random orders, or the uniform orders of a
    random DAG (edgeless: all d! orders)."""
    rng = np.random.default_rng(seed)
    if rng.random() < 0.5:
        orders = {tuple(int(j) for j in rng.permutation(d)) for _ in range(int(rng.integers(1, 6)))}
        return Explicit(tuple(orders), tuple(rng.dirichlet(np.ones(len(orders)))))
    edges = [(u, w) for u in range(d) for w in range(u + 1, d) if rng.random() < 0.3]
    return causal_orderings(d, edges)


@st.composite
def dag_games(draw, max_d=7):
    """A game and the uniform orders of a random DAG on its players, with
    edges along a random order of them."""
    g = draw(games(max_d))
    perm = draw(st.permutations(range(g.d)))
    pairs = [(perm[a], perm[b]) for a in range(g.d) for b in range(a + 1, g.d)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return g, causal_orderings(g.d, edges)


@core
@given(dag_games())
def test_dag_weber_table_pass_matches_enumeration(gp):
    g, p = gp
    orders, probs = p.expand(g.d)
    want = probs @ marginal_vector(g, orders)
    got = weber_allocate(g, p)
    assert np.max(np.abs(got.payoffs - want)) <= 1e-12 * magnitude(g)
    assert abs(efficiency_gap(g, got)) <= EXACT_TOL * magnitude(g)


@core
@given(dag_games(max_d=6), st.data())
def test_dag_weber_gives_a_dummy_exactly_zero(gp, data):
    g, p = gp
    i = data.draw(st.integers(0, g.d))
    edges = [(u + (u >= i), v + (v >= i)) for v in range(g.d) for u in range(g.d)
             if (p.pred_masks[v] >> u) & 1]
    # the dummy joins the DAG as a random player's predecessor or successor
    j = data.draw(st.integers(0, g.d - 1))
    edges.append((i, j + (j >= i)) if data.draw(st.booleans()) else (j + (j >= i), i))
    a = weber_allocate(Game(g.d + 1, _with_dummy(g.values, i)), causal_orderings(g.d + 1, edges))
    assert a.payoffs[i] == 0.0


@core
@given(games(max_d=7))
def test_edgeless_dag_weber_is_shapley(g):
    got = weber_allocate(g, causal_orderings(g.d, [])).payoffs
    assert np.max(np.abs(got - shapley_direct(g).payoffs)) <= 1e-12 * magnitude(g)


@core
@given(games(), games(), st.floats(-3.0, 3.0))
def test_shapley_is_linear(g, h, a):
    h = Game(g.d, np.resize(h.values, 1 << g.d))
    got = shapley_direct(Game(g.d, a * g.values + h.values)).payoffs
    want = a * shapley_direct(g).payoffs + shapley_direct(h).payoffs
    assert np.max(np.abs(got - want)) <= _tol(g) * max(1.0, abs(a)) + _tol(h)


@core
@given(games(), games(), st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
def test_exact_weber_is_linear(g, h, a, seed):
    h = Game(g.d, np.resize(h.values, 1 << g.d))
    p = order_distribution(g.d, seed)
    got = weber_allocate(Game(g.d, a * g.values + h.values), p).payoffs
    want = a * weber_allocate(g, p).payoffs + weber_allocate(h, p).payoffs
    assert np.max(np.abs(got - want)) <= _tol(g) * max(1.0, abs(a)) + _tol(h)


@core
@given(games(), st.integers(0, 2**32 - 1))
def test_every_weber_value_is_a_harsanyi_value(g, seed):
    # Derks, Haller & Peters (2000): player i's weight on S is the chance that
    # i arrives last among the members of S, counted over the expanded orders
    p = order_distribution(g.d, seed)
    orders, probs = p.expand(g.d)
    entries = {}
    for mask in range(1, 1 << g.d):
        for order, prob in zip(orders.tolist(), probs):
            last = [j for j in order if (mask >> j) & 1][-1]
            entries[last, mask] = entries.get((last, mask), 0.0) + prob
    got = harsanyi_allocate(g, WeightSystem("custom", entries)).payoffs
    assert np.max(np.abs(got - weber_allocate(g, p).payoffs)) <= _tol(g)


@core
@given(games(), st.floats(-1.0, 1.0), st.integers(-8, 9))
def test_shapley_ignores_a_constant_added_to_every_worth(g, c, k):
    shifted = Game(g.d, g.values + c * 10.0**k)
    got = shapley_direct(shifted).payoffs
    assert np.max(np.abs(got - shapley_direct(g).payoffs)) <= _tol(g, shifted)


@core
@given(games())
def test_shapley_is_self_dual(g):
    w = dual_game(g)
    assert np.max(np.abs(shapley_direct(w).payoffs - shapley_direct(g).payoffs)) <= _tol(g, w)
