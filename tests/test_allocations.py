import itertools
import math
import tracemalloc

import numpy as np
import pytest

from coalition_attr import (
    Explicit,
    Game,
    GameError,
    Uniform,
    WeightSystem,
    causal_orderings,
    dual_game,
    efficiency_gap,
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
from coalition_attr import allocations
from coalition_attr.allocations import MC_CHUNK, _equal_split
from coalition_attr.games import popcount_table
from conftest import (InlinePool, g3_fixture, random_game, reference_weight,
                      shapley_oracle, unanimity_game)


# ---------------------------------------------------------------- Shapley

def test_shapley_direct_reference(g2):
    assert np.allclose(shapley_direct(g2).payoffs, [1.5, 2.5], atol=1e-14)


def test_shapley_unanimity_pair():
    assert np.allclose(shapley_direct(unanimity_game(2, 0b11)).payoffs, [0.5, 0.5], atol=1e-14)


def test_shapley_dual_fixture_closed_form():
    for rho in (0.0, 0.3, 0.5, 0.9):
        w = dual_game(g3_fixture(rho))
        want = [0.5 * (1 - rho**2 / 2), 0.5, rho**2 / 4]
        assert np.allclose(shapley_direct(w).payoffs, want, atol=1e-12)


def test_shapley_matches_brute_force_oracle():
    rng = np.random.default_rng(20)
    for d in range(1, 7):
        g = random_game(d, rng)
        assert np.allclose(shapley_direct(g).payoffs, shapley_oracle(g), atol=1e-12)


def _shapley_masked_gather(g: Game) -> np.ndarray:
    """Reference: the boolean-mask gather over coalitions without each player."""
    d, v = g.d, g.values
    sizes = popcount_table(d)
    w = np.array([1.0 / (d * math.comb(d - 1, s)) for s in range(d)])
    payoffs = np.empty(d)
    masks = np.arange(1 << d)
    for j in range(d):
        bit = 1 << j
        without = masks[(masks & bit) == 0]
        payoffs[j] = np.dot(w[sizes[without]], v[without | bit] - v[without])
    return payoffs


def _equal_split_masked_gather(phi: np.ndarray, d: int) -> np.ndarray:
    """Reference: each player's shares gathered through a boolean mask."""
    share = phi / np.maximum(popcount_table(d), 1)
    masks = np.arange(1 << d)
    return np.array([np.sum(share[(masks & (1 << j)) != 0]) for j in range(d)])


@pytest.mark.parametrize("d", range(1, 13))
@pytest.mark.parametrize("scale, offset", [(1e-8, 0.0), (1.0, 0.0), (1e9, 0.0), (1.0, 1e8)])
def test_streaming_routes_match_masked_gathers(d, scale, offset):
    rng = np.random.default_rng(d)
    g = Game(d, offset + scale * rng.normal(size=1 << d))
    tol = 1e-14 * np.max(np.abs(g.values))
    assert np.max(np.abs(shapley_direct(g).payoffs - _shapley_masked_gather(g))) <= tol
    phi = g.values - offset  # any table stands in for dividends
    tol = 1e-14 * np.max(np.abs(phi))
    assert np.max(np.abs(_equal_split(phi, d) - _equal_split_masked_gather(phi, d))) <= tol


def _marginal_pass_per_player(g: Game, before, after=None) -> np.ndarray:
    """Reference: the per-player marginal pass with a fresh gain array per player."""
    payoffs = np.empty(g.d)
    for j in range(g.d):
        pairs = g.values.reshape(-1, 2, 1 << j)
        gain = pairs[:, 1] - pairs[:, 0]
        gain = gain * before.reshape(-1, 2, 1 << j)[:, 0]
        if after is not None:
            gain = gain * after.reshape(-1, 2, 1 << j)[:, 1]
        payoffs[j] = gain.sum()
    return payoffs


@pytest.mark.parametrize("d", [1, 2, 5, 9, 13])
def test_marginal_pass_with_one_buffer_is_the_per_player_pass_bit_for_bit(d):
    rng = np.random.default_rng(40 + d)
    g = Game(d, 1e8 * rng.normal(size=1 << d))
    by_size = np.array([1.0 / (d * math.comb(d - 1, s)) for s in range(d)] + [0.0])
    want = _marginal_pass_per_player(g, by_size[popcount_table(d)])
    assert shapley_direct(g).payoffs.tobytes() == want.tobytes()
    assert weber_allocate(g, Uniform()).payoffs.tobytes() == want.tobytes()
    p = causal_orderings(d, [(j, j + 1) for j in range(0, d - 1, 2)])
    want = _marginal_pass_per_player(g, p.reach_counts() / p.counts[0], p.counts)
    assert weber_allocate(g, p).payoffs.tobytes() == want.tobytes()


def test_shapley_direct_peaks_below_twice_the_table():
    # the size weights (one table) and one half-table buffer of gains
    g = Game(18, np.random.default_rng(8).normal(size=1 << 18))
    tracemalloc.start()
    try:
        shapley_direct(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * g.values.nbytes


def test_shapley_permutation_routes(g2):
    assert np.allclose(shapley_permutation(g2).payoffs, [1.5, 2.5], atol=1e-14)
    rng = np.random.default_rng(21)
    g = random_game(5, rng)
    assert np.max(np.abs(shapley_permutation(g).payoffs - shapley_direct(g).payoffs)) <= 1e-12


def test_shapley_permutation_unanimity_triple():
    a = shapley_permutation(unanimity_game(3, 0b111))
    assert np.allclose(a.payoffs, [1 / 3] * 3, atol=1e-14)


def test_shapley_dividends_routes(g2):
    assert np.allclose(shapley_dividends(g2).payoffs, [1.5, 2.5], atol=1e-14)
    t = shapley_dividends(unanimity_game(4, 0b0110))
    assert np.allclose(t.payoffs, [0, 0.5, 0.5, 0], atol=1e-14)
    rng = np.random.default_rng(22)
    g = random_game(6, rng)
    assert np.max(np.abs(shapley_dividends(g).payoffs - shapley_direct(g).payoffs)) <= 1e-12


def test_cross_route_equality_random():
    rng = np.random.default_rng(23)
    for d in range(1, 8):
        g = random_game(d, rng)
        routes = [
            shapley_direct(g).payoffs,
            shapley_permutation(g).payoffs,
            shapley_dividends(g).payoffs,
            harsanyi_allocate(g, WeightSystem("egalitarian")).payoffs,
            weber_allocate(g, Uniform()).payoffs,
        ]
        for a, b in itertools.combinations(routes, 2):
            assert np.max(np.abs(a - b)) <= 1e-10


def test_shapley_self_duality():
    rng = np.random.default_rng(24)
    for d in range(1, 7):
        g = random_game(d, rng)
        a = shapley_direct(g).payoffs
        b = shapley_direct(dual_game(g)).payoffs
        assert np.max(np.abs(a - b)) <= 1e-10


def test_dummy_player_gets_zero():
    # player 3 never changes any coalition's worth
    rng = np.random.default_rng(25)
    base = rng.normal(size=4)
    vals = np.array([base[m & 0b11] for m in range(8)])
    g = Game(3, vals)
    for p in (Uniform(), Explicit(((2, 0, 1),), (1.0,)), causal_orderings(3, [(0, 1)])):
        assert weber_allocate(g, p).payoffs[2] == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------- Weber

def test_weber_point_masses(g2):
    assert np.allclose(weber_allocate(g2, Explicit(((0, 1),), (1.0,))).payoffs, [1, 3])
    assert np.allclose(weber_allocate(g2, Explicit(((1, 0),), (1.0,))).payoffs, [2, 2])


def test_weber_uniform_is_shapley(g2):
    assert np.allclose(weber_allocate(g2, Uniform()).payoffs, shapley_direct(g2).payoffs,
                       atol=1e-14)


@pytest.mark.parametrize("d", [9, 10, 11, 12])
def test_weber_uniform_beyond_enumeration_is_shapley_bit_for_bit(d):
    g = random_game(d, np.random.default_rng(26 + d))
    assert np.array_equal(weber_allocate(g, Uniform()).payoffs, shapley_direct(g).payoffs)


def test_weber_dag_player_count_mismatch():
    with pytest.raises(GameError, match="player count mismatch"):
        weber_allocate(random_game(3, np.random.default_rng(0)), causal_orderings(4, [(0, 1)]))


def test_weber_efficiency_arbitrary_pmf():
    rng = np.random.default_rng(27)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        g = random_game(d, rng)
        perms = list(itertools.permutations(range(d)))
        k = int(rng.integers(1, len(perms) + 1))
        chosen = [perms[i] for i in rng.choice(len(perms), size=k, replace=False)]
        probs = rng.dirichlet(np.ones(k))
        p = Explicit(tuple(chosen), tuple(probs))
        assert abs(efficiency_gap(g, weber_allocate(g, p))) <= 1e-10


def test_weber_linearity_in_game():
    rng = np.random.default_rng(28)
    p = Explicit(((0, 1, 2), (2, 1, 0)), (0.3, 0.7))
    ga, gb = random_game(3, rng), random_game(3, rng)
    combo = Game(3, 2.0 * ga.values - 3.0 * gb.values)
    want = 2.0 * weber_allocate(ga, p).payoffs - 3.0 * weber_allocate(gb, p).payoffs
    assert np.allclose(weber_allocate(combo, p).payoffs, want, atol=1e-12)


def test_marginal_vector_of_one_order_and_of_a_stack():
    g = g3_fixture(0.5)  # worths 0, 1/2, 1/2, 1, 1/8, 1/2, 5/8, 1: every difference exact
    orders = np.array([(0, 1, 2), (2, 0, 1), (1, 2, 0)])
    # (2, 0, 1): v({3}) = 1/8, then v({1, 3}) - v({3}) = 3/8, then v(D) - v({1, 3}) = 1/2
    want = np.array([[0.5, 0.5, 0.0], [0.375, 0.5, 0.125], [0.375, 0.5, 0.125]])
    stack = marginal_vector(g, orders)
    assert stack.shape == (3, 3) and np.array_equal(stack, want)
    one = marginal_vector(g, orders[1])
    assert one.shape == (3,) and np.array_equal(one, want[1])


def test_a_stack_row_is_its_order_bit_for_bit():
    rng = np.random.default_rng(32)
    g = random_game(9, rng)
    orders = np.array([rng.permutation(9) for _ in range(50)])
    stack = marginal_vector(g, orders)
    assert all(np.array_equal(marginal_vector(g, o), row) for o, row in zip(orders, stack))


@pytest.mark.parametrize("route", ["weber-pmf", "shapley-perm", "weber-mc-1", "weber-mc-2"])
def test_every_order_route_runs_the_one_kernel(monkeypatch, route):
    g = random_game(5, np.random.default_rng(33))
    pmf = Explicit(((0, 1, 2, 3, 4), (4, 3, 2, 1, 0), (2, 0, 4, 1, 3)), (0.2, 0.3, 0.5))
    run, sizes = {
        "weber-pmf": (lambda: weber_allocate(g, pmf), [3]),
        "shapley-perm": (lambda: shapley_permutation(g), [120]),
        "weber-mc-1": (lambda: weber_monte_carlo(g, Uniform(), 3000, seed=5), [952, 1024, 1024]),
        "weber-mc-2": (lambda: weber_monte_carlo(g, Uniform(), 3000, seed=5, threads=2),
                       [952, 1024, 1024]),
    }[route]
    want = run()
    kernel, calls = allocations.marginal_vector, []
    monkeypatch.setattr(allocations, "marginal_vector",
                        lambda g, orders: calls.append(len(orders)) or kernel(g, orders))
    got = run()
    assert sorted(calls) == sizes
    assert np.array_equal(got.payoffs, want.payoffs)
    if want.stderr is not None:
        assert np.array_equal(got.stderr, want.stderr)


def test_telescoping_every_permutation():
    rng = np.random.default_rng(29)
    for d in range(1, 7):
        g = random_game(d, rng)
        span = g.v_full - g.v_empty
        for order in itertools.permutations(range(d)):
            assert abs(np.sum(marginal_vector(g, order)) - span) <= 1e-12


def test_weber_causal_dag_allocation():
    g = g3_fixture(0.5)
    p = causal_orderings(3, [(0, 1)])
    a = weber_allocate(g, p)
    # oracle: plain average over the three orderings with player 1 before 2
    orders = [(0, 1, 2), (0, 2, 1), (2, 0, 1)]
    want = np.mean(marginal_vector(g, orders), axis=0)
    assert np.allclose(a.payoffs, want, atol=1e-14)
    assert abs(efficiency_gap(g, a)) <= 1e-10


# ---------------------------------------------------------------- Monte Carlo

def test_weber_mc_close_to_exact(g2):
    a = weber_monte_carlo(g2, Uniform(), 10_000, seed=42)
    exact = shapley_direct(g2).payoffs
    assert np.all(np.abs(a.payoffs - exact) <= 3 * a.stderr + 1e-12)


def test_weber_mc_point_mass_exact(g2):
    a = weber_monte_carlo(g2, Explicit(((1, 0),), (1.0,)), 100, seed=0)
    assert np.allclose(a.payoffs, [2, 2], atol=1e-14)
    assert np.allclose(a.stderr, 0.0, atol=1e-14)


def test_weber_mc_deterministic(g2):
    a = weber_monte_carlo(g2, Uniform(), 5000, seed=9)
    b = weber_monte_carlo(g2, Uniform(), 5000, seed=9)
    assert np.array_equal(a.payoffs, b.payoffs)
    assert np.array_equal(a.stderr, b.stderr)


def test_weber_mc_serial_vs_parallel_bit_identical(monkeypatch):
    monkeypatch.setattr(allocations.os, "cpu_count", lambda: 4)  # threads on any machine
    rng = np.random.default_rng(30)
    g = random_game(6, rng)
    a = weber_monte_carlo(g, Uniform(), 10_000, seed=123, threads=1)
    b = weber_monte_carlo(g, Uniform(), 10_000, seed=123, threads=4)
    assert np.array_equal(a.payoffs, b.payoffs)
    assert np.array_equal(a.stderr, b.stderr)


@pytest.mark.parametrize("dist", ["pmf", "dag"])
def test_weber_mc_threads_bit_identical_for_non_uniform_orders(monkeypatch, dist):
    monkeypatch.setattr(allocations.os, "cpu_count", lambda: 2)  # threads on any machine
    rng = np.random.default_rng(31)
    g = random_game(6, rng)
    if dist == "pmf":
        orders = tuple({tuple(rng.permutation(6).tolist()) for _ in range(50)})
        p = Explicit(orders, tuple(rng.dirichlet(np.ones(len(orders))).tolist()))
    else:
        p = causal_orderings(6, [(0, 2), (1, 2), (2, 5), (3, 4)])
    a = weber_monte_carlo(g, p, 5000, seed=8, threads=1)
    b = weber_monte_carlo(g, p, 5000, seed=8, threads=2)
    assert np.array_equal(a.payoffs, b.payoffs)
    assert np.array_equal(a.stderr, b.stderr)


def test_weber_mc_stderr_survives_large_worths():
    # worths near 1e9 * |S| with unit-scale spread: a raw sum of squares
    # cancels away the whole variance here
    rng = np.random.default_rng(41)
    d, n = 4, 20_000
    sizes = np.array([bin(m).count("1") for m in range(1 << d)])
    g = Game(d, 1e9 * sizes + rng.normal(size=1 << d))
    mv = marginal_vector(g, list(itertools.permutations(range(d))))
    exact = np.sqrt(mv.var(axis=0) / n)
    a = weber_monte_carlo(g, Uniform(), n, seed=3)
    assert np.allclose(a.stderr, exact, rtol=0.1)


@pytest.mark.parametrize("threads, n, cpus, want", [
    (100_000, 5000, 8, [5]),            # one worker per chunk at most
    (100_000, 10 * MC_CHUNK, 3, [3]),   # one worker per CPU at most
    (2, 10 * MC_CHUNK, 2, [2]),
    (2, MC_CHUNK, 2, []),               # one chunk: no pool
    (4, 10 * MC_CHUNK, None, []),       # an unknown CPU count counts as one
])
def test_weber_mc_pool_is_capped_by_chunks_and_cpus(monkeypatch, threads, n, cpus, want):
    g = random_game(4, np.random.default_rng(34))
    serial = weber_monte_carlo(g, Uniform(), n, seed=6)
    sizes = []
    monkeypatch.setattr(allocations, "ThreadPoolExecutor",
                        lambda max_workers: sizes.append(max_workers) or InlinePool())
    monkeypatch.setattr(allocations.os, "cpu_count", lambda: cpus)
    a = weber_monte_carlo(g, Uniform(), n, seed=6, threads=threads)
    assert sizes == want
    assert np.array_equal(a.payoffs, serial.payoffs)
    assert np.array_equal(a.stderr, serial.stderr)


def test_weber_mc_rejects_tiny_n(g2):
    with pytest.raises(GameError):
        weber_monte_carlo(g2, Uniform(), 1, seed=0)


def test_weber_mc_partial_order(g2):
    p = causal_orderings(2, [(1, 0)])  # player 2 always first
    a = weber_monte_carlo(g2, p, 500, seed=5)
    assert np.allclose(a.payoffs, [2, 2], atol=1e-14)


# ---------------------------------------------------------------- Harsanyi

def test_harsanyi_egalitarian_is_shapley(g2):
    a = harsanyi_allocate(g2, WeightSystem("egalitarian"))
    assert np.allclose(a.payoffs, [1.5, 2.5], atol=1e-14)


def test_harsanyi_min_owner(g2):
    a = harsanyi_allocate(g2, WeightSystem("min-owner"))
    assert np.allclose(a.payoffs, [2.0, 2.0], atol=1e-14)


def test_harsanyi_rejects_bad_row_sum(g2):
    w = WeightSystem("custom", {(0, 1): 1.0, (1, 2): 1.0, (0, 3): 0.4, (1, 3): 0.5})
    with pytest.raises(GameError, match="sum"):
        harsanyi_allocate(g2, w)


def test_harsanyi_rejects_support_outside_coalition(g2):
    with pytest.raises(GameError, match="outside"):
        WeightSystem("custom", {(1, 1): 1.0})


def test_harsanyi_rejects_negative_weight():
    with pytest.raises(GameError, match="negative"):
        WeightSystem("custom", {(0, 1): -0.5})


def test_harsanyi_efficiency_random_weight_systems():
    rng = np.random.default_rng(31)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        g = random_game(d, rng)
        entries = {}
        for mask in range(1, 1 << d):
            ms = [j for j in range(d) if (mask >> j) & 1]
            w = rng.dirichlet(np.ones(len(ms)))
            for j, wj in zip(ms, w):
                entries[(j, mask)] = float(wj)
        a = harsanyi_allocate(g, WeightSystem("custom", entries))
        assert abs(efficiency_gap(g, a)) <= 1e-10


def test_harsanyi_linearity_in_game():
    rng = np.random.default_rng(32)
    ga, gb = random_game(4, rng), random_game(4, rng)
    w = WeightSystem("min-owner")
    combo = Game(4, 0.5 * ga.values + 2.0 * gb.values)
    want = 0.5 * harsanyi_allocate(ga, w).payoffs + 2.0 * harsanyi_allocate(gb, w).payoffs
    assert np.allclose(harsanyi_allocate(combo, w).payoffs, want, atol=1e-12)


def test_weight_system_json():
    w = WeightSystem.from_json('{"preset":"egalitarian"}')
    assert reference_weight(w, 0, 0b11) == pytest.approx(0.5)
    w2 = WeightSystem.from_json('{"entries":[{"player":1,"coalition":1,"w":1.0}]}')
    assert w2.entries == {(0, 1): 1.0}
    assert reference_weight(w2, 0, 1) == 1.0
    assert w2.preset == "custom"


@pytest.mark.parametrize("d, preset, entries, players, masks, delta", [
    (3, "egalitarian", {(0, 3): 0.7, (1, 3): 0.3}, [0, 1], [3, 3], [0.7 - 0.5, 0.3 - 0.5]),
    (3, "min-owner", {(0, 6): 0.0, (1, 6): 0.5, (2, 6): 0.5}, [0, 1, 2], [6, 6, 6],
     [0.0, -0.5, 0.5]),
    (2, "custom", {(0, 1): 1.0, (1, 2): 1.0, (0, 3): 0.4, (1, 3): 0.6}, [0, 1, 0, 1],
     [1, 2, 3, 3], [1.0, 1.0, 0.4, 0.6]),
    (3, "egalitarian", {}, [], [], []),
])
def test_validate_returns_the_entries_as_corrections_to_the_preset(d, preset, entries, players,
                                                                      masks, delta):
    got = WeightSystem(preset, entries).validate(d)
    assert [a.dtype for a in got] == [np.int64, np.int64, np.float64]
    assert got[0].tolist() == players and got[1].tolist() == masks
    assert got[2].tolist() == delta


def test_harsanyi_converts_the_entries_once(g2, monkeypatch):
    calls = []
    validate = WeightSystem.validate
    monkeypatch.setattr(WeightSystem, "validate",
                        lambda self, d: calls.append(d) or validate(self, d))
    w = WeightSystem("egalitarian", {(0, 3): 0.25, (1, 3): 0.75})
    assert harsanyi_allocate(g2, w).payoffs.tolist() == [1.0 + 0.25 * 1.0, 2.0 + 0.75 * 1.0]
    assert calls == [2]


def test_first_bad_weight_entry_in_input_order_is_named():
    # entry 1 lies outside its coalition, entry 2 is negative: entry 1 is named
    with pytest.raises(GameError, match=r"^nonzero weight for player 2 outside \{1\}$"):
        WeightSystem("custom", {(1, 1): 0.5, (0, 1): -0.5})
    with pytest.raises(GameError, match=r"^negative weight for player 1 on \{1\}$"):
        WeightSystem("custom", {(0, 1): -0.5, (1, 1): 0.5})


def test_weight_entry_beyond_the_game_is_named_with_the_player_count(g2):
    w = WeightSystem("custom", {(2, 1): 0.0})
    with pytest.raises(GameError, match=r"^weight entry \(player 3, coalition 1\) is out of "
                                        r"range for 2 players$"):
        harsanyi_allocate(g2, w)
    w = WeightSystem("egalitarian", {(19, 10**19): 0.5})  # past int64, checked as a Python int
    with pytest.raises(GameError, match=r"^weight entry \(player 20, coalition "
                                        r"10000000000000000000\) is out of range for 2 players$"):
        harsanyi_allocate(g2, w)


@pytest.mark.parametrize("preset, entries, message", [
    ("custom", {(0, 1): 1.0, (1, 2): 1.0, (0, 3): 0.4, (1, 3): 0.5},
     "weights on {1,2} sum to 0.9, expected 1"),
    ("egalitarian", {(0, 3): 0.7}, "weights on {1,2} sum to 1.2, expected 1"),
    ("min-owner", {(1, 2): 0.5}, "weights on {2} sum to 0.5, expected 1"),
    ("custom", {(0, 1): 1.0}, "weights on {2} sum to 0.0, expected 1"),
])
def test_weight_sum_message_names_the_coalition_and_its_total(g2, preset, entries, message):
    with pytest.raises(GameError) as err:
        harsanyi_allocate(g2, WeightSystem(preset, entries))
    assert str(err.value) == message


# ---------------------------------------------------------------- proportional

def test_proportional_value_two_player(g2):
    a = proportional_value(g2)
    assert np.allclose(a.payoffs, [4 / 3, 8 / 3], atol=1e-14)


def test_proportional_value_symmetric_game():
    vals = np.array([0.7, 1.0, 1.0, 2.0, 1.0, 2.0, 2.0, 4.2])
    g = Game(3, vals)
    assert np.allclose(proportional_value(g).payoffs, [1.4, 1.4, 1.4], atol=1e-12)


def test_proportional_value_rejects_nonpositive():
    g = Game(2, np.array([0.0, 1.0, 0.0, 2.0]))
    with pytest.raises(GameError, match=r"\{2\}"):
        proportional_value(g)


def test_proportional_value_efficient_at_top_level():
    rng = np.random.default_rng(33)
    for d in range(1, 7):
        g = random_game(d, rng, positive=True)
        a = proportional_value(g)
        assert np.sum(a.payoffs) == pytest.approx(g.v_full, abs=1e-10)


def _restrict(g: Game, keep: list[int]) -> Game:
    """Subgame on the players in `keep`, relabeled 0..len(keep)-1."""
    vals = np.empty(1 << len(keep))
    for m in range(1 << len(keep)):
        full_m = sum(1 << keep[i] for i in range(len(keep)) if (m >> i) & 1)
        vals[m] = g.values[full_m]
    return Game(len(keep), vals)


def test_proportional_value_ratio_preservation():
    # defining property: phi_i(D)/phi_j(D) = phi_i(D\{j}) / phi_j(D\{i}),
    # checked against independently computed subgames
    rng = np.random.default_rng(34)
    for d in (3, 4):
        g = random_game(d, rng, positive=True)
        full = proportional_value(g).payoffs
        for i in range(d):
            for j in range(d):
                if i == j:
                    continue
                keep_i = [k for k in range(d) if k != j]
                keep_j = [k for k in range(d) if k != i]
                phi_i = proportional_value(_restrict(g, keep_i)).payoffs[keep_i.index(i)]
                phi_j = proportional_value(_restrict(g, keep_j)).payoffs[keep_j.index(j)]
                assert full[i] / full[j] == pytest.approx(phi_i / phi_j, rel=1e-10)


# ---------------------------------------------------------------- pme

def test_pme_fixture_values():
    for rho in (0.0, 0.5):
        a = pme(g3_fixture(rho))
        assert np.allclose(a.payoffs, [0.5, 0.5, 0.0], atol=1e-12)
        assert a.method == "pme"


def test_pme_strictly_positive_dual_is_exact_pv():
    rng = np.random.default_rng(35)
    vals = np.sort(rng.uniform(0.5, 1.0, 16))  # monotone game: dual positive
    g = Game(4, vals)
    w = dual_game(g)
    assert np.all(w.values[1:] > 0)
    assert np.array_equal(pme(g).payoffs, proportional_value(w).payoffs)


def test_pme_rejects_negative_dual():
    g = Game(2, np.array([0.0, 1.0, 5.0, 2.0]))  # w({1}) = 2 - 5 < 0
    with pytest.raises(GameError, match="negative"):
        pme(g)
