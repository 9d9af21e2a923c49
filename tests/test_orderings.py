import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalition_attr import (
    Explicit,
    GameError,
    PartialOrderUniform,
    SupportTooLargeError,
    Uniform,
    causal_orderings,
)
from coalition_attr.games import layers


@pytest.mark.parametrize("d", range(1, 9))
def test_uniform_expand(d):
    # the oracle: every permutation, in lexicographic order
    want = np.array(list(itertools.permutations(range(d))))
    orders, probs = Uniform().expand(d)
    assert orders.dtype == np.int64 and np.array_equal(orders, want)
    assert np.all(probs == 1.0 / math.factorial(d)) and probs.shape == (len(want),)
    dag_orders, dag_probs = causal_orderings(d, []).expand(d)
    assert np.array_equal(dag_orders, orders) and np.array_equal(dag_probs, probs)


def test_uniform_expand_too_large():
    with pytest.raises(SupportTooLargeError, match="Monte Carlo"):
        Uniform().expand(9)


def test_explicit_validation():
    with pytest.raises(GameError):
        Explicit(((0, 1),), (0.9,))  # not normalized
    with pytest.raises(GameError):
        Explicit(((0, 0),), (1.0,))  # not a permutation
    with pytest.raises(GameError):
        Explicit(((0, 1), (0, 1)), (0.5, 0.5))  # duplicate
    with pytest.raises(GameError):
        Explicit(((0, 1), (1, 0)), (1.5, -0.5))  # negative
    with pytest.raises(GameError, match="nonempty orders"):
        Explicit(((),), (1.0,))  # an order of no players


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_explicit_rejects_non_finite_probability(bad):
    with pytest.raises(GameError, match=r"probability outside \[0, 1\]"):
        Explicit(((0, 1), (1, 0)), (bad, 1.0))


def test_explicit_canonical_order():
    e = Explicit(((1, 0), (0, 1)), (0.25, 0.75))
    assert e.orders.tolist() == [[0, 1], [1, 0]] and e.probs.tolist() == [0.75, 0.25]


def test_explicit_holds_one_read_only_array_pair_whatever_the_input_order():
    rng = np.random.default_rng(4)
    orders = list({tuple(rng.permutation(5).tolist()) for _ in range(30)})
    probs = rng.dirichlet(np.ones(len(orders))).tolist()
    p = Explicit(tuple(orders), tuple(probs))
    # the oracle: the sorted (order, probability) pairs
    want = sorted(zip(orders, probs))
    assert p.orders.dtype == np.int64 and p.probs.dtype == np.float64
    assert p.orders.tolist() == [list(o) for o, _ in want]
    assert p.probs.tolist() == [q for _, q in want]
    assert not p.orders.flags.writeable and not p.probs.flags.writeable
    assert p.expand(5)[0] is p.orders and p.expand(5)[1] is p.probs
    for k in range(3):
        shuffled = rng.permutation(len(orders))
        q = Explicit(tuple(orders[i] for i in shuffled), tuple(probs[i] for i in shuffled))
        assert np.array_equal(q.orders, p.orders) and np.array_equal(q.probs, p.probs)
        assert np.array_equal(q.sample(5, np.random.default_rng(k), 200),
                              p.sample(5, np.random.default_rng(k), 200))


@pytest.mark.parametrize("orders, name", [
    (((0, 1), (0,)), r"\(0,\)"),
    (((0, 1, 2), (1, 0)), r"\(1, 0\)"),
    (((0, 0), (0, 1)), r"\(0, 0\)"),
], ids=["shorter-row", "longer-first-row", "repeated-player"])
def test_explicit_names_the_invalid_ordering(orders, name):
    with pytest.raises(GameError, match="invalid ordering " + name):
        Explicit(orders, (0.5, 0.5))


def test_explicit_json_one_indexed():
    e = Explicit.from_json('[{"order":[2,1,3],"p":0.5},{"order":[1,2,3],"p":0.5}]')
    assert [1, 0, 2] in e.orders.tolist()


def test_empty_dag_is_uniform_over_all_orders():
    p = causal_orderings(3, [])
    exts = list(p.enumerate_extensions())
    assert len(exts) == 6
    assert set(exts) == set(itertools.permutations(range(3)))


def test_single_edge_extensions():
    p = causal_orderings(3, [(0, 1)])
    exts = set(p.enumerate_extensions())
    assert exts == {pi for pi in itertools.permutations(range(3)) if pi.index(0) < pi.index(1)}
    assert int(p.counts[0]) == 3


def test_total_chain_point_mass():
    p = causal_orderings(3, [(0, 1), (1, 2)])
    assert list(p.enumerate_extensions()) == [(0, 1, 2)]


def test_cycle_detected():
    with pytest.raises(GameError, match="cycle"):
        causal_orderings(3, [(0, 1), (1, 2), (2, 0)])


def test_transitive_constraint_respected():
    # 0 -> 1 -> 2 forces 0 before 2 even without a direct edge
    p = causal_orderings(4, [(0, 1), (1, 2)])
    for pi in p.enumerate_extensions():
        assert pi.index(0) < pi.index(1) < pi.index(2)


def test_partial_order_sampling_is_uniform():
    p = causal_orderings(4, [(0, 1)])
    n_ext = int(p.counts[0])
    assert n_ext == 12
    rng = np.random.default_rng(11)
    counts = {}
    n = 24000
    for pi in map(tuple, p.sample(4, rng, n).tolist()):
        counts[pi] = counts.get(pi, 0) + 1
    assert set(counts) == set(p.enumerate_extensions())
    # each extension should appear ~n/12; 5 sigma binomial band
    expect = n / n_ext
    sigma = math.sqrt(n * (1 / n_ext) * (1 - 1 / n_ext))
    for c in counts.values():
        assert abs(c - expect) < 5 * sigma


def test_expand_matches_counts():
    p = causal_orderings(5, [(0, 2), (1, 2), (2, 3)])
    orders, probs = p.expand(5)
    assert orders.shape == (int(p.counts[0]), 5) and probs.shape == (int(p.counts[0]),)
    assert probs.sum() == pytest.approx(1.0)
    assert list(map(tuple, orders.tolist())) == list(p.enumerate_extensions())


def test_reach_counts_are_the_orders_of_each_down_set():
    p = causal_orderings(4, [(0, 1), (0, 2), (2, 3)])
    f = p.reach_counts()
    for mask in range(16):
        sub = [j for j in range(4) if (mask >> j) & 1]
        down_set = all(p.pred_masks[j] & ~mask == 0 for j in sub)
        respecting = sum(all(pi.index(u) < pi.index(v) for u in sub for v in sub
                             if (p.pred_masks[v] >> u) & 1)
                         for pi in itertools.permutations(sub))
        assert f[mask] == (respecting if down_set else 0)


def test_partial_order_validation():
    with pytest.raises(GameError):
        PartialOrderUniform(2, (0b10, 0b01))  # two-cycle
    with pytest.raises(GameError):
        causal_orderings(2, [(0, 5)])


def _ready_oracle(pred_masks, placed):
    return [j for j in range(len(pred_masks))
            if not (placed >> j) & 1 and pred_masks[j] & ~placed == 0]


def _dag_walk_oracle(p, rng, m):
    """Single-draw reference sampler: m separate walks down the down-set
    lattice, each step a choice weighted by dict-memoised completion counts."""
    counts = {(1 << p.d) - 1: 1}

    def count(placed):
        if placed not in counts:
            counts[placed] = sum(count(placed | (1 << j))
                                 for j in _ready_oracle(p.pred_masks, placed))
        return counts[placed]

    count(0)
    draws = []
    for _ in range(m):
        placed, order = 0, []
        for _ in range(p.d):
            ready = _ready_oracle(p.pred_masks, placed)
            weights = np.array([counts[placed | (1 << j)] for j in ready], dtype=float)
            j = ready[int(rng.choice(len(ready), p=weights / weights.sum()))]
            order.append(j)
            placed |= 1 << j
        draws.append(order)
    return np.array(draws, dtype=np.int64).reshape(m, p.d), counts[0]


def _random_dag(rng, d):
    perm = rng.permutation(d)
    pairs = [(int(perm[a]), int(perm[b])) for a in range(d) for b in range(a + 1, d)]
    keep = rng.random(len(pairs)) < rng.uniform(0.0, 0.5)
    return [e for e, k in zip(pairs, keep) if k]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_batched_dag_sampling_matches_single_draw_walk(seed):
    rng = np.random.default_rng(seed)
    for d in range(1, 11):
        p = causal_orderings(d, _random_dag(rng, d))
        want, n_ext = _dag_walk_oracle(p, np.random.default_rng([seed, d]), 150)
        got = p.sample(d, np.random.default_rng([seed, d]), 150)
        assert got.dtype == np.int64
        assert np.array_equal(got, want), d
        assert int(p.counts[0]) == n_ext


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_batched_pmf_sampling_matches_single_choices(seed):
    rng = np.random.default_rng(seed)
    orders = {tuple(rng.permutation(6).tolist()) for _ in range(40)}
    probs = rng.dirichlet(np.ones(len(orders)))
    p = Explicit(tuple(orders), tuple(probs.tolist()))
    one = np.random.default_rng(seed + 100)
    want = [p.orders[int(one.choice(len(p.orders), p=np.asarray(p.probs)))] for _ in range(500)]
    assert np.array_equal(p.sample(6, np.random.default_rng(seed + 100), 500), want)


def test_enumeration_is_lexicographic_over_random_dags():
    rng = np.random.default_rng(7)
    for d in range(1, 8):
        edges = _random_dag(rng, d)
        want = [pi for pi in itertools.permutations(range(d))
                if all(pi.index(u) < pi.index(w) for u, w in edges)]
        p = causal_orderings(d, edges)
        assert list(p.enumerate_extensions()) == want
        assert int(p.counts[0]) == len(want)


def test_partial_order_rejects_cycles_and_too_many_players():
    with pytest.raises(GameError, match="cycle"):
        PartialOrderUniform(3, (0b100, 0b001, 0b010))
    with pytest.raises(GameError, match="at most 20"):
        PartialOrderUniform(21, (0,) * 21)


# References for the down-set walk: the all-mask count table and the per-draw
# sampler it replaced, kept verbatim apart from taking the DAG as arguments.

def _reference_ready(d, pred_masks, placed):
    p = placed[:, None]
    preds = np.array(pred_masks, dtype=np.int64)
    return ((p >> np.arange(d)) & 1 == 0) & (preds & ~p == 0)


def _reference_counts(d, pred_masks):
    """Completion counts of every mask below 2^d, by a (mask x d) gather walk."""
    bits = 1 << np.arange(d, dtype=np.int64)
    counts = np.zeros(1 << d, dtype=np.int64)
    counts[-1] = 1
    # the grand coalition's block is the last; blocks bound the (masks x d) temporaries
    for masks in reversed(layers(d)[:-1]):
        above = np.where(_reference_ready(d, pred_masks, masks), counts[masks[:, None] | bits], 0)
        counts[masks] = above.sum(axis=1)
    return counts


def _reference_sample(d, pred_masks, counts, rng, m):
    """One cdf per draw and step, from the all-mask table."""
    u = rng.random((m, d))
    bits = 1 << np.arange(d, dtype=np.int64)
    orders = np.empty((m, d), dtype=np.int64)
    placed = np.zeros(m, dtype=np.int64)
    for t in range(d):
        weights = np.where(_reference_ready(d, pred_masks, placed),
                           counts[placed[:, None] | bits], 0)
        cdf = np.cumsum(weights / counts[placed][:, None], axis=1)
        cdf /= cdf[:, -1:]
        orders[:, t] = np.sum(cdf <= u[:, t, None], axis=1)
        placed |= bits[orders[:, t]]
    return orders


def _is_down_set(d, pred_masks):
    """Flags over every mask below 2^d: each member's predecessors are in it."""
    masks = np.arange(1 << d)[:, None]
    preds = np.array(pred_masks, dtype=np.int64)
    return np.all(((masks >> np.arange(d)) & 1 == 0) | (preds & ~masks == 0), axis=1)


def _dag(kind, d, density, seed):
    rng = np.random.default_rng(seed)
    perm = [int(j) for j in rng.permutation(d)]
    if kind == "edgeless":
        return []
    if kind == "chain":
        return list(zip(perm, perm[1:]))
    pairs = [(perm[a], perm[b]) for a in range(d) for b in range(a + 1, d)]
    return [e for e, k in zip(pairs, rng.random(len(pairs)) < density) if k]


def _assert_matches_reference(d, edges, seed, m):
    p = causal_orderings(d, edges)
    want = _reference_counts(d, p.pred_masks)
    assert int(p.counts[0]) == int(want[0])
    # only the down-sets are counted; the sampler reads nothing else
    assert np.array_equal(p.counts, np.where(_is_down_set(d, p.pred_masks), want, 0))
    got = p.sample(d, np.random.default_rng(seed), m)
    assert np.array_equal(got, _reference_sample(d, p.pred_masks, want,
                                                 np.random.default_rng(seed), m))


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 12), st.sampled_from(["edgeless", "chain", "random"]),
       st.floats(0.0, 1.0), st.integers(0, 2**32 - 1), st.sampled_from([1, 7, 1500]))
def test_down_set_walk_matches_the_all_mask_reference(d, kind, density, seed, m):
    _assert_matches_reference(d, _dag(kind, d, density, seed), seed, m)


@pytest.mark.parametrize("d, seed", [(16, 1), (16, 2), (20, 3)])
def test_down_set_walk_matches_the_reference_with_d_random_edges(d, seed):
    rng = np.random.default_rng(seed)
    perm = [int(j) for j in rng.permutation(d)]
    pairs = [(perm[a], perm[b]) for a in range(d) for b in range(a + 1, d)]
    edges = [pairs[i] for i in rng.choice(len(pairs), size=d, replace=False)]
    _assert_matches_reference(d, edges, seed, 1024)


@pytest.mark.parametrize("d, edges", [
    (2, [(0, 1), (1, 0)]),
    (5, [(0, 1), (1, 2), (2, 3), (3, 1)]),
    (16, [(j, j + 1) for j in range(15)] + [(15, 0)]),
    (20, [(3, 17), (17, 9), (9, 3)]),
])
def test_cycles_still_raise(d, edges):
    with pytest.raises(GameError, match="^cycle"):
        causal_orderings(d, edges)


def _peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_count_table_peaks_below_the_all_mask_walk():
    rng = np.random.default_rng(4)
    perm = [int(j) for j in rng.permutation(20)]
    pairs = [(perm[a], perm[b]) for a in range(20) for b in range(a + 1, 20)]
    edges = [pairs[i] for i in rng.choice(len(pairs), size=20, replace=False)]
    # the all-mask walk peaks near 26 MiB at d=20, whatever the DAG
    reference = _peak(lambda: _reference_counts(20, (0,) * 20))
    assert _peak(lambda: causal_orderings(20, edges)) < reference / 2
    assert _peak(lambda: causal_orderings(20, [])) <= reference
