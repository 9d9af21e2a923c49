import itertools
import math

import numpy as np
import pytest

from coalition_attr import (
    Explicit,
    GameError,
    PartialOrderUniform,
    SupportTooLargeError,
    Uniform,
    causal_orderings,
)


def test_uniform_expand():
    pairs = Uniform().expand(3)
    assert len(pairs) == 6
    assert all(p == pytest.approx(1 / 6) for _, p in pairs)
    assert {o for o, _ in pairs} == set(itertools.permutations(range(3)))


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_explicit_rejects_non_finite_probability(bad):
    with pytest.raises(GameError, match=r"probability outside \[0, 1\]"):
        Explicit(((0, 1), (1, 0)), (bad, 1.0))


def test_explicit_canonical_order():
    e = Explicit(((1, 0), (0, 1)), (0.25, 0.75))
    assert e.orders == ((0, 1), (1, 0))
    assert e.probs == (0.75, 0.25)


def test_explicit_json_one_indexed():
    e = Explicit.from_json('[{"order":[2,1,3],"p":0.5},{"order":[1,2,3],"p":0.5}]')
    assert (1, 0, 2) in e.orders


def test_empty_dag_is_uniform_over_all_orders():
    p = causal_orderings(3, [])
    exts = list(p.enumerate_extensions())
    assert len(exts) == 6
    assert set(exts) == set(itertools.permutations(range(3)))


def test_single_edge_extensions():
    p = causal_orderings(3, [(0, 1)])
    exts = set(p.enumerate_extensions())
    assert exts == {pi for pi in itertools.permutations(range(3)) if pi.index(0) < pi.index(1)}
    assert p.num_extensions() == 3


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
    n_ext = p.num_extensions()
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
    pairs = p.expand(5)
    assert len(pairs) == p.num_extensions()
    assert sum(q for _, q in pairs) == pytest.approx(1.0)


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
        assert p.num_extensions() == n_ext


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
        assert p.num_extensions() == len(want)


def test_partial_order_rejects_cycles_and_too_many_players():
    with pytest.raises(GameError, match="cycle"):
        PartialOrderUniform(3, (0b100, 0b001, 0b010))
    with pytest.raises(GameError, match="at most 20"):
        PartialOrderUniform(21, (0,) * 21)
