import tracemalloc

import numpy as np
import pytest

from coalition_attr import (
    DividendTable,
    Game,
    dividends_fast,
    dividends_recursive,
    zeta_reconstruct,
)
from conftest import g3_fixture, random_game, unanimity_game


def test_recursive_reference(g2):
    t = dividends_recursive(g2)
    assert list(t.dividends) == [0.0, 1.0, 2.0, 1.0]


def test_recursive_additive_game():
    c = np.array([1.5, -2.0, 0.25])
    g = Game(3, np.array([sum(c[j] for j in range(3) if (m >> j) & 1) for m in range(8)]))
    t = dividends_recursive(g)
    for m in range(8):
        if m.bit_count() == 1:
            assert t.dividends[m] == pytest.approx(c[m.bit_length() - 1], abs=1e-14)
        elif m.bit_count() >= 2:
            assert t.dividends[m] == pytest.approx(0.0, abs=1e-14)


def test_recursive_unanimity():
    t = dividends_recursive(unanimity_game(3, 0b011))
    want = np.zeros(8)
    want[0b011] = 1.0
    assert np.allclose(t.dividends, want, atol=1e-15)


def test_fast_matches_recursive(g2):
    assert np.array_equal(dividends_fast(g2).dividends, dividends_recursive(g2).dividends)


def test_fast_single_player():
    g = Game(1, np.array([0.3, 1.7]))
    t = dividends_fast(g)
    assert t.dividends[1] == pytest.approx(1.7 - 0.3, abs=1e-15)
    assert t.dividends[0] == pytest.approx(0.3)


def test_fast_full_unanimity():
    t = dividends_fast(unanimity_game(3, 0b111))
    want = np.zeros(8)
    want[0b111] = 1.0
    assert np.allclose(t.dividends, want, atol=1e-15)


def test_fast_equals_recursive_random():
    rng = np.random.default_rng(3)
    for d in range(1, 11):
        g = random_game(d, rng)
        a = dividends_fast(g).dividends
        b = dividends_recursive(g).dividends
        scale = max(1.0, np.max(np.abs(a)))
        assert np.max(np.abs(a - b)) / scale <= 1e-12


def test_zeta_roundtrip(g2):
    assert np.allclose(zeta_reconstruct(dividends_fast(g2)).values, g2.values, atol=1e-15)


def test_zeta_of_point_mass_is_unanimity():
    div = np.zeros(8)
    div[0b101] = 1.0
    g = zeta_reconstruct(DividendTable(3, div))
    assert np.array_equal(g.values, unanimity_game(3, 0b101).values)


def test_dividend_sum_is_grand_worth_on_fixture():
    t = dividends_fast(g3_fixture(0.5))
    assert np.sum(t.dividends) == pytest.approx(1.0, abs=1e-12)


def test_roundtrip_both_ways_random():
    rng = np.random.default_rng(4)
    for d in range(1, 13):
        g = random_game(d, rng)
        scale = max(1.0, np.max(np.abs(g.values)))
        back = zeta_reconstruct(dividends_fast(g))
        assert np.max(np.abs(back.values - g.values)) / scale <= 1e-12
        t = DividendTable(d, rng.normal(size=1 << d))
        t2 = dividends_fast(zeta_reconstruct(t))
        tscale = max(1.0, np.max(np.abs(t.dividends)))
        assert np.max(np.abs(t2.dividends - t.dividends)) / tscale <= 1e-12


def test_linearity():
    rng = np.random.default_rng(5)
    g1, g2_ = random_game(5, rng), random_game(5, rng)
    a, b = 1.7, -0.4
    combo = Game(5, a * g1.values + b * g2_.values)
    want = a * dividends_fast(g1).dividends + b * dividends_fast(g2_).dividends
    assert np.allclose(dividends_fast(combo).dividends, want, atol=1e-12)


def test_sum_identities_random():
    rng = np.random.default_rng(6)
    for d in range(1, 9):
        g = random_game(d, rng)
        t = dividends_fast(g)
        assert np.sum(t.dividends) == pytest.approx(g.v_full, abs=1e-11)
        assert np.sum(t.dividends[1:]) == pytest.approx(g.v_full - g.v_empty, abs=1e-11)
        assert t.dividends[0] == pytest.approx(g.v_empty)


def test_fast_dividends_are_adopted_without_a_copy():
    g = Game(16, np.random.default_rng(3).normal(size=1 << 16))
    tracemalloc.start()
    try:
        t = dividends_fast(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not t.dividends.flags.writeable
    # the transform's one table; a copy of it would double the peak
    assert peak < 1.5 * t.dividends.nbytes
