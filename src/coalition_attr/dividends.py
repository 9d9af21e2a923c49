"""Incremental coalition worth (dividends) via Moebius/zeta transforms.

The fast transform is the production path; the cardinality-order recursion
is kept as an independent oracle, since the two algorithms share no code.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import Game, _frozen_table, popcount_table


@dataclass(frozen=True)
class DividendTable:
    """Dividends for all 2^d coalitions, indexed by mask like Game.values."""

    d: int
    dividends: np.ndarray

    def __post_init__(self):
        # a copy, so the caller's array can change without changing the table
        t = np.array(self.dividends, dtype=float)
        object.__setattr__(self, "dividends", _frozen_table(self.d, t, "dividend"))

    @classmethod
    def _adopt(cls, d: int, dividends: np.ndarray) -> "DividendTable":
        """The table of a fresh float64 array that nothing else holds: the
        array is frozen in place instead of copied."""
        t = object.__new__(cls)
        object.__setattr__(t, "d", d)
        object.__setattr__(t, "dividends", _frozen_table(d, dividends, "dividend"))
        return t


def dividends_recursive(g: Game) -> DividendTable:
    """Oracle route: phi(A) = v(A) - sum of phi over proper subsets of A.

    Theta(3^d) via submask enumeration; intended for small d.
    """
    n = 1 << g.d
    phi = np.empty(n)
    phi[0] = g.values[0]
    sizes = popcount_table(g.d)
    for mask in sorted(range(1, n), key=lambda m: int(sizes[m])):
        acc = phi[0]
        sub = (mask - 1) & mask
        while sub:
            acc += phi[sub]
            sub = (sub - 1) & mask
        phi[mask] = g.values[mask] - acc
    return DividendTable._adopt(g.d, phi)


def _subset_sums(values: np.ndarray, d: int, op) -> np.ndarray:
    """For each bit j, combine every coalition with j and its partner without j
    by `op` (np.add: zeta, np.subtract: Moebius); Theta(d 2^d). In the view of
    shape (-1, 2, 2^j), middle index 1 holds the coalitions containing j."""
    out = values.copy()
    for j in range(d):
        blocks = out.reshape(-1, 2, 1 << j)
        op(blocks[:, 1], blocks[:, 0], out=blocks[:, 1])
    return out


def dividends_fast(g: Game) -> DividendTable:
    """Fast subset Moebius transform, Theta(d 2^d)."""
    return DividendTable._adopt(g.d, _subset_sums(g.values, g.d, np.subtract))


def zeta_reconstruct(t: DividendTable) -> Game:
    """Inverse transform: v(A) = sum of dividends over subsets of A."""
    return Game._adopt(t.d, _subset_sums(t.dividends, t.d, np.add))
