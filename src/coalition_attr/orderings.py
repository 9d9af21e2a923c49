"""Random order distributions over player permutations.

Three forms: uniform over all d! orderings, an explicit pmf, and uniform
over the linear extensions of a partial order (causal constraints).
`expand(d)` lists a support as an (orders, probs) array pair. Every form
samples the same way: `sample(d, rng, m)` draws a whole (m, d) array of
orders from one seeded stream.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np
import orjson

from .games import DEFAULT_MAX_PLAYERS, GameError, json_int, json_number, layers, members

PMF_TOL = 1e-9


class SupportTooLargeError(GameError):
    """Raised when Uniform.expand would list more than 8! orderings."""


def _linear_extensions(pred_masks: Sequence[int]) -> np.ndarray:
    """The (count, d) int64 array, in lexicographic order, of every order that
    places each player j after all of pred_masks[j] (all d! when every mask is 0)."""
    preds = np.array(pred_masks, dtype=np.int64)
    players = np.arange(len(preds))
    # extend all prefixes of one length at a time; nonzero() walks the prefixes
    # in order and each prefix's ready players (unplaced, every predecessor
    # placed) in ascending order. int8 keeps a 10!-row enumeration small.
    orders = np.zeros((1, 0), dtype=np.int8)
    placed = np.zeros(1, dtype=np.int64)
    for _ in range(len(preds)):
        p = placed[:, None]
        rows, ready = np.nonzero(((p >> players) & 1 == 0) & (preds & ~p == 0))
        orders = np.column_stack([orders[rows], ready.astype(np.int8)])
        placed = placed[rows] | (1 << ready)
    return orders.astype(np.int64)


@dataclass(frozen=True)
class Uniform:
    """Uniform distribution over all d! orderings."""

    MAX_EXACT_PLAYERS = 8

    def expand(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        if d > self.MAX_EXACT_PLAYERS:
            raise SupportTooLargeError(f"uniform expansion of {d}! orderings is too large; "
                                       "use the Monte Carlo estimator instead")
        orders = _linear_extensions((0,) * d)
        return orders, np.full(len(orders), 1.0 / len(orders))

    def sample(self, d: int, rng: np.random.Generator, m: int) -> np.ndarray:
        return rng.permuted(np.tile(np.arange(d), (m, 1)), axis=1)


@dataclass(frozen=True, eq=False)
class Explicit:
    """Finite pmf over explicitly listed orderings (0-indexed players), held as
    one read-only array pair: the (n, d) int64 orders in lexicographic order
    and their float64 probabilities."""

    orders: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        n = len(self.orders)
        d = len(self.orders[0]) if n else 0
        if n != len(self.probs) or not d:
            raise GameError("explicit pmf needs matching, nonempty orders and probs")
        try:
            raw = np.array(self.orders).reshape(n, d)
        except ValueError:  # rows of different lengths
            pi = next(pi for pi in self.orders if sorted(pi) != list(range(d)))
            raise GameError(f"invalid ordering {pi}") from None
        valid = (np.sort(raw, axis=1) == np.arange(d)).all(axis=1)
        if not valid.all():
            raise GameError(f"invalid ordering {self.orders[np.argmin(valid)]}")
        order = np.lexsort(raw.T[::-1])  # stable: equal rows keep their input order
        orders = raw[order].astype(np.int64, copy=False)
        repeats = order[1:][(orders[1:] == orders[:-1]).all(axis=1)]
        if repeats.size:
            raise GameError(f"duplicate ordering {self.orders[repeats.min()]}")
        probs = np.array(self.probs, dtype=float)[order]
        if not np.all((probs >= 0) & (probs <= 1)):  # NaN fails too
            raise GameError("pmf probability outside [0, 1]")
        total = sum(self.probs)
        if abs(total - 1.0) > PMF_TOL:
            raise GameError(f"pmf sums to {total}, expected 1")
        for name, a in (("orders", orders), ("probs", probs)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @classmethod
    def from_json(cls, text: bytes | str) -> "Explicit":
        """Parse [{"order":[1,2,3],"p":0.5}, ...] with 1-indexed players."""
        rows = orjson.loads(text)
        orders = tuple(tuple(json_int(j, "pmf player") - 1 for j in row["order"]) for row in rows)
        probs = tuple(json_number(row["p"], "pmf probability p") for row in rows)
        return cls(orders, probs)

    def expand(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        if self.orders.shape[1] != d:
            raise GameError("pmf ordering length does not match player count")
        return self.orders, self.probs

    def sample(self, d: int, rng: np.random.Generator, m: int) -> np.ndarray:
        orders, probs = self.expand(d)
        return orders[rng.choice(len(orders), size=m, p=probs)]


@dataclass(frozen=True)
class PartialOrderUniform:
    """Uniform distribution over linear extensions of a DAG on players.

    pred_masks[j] is the bitmask of players that must precede player j.
    counts[S] is the number of ways to complete the placed set S when S is a
    down-set (it holds every predecessor of its members), and 0 for every
    other mask below 2^d; a down-set's completions are its linear extensions.
    """

    d: int
    pred_masks: tuple[int, ...]
    counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.pred_masks) != self.d:
            raise GameError("need one predecessor mask per player")
        if self.d > DEFAULT_MAX_PLAYERS:
            # 2^d table entries; int64 counts stay exact up to 20!
            raise GameError(f"partial orders support at most {DEFAULT_MAX_PLAYERS} players")
        # the blocks come first, so the sort behind them never overlaps the table
        blocks = layers(self.d, masks=self._down_sets())
        bits = 1 << np.arange(self.d, dtype=np.int64)
        counts = np.zeros(1 << self.d, dtype=np.int64)
        counts[-1] = 1
        # counts[S | j] is 0 unless S | j is a down-set, that is unless j is
        # ready, and counts[S] itself is still 0 while its block is summed.
        # The grand coalition's block is the last; blocks bound the
        # (masks x d) temporaries.
        for masks in reversed(blocks[:-1]):
            counts[masks] = counts[masks[:, None] | bits].sum(axis=1)
        if counts[0] == 0:
            raise GameError("cycle detected among the precedence constraints")
        object.__setattr__(self, "counts", counts)

    def _down_sets(self) -> np.ndarray | None:
        """The down-sets as an ascending int64 array of masks, or None when
        every mask is one (no constraints)."""
        if not any(self.pred_masks):
            return None
        keep = np.ones(1 << self.d, dtype=bool)
        for v, preds in enumerate(self.pred_masks):
            for u in members(preds):
                # axes 1 and 3 are the bits of max(u, v) and min(u, v): drop
                # every mask that holds v but not u
                lo, hi = min(u, v), max(u, v)
                view = keep.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
                view[:, int(v > u), :, int(v < u)] = False
        return np.flatnonzero(keep)

    def enumerate_extensions(self) -> Iterator[tuple[int, ...]]:
        """Every linear extension, in lexicographic order."""
        yield from map(tuple, _linear_extensions(self.pred_masks).tolist())

    def reach_counts(self) -> np.ndarray:
        """f[S], the orders of S that respect the DAG (0 unless S is a down-set):
        reversed, they complete D\\S in the reversed DAG, so read its counts[D\\S]."""
        edges = [(v, u) for v, preds in enumerate(self.pred_masks) for u in members(preds)]
        return causal_orderings(self.d, edges).counts[::-1]

    def expand(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """Every linear extension, with probability 1/count: the Weber oracle."""
        if d != self.d:
            raise GameError("player count mismatch")
        orders = _linear_extensions(self.pred_masks)
        return orders, np.full(len(orders), 1.0 / len(orders))

    def sample(self, d: int, rng: np.random.Generator, m: int) -> np.ndarray:
        """Draw m orders uniformly, walking the down-set lattice in lock-step.

        Each step picks player j with probability counts[S | j] / counts[S],
        as the first player whose cumulative weight exceeds a uniform draw;
        players that are not ready weigh 0 and are never picked. The
        cumulative weights are built once per distinct placed set S.
        """
        if d != self.d:
            raise GameError("player count mismatch")
        u = rng.random((m, d))
        bits = 1 << np.arange(d, dtype=np.int64)
        orders = np.empty((m, d), dtype=np.int64)
        placed = np.zeros(m, dtype=np.int64)
        for t in range(d):
            sets, row = np.unique(placed, return_inverse=True)
            s = sets[:, None]
            # counts[S | j] is 0 for an unready j; a placed j would give counts[S]
            weights = np.where(s & bits == 0, self.counts[s | bits], 0)
            cdf = np.cumsum(weights / self.counts[s], axis=1)
            cdf /= cdf[:, -1:]
            orders[:, t] = np.sum(cdf[row] <= u[:, t, None], axis=1)
            placed |= bits[orders[:, t]]
        return orders


RandomOrderDistribution = Uniform | Explicit | PartialOrderUniform


def causal_orderings(d: int, edges: Sequence[tuple[int, int]]) -> PartialOrderUniform:
    """Distribution uniform over orderings consistent with a causal DAG.

    Edges are (ancestor, descendant) pairs, 0-indexed; every ancestor is
    forced to appear before its descendants. Only direct predecessors are
    stored; checking them suffices, because each of them was itself placed
    only after its own.
    """
    preds = [0] * d
    for u, vtx in edges:
        if not (0 <= u < d and 0 <= vtx < d):
            raise GameError(f"edge ({u}, {vtx}) references unknown player")
        if u == vtx:
            raise GameError(f"self-loop on player {u + 1}")
        preds[vtx] |= 1 << u
    return PartialOrderUniform(d, tuple(preds))


def causal_orderings_from_json(d: int, text: bytes | str) -> PartialOrderUniform:
    """Parse {"edges":[[1,2],...]} with 1-indexed players."""
    obj = orjson.loads(text)
    edges = [(json_int(u, "DAG player") - 1, json_int(v, "DAG player") - 1)
             for u, v in obj["edges"]]
    return causal_orderings(d, edges)
