"""Efficient allocation schemes: marginal-contribution averages over random
orders (Weber family), dividend redistributions (Harsanyi family), three
independent Shapley routes, proportional values, and proportional marginal
effects on the dual game.
"""
from __future__ import annotations

import contextvars
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import orjson

from .dividends import dividends_fast
from .games import (EXACT_TOL, Allocation, Game, GameError, coalition_label, dual_game, json_int,
                    json_number, layers, magnitude, popcount_table)
from .orderings import Explicit, PartialOrderUniform, RandomOrderDistribution, Uniform

WEIGHT_TOL = 1e-9

# Fixed Monte Carlo chunk size: per-chunk RNG streams make serial and
# threaded runs bit-identical.
MC_CHUNK = 1024


def _marginal_pass(g: Game, before: np.ndarray, after: np.ndarray | None = None) -> np.ndarray:
    """Per player j, the sum over S without j of before[S] after[S | j] (v(S | j) - v(S)),
    with after = 1 if omitted. The view (-1, 2, 2^j) pairs each S (middle index 0)
    with S | j (index 1), as in `dividends._subset_sums`: one pass per player."""
    payoffs = np.empty(g.d)
    for j in range(g.d):
        pairs = g.values.reshape(-1, 2, 1 << j)
        gain = pairs[:, 1] - pairs[:, 0]
        gain *= before.reshape(-1, 2, 1 << j)[:, 0]
        if after is not None:
            gain *= after.reshape(-1, 2, 1 << j)[:, 1]
        payoffs[j] = gain.sum()
    return payoffs


def shapley_direct(g: Game) -> Allocation:
    """Coalition-enumeration Shapley: S without j weighs |S|! (d - |S| - 1)! / d!."""
    # weight by size s (s = d never lacks j)
    by_size = np.array([1.0 / (g.d * math.comb(g.d - 1, s)) for s in range(g.d)] + [0.0])
    return Allocation(_marginal_pass(g, by_size[popcount_table(g.d)]), "shapley")


def marginal_vector(g: Game, order: Sequence[int]) -> np.ndarray:
    """Per-player marginal contributions along a single ordering."""
    out = np.empty(g.d)
    placed = 0
    for j in order:
        bit = 1 << j
        out[j] = g.values[placed | bit] - g.values[placed]
        placed |= bit
    return out


def _batch_marginals(g: Game, orders: np.ndarray) -> np.ndarray:
    """Marginal-contribution matrix, one row per ordering in `orders`.

    Prefix coalitions are cumulative sums of player bits (each bit occurs
    once per row, so sum == bitwise or).
    """
    bits = (1 << orders.astype(np.int64))
    prefix = np.cumsum(bits, axis=1)
    delta = g.values[prefix] - g.values[prefix - bits]
    out = np.empty_like(delta)
    out[np.arange(orders.shape[0])[:, None], orders] = delta
    return out


def weber_allocate(g: Game, p: RandomOrderDistribution) -> Allocation:
    """Exact expected marginal contribution: a listed pmf averages its orders; uniform
    orders are Shapley's, and a DAG's weigh S without j by f(S) c(S | j) / c(empty)."""
    if isinstance(p, Explicit):
        orders, probs = p.expand(g.d)
        return Allocation(probs @ _batch_marginals(g, orders), "weber")
    if isinstance(p, Uniform):
        return Allocation(shapley_direct(g).payoffs, "weber")
    if not isinstance(p, PartialOrderUniform):
        raise GameError("opaque samplers cannot be expanded; use weber_monte_carlo")
    if p.d != g.d:
        raise GameError("player count mismatch")
    return Allocation(_marginal_pass(g, p.reach_counts() / p.counts[0], p.counts), "weber")


def shapley_permutation(g: Game) -> Allocation:
    """Ordering-enumeration Shapley: uniform average over all d! orderings."""
    orders, probs = Uniform().expand(g.d)
    return Allocation(probs @ _batch_marginals(g, orders), "shapley-perm")


def _equal_split(phi: np.ndarray, d: int) -> np.ndarray:
    """Each nonempty coalition's dividend shared equally among its members."""
    share = phi / np.maximum(popcount_table(d), 1)
    return np.array([share.reshape(-1, 2, 1 << j)[:, 1].sum() for j in range(d)])


def shapley_dividends(g: Game) -> Allocation:
    """Dividend-sharing Shapley: each coalition's dividend split equally."""
    return Allocation(_equal_split(dividends_fast(g).dividends, g.d), "shapley-div")


@dataclass(frozen=True)
class WeightSystem:
    """Sparse per-coalition sharing weights with a preset default rule.

    Presets: "egalitarian" (1/|A| to each member), "min-owner" (everything
    to the lowest-indexed member), "custom" (missing entries are zero).
    Stored entries override the preset.
    """

    preset: str = "egalitarian"
    entries: dict[tuple[int, int], float] = field(default_factory=dict)

    PRESETS = ("egalitarian", "min-owner", "custom")

    def __post_init__(self):
        if self.preset not in self.PRESETS:
            raise GameError(f"unknown weight preset {self.preset!r}")
        for (j, mask), w in self.entries.items():
            if j < 0 or mask < 0:
                raise GameError(
                    f"weight entry (player {j + 1}, coalition {mask}) is out of range"
                )
            if w < 0:
                raise GameError(f"negative weight for player {j + 1} on {coalition_label(mask)}")
            if not (mask >> j) & 1 and w != 0:
                raise GameError(
                    f"nonzero weight for player {j + 1} outside {coalition_label(mask)}"
                )

    def weight(self, j: int, mask: int) -> float:
        if (j, mask) in self.entries:
            return self.entries[(j, mask)]
        if not (mask >> j) & 1:
            return 0.0
        if self.preset == "egalitarian":
            return 1.0 / mask.bit_count()
        if self.preset == "min-owner":
            return 1.0 if mask & -mask == 1 << j else 0.0
        return 0.0

    def _overrides(self, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stored entries as arrays (player, mask, w - preset weight) for d players."""
        for j, mask in self.entries:
            if j >= d or mask >= 1 << d:
                raise GameError(f"weight entry (player {j + 1}, coalition {mask}) is out of range "
                                f"for {d} players")
        n = len(self.entries)
        players = np.fromiter((j for j, _ in self.entries), np.int64, n)
        masks = np.fromiter((m for _, m in self.entries), np.int64, n)
        w = np.fromiter(self.entries.values(), float, n)
        inside = (masks >> players) & 1 == 1
        if self.preset == "egalitarian":
            return players, masks, w - inside / np.maximum(np.bitwise_count(masks), 1)
        if self.preset == "min-owner":
            return players, masks, w - ((masks & -masks) == 1 << players)
        return players, masks, w

    def validate(self, d: int) -> None:
        """Check that every nonempty coalition's weights sum to 1 (presets do by
        construction, so only the stored entries' deviations can move a total)."""
        _, masks, delta = self._overrides(d)
        totals = np.full(1 << d, 0.0 if self.preset == "custom" else 1.0)
        np.add.at(totals, masks, delta)
        bad = np.flatnonzero(~(np.abs(totals[1:] - 1.0) <= WEIGHT_TOL))
        if bad.size:
            mask = int(bad[0]) + 1
            total = sum(self.weight(j, mask) for j in range(d))
            raise GameError(f"weights on {coalition_label(mask)} sum to {total}, expected 1")

    @classmethod
    def from_json(cls, text: bytes | str) -> "WeightSystem":
        """Parse {"preset":...} and/or {"entries":[{"player","coalition","w"},...]}."""
        obj = orjson.loads(text)
        entries = {
            (json_int(e["player"], "weight entry player") - 1,
             json_int(e["coalition"], "weight entry coalition")): json_number(e["w"], "weight w")
            for e in obj.get("entries", [])
        }
        preset = obj.get("preset", "custom" if entries else "egalitarian")
        if type(preset) is not str:
            raise TypeError(f"weight preset must be a string, got {orjson.dumps(preset).decode()}")
        return cls(preset, entries)


def harsanyi_allocate(g: Game, weights: WeightSystem) -> Allocation:
    """Redistribute each nonempty coalition's dividend among its members."""
    weights.validate(g.d)
    phi = dividends_fast(g).dividends
    if weights.preset == "egalitarian":
        payoffs = _equal_split(phi, g.d)
    elif weights.preset == "min-owner":
        masks = np.arange(1, 1 << g.d)
        lowest = np.frexp(masks & -masks)[1] - 1  # index of the lowest set bit
        payoffs = np.bincount(lowest, weights=phi[1:], minlength=g.d)
    else:
        payoffs = np.zeros(g.d)
    players, masks, delta = weights._overrides(g.d)
    np.add.at(payoffs, players, delta * phi[masks])
    return Allocation(payoffs, f"harsanyi-{weights.preset}")


def weber_monte_carlo(
    g: Game,
    p: RandomOrderDistribution,
    n: int,
    seed: int,
    threads: int = 1,
) -> Allocation:
    """Sample-mean estimate of the expected marginal contribution.

    Orderings are drawn in fixed chunks of MC_CHUNK, each chunk from its own
    seed-derived stream, and chunk results are reduced in index order, so
    the output is bit-identical for any thread count. Each chunk keeps its
    sum of squares about its own mean, and the chunks are merged by the
    two-level form of Chan, Golub & LeVeque (1979), so the standard error
    does not cancel away on games with large worths.
    """
    if n < 2:
        raise GameError("Monte Carlo needs n >= 2")
    nchunks = (n + MC_CHUNK - 1) // MC_CHUNK

    def run_chunk(k: int) -> tuple[int, np.ndarray, np.ndarray]:
        rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
        m = min(MC_CHUNK, n - k * MC_CHUNK)
        mv = _batch_marginals(g, p.sample(g.d, rng, m))
        s = mv.sum(axis=0)
        return m, s, ((mv - s / m) ** 2).sum(axis=0)

    if threads > 1:
        # each chunk runs in a copy of the caller's context, so under its np.errstate
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(contextvars.copy_context().run, run_chunk, k)
                       for k in range(nchunks)]
            parts = [f.result() for f in futures]
    else:
        parts = [run_chunk(k) for k in range(nchunks)]
    total = np.zeros(g.d)
    for _, s, _ in parts:
        total += s
    mean = total / n
    m2 = np.zeros(g.d)
    for m, s, m2_chunk in parts:
        m2 += m2_chunk + m * (s / m - mean) ** 2
    return Allocation(mean, "weber-mc", stderr=np.sqrt(m2 / (n - 1) / n))


def _ratio_potential(d: int, v: np.ndarray) -> np.ndarray:
    """Payoffs P(D) / P(D\\{i}) of the ratio potential (Ortmann 2000) of the
    worths v, as the limit eps -> 0 of v + eps on nonempty coalitions (Herin,
    Il Idrissi, Chabridon & Iooss 2024). By cardinality layer, P(empty) = 1
    and P(S) = v(S) / sum_{i in S} 1 / P(S\\{i}), carried as its leading term
    coef[S] * eps^order[S]: a zero worth (a worth <= 0 counts as 0) adds one
    order, and the inverse sum keeps only its terms of the highest order. So
    the payoff of i is 0 where the orders of D and D\\{i} differ.

    P(S) is homogeneous of degree |S| in v, so the walk would under- or
    overflow at large d far from unit scale. It runs on v * 2^-k instead,
    with k the binary exponent of max |v|, and scales the payoffs back by
    2^k. Both are exact powers of two, so wherever the walk on v itself stays
    in range the payoffs are the same bit for bit."""
    k = int(np.frexp(np.max(np.abs(v)))[1])
    v = np.ldexp(v, -k)
    bits = 1 << np.arange(d)
    coef = np.ones(1 << d)
    order = np.zeros(1 << d, dtype=np.int64)
    for masks in layers(d)[1:]:
        subs = masks ^ bits[:, None]  # row i: each mask with player i's bit flipped
        orders = np.where((masks & bits[:, None]) != 0, order[subs], -1)
        top = orders.max(axis=0)
        inverse_sum = np.zeros(masks.size)
        for term in np.where(orders == top, 1.0 / coef[subs], 0.0):  # player by player
            inverse_sum += term
        zero = v[masks] <= 0
        coef[masks] = np.where(zero, 1.0, v[masks]) / inverse_sum
        order[masks] = top + zero
    rest = (1 << d) - 1 - bits
    return np.ldexp(np.where(order[rest] == order[-1], coef[-1] / coef[rest], 0.0), k)


def proportional_value(g: Game) -> Allocation:
    """Efficient allocation preserving payoff ratios across subgames, by the
    ratio potential; needs v(A) > 0 on every nonempty coalition."""
    bad = np.flatnonzero(g.values[1:] <= 0)
    if bad.size:
        mask = int(bad[0]) + 1
        raise GameError(
            f"proportional value needs strictly positive worth; "
            f"v({coalition_label(mask)}) = {g.values[mask]}"
        )
    return Allocation(_ratio_potential(g.d, g.values), "proportional")


def pme(g: Game) -> Allocation:
    """Proportional marginal effects: the proportional value of the dual game,
    taken as its exact limit where dual worths are 0. A dual worth in
    [-EXACT_TOL * magnitude(dual), 0] is roundoff of a 0 and reads as 0."""
    w = dual_game(g)
    neg = np.flatnonzero(w.values[1:] < -EXACT_TOL * magnitude(w))
    if neg.size:
        raise GameError(
            f"dual worth is negative on {coalition_label(int(neg[0]) + 1)}; "
            "proportional marginal effects are undefined"
        )
    return Allocation(_ratio_potential(g.d, w.values), "pme")
