import itertools
import random
from concurrent.futures import Future

import numpy as np
import pytest

from coalition_attr import Game
from coalition_attr.expr import Bin, Lit, Neg, Pow, Var


@pytest.fixture
def g2():
    # reference two-player fixture: v = {empty:0, {1}:1, {2}:2, {1,2}:4}
    return Game(2, np.array([0.0, 1.0, 2.0, 4.0]))


def g3_fixture(rho: float) -> Game:
    """Normalized variance game of the three-feature analytic example,
    tabulated by hand from Gaussian conditional variances."""
    return Game(3, np.array([
        0.0,                 # empty
        0.5,                 # {1}
        0.5,                 # {2}
        1.0,                 # {1,2}
        rho**2 / 2,          # {3}
        0.5,                 # {1,3}
        (1 + rho**2) / 2,    # {2,3}
        1.0,                 # {1,2,3}
    ]))


def random_tree(rng: random.Random, d: int, depth: int):
    """A random expression tree over x1..xd: literals in [0, 5], variables,
    +, -, *, unary minus and powers 0..2, at most depth operators deep."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Lit(round(rng.uniform(0, 5), 3))
        return Var(rng.randrange(d))
    op = rng.choice(["+", "-", "*", "neg", "pow"])
    if op == "neg":
        return Neg(random_tree(rng, d, depth - 1))
    if op == "pow":
        return Pow(random_tree(rng, d, depth - 1), rng.randrange(0, 3))
    return Bin(op, random_tree(rng, d, depth - 1), random_tree(rng, d, depth - 1))


def random_game(d: int, rng: np.random.Generator, positive: bool = False) -> Game:
    vals = rng.uniform(0.1, 2.0, 1 << d) if positive else rng.normal(size=1 << d)
    return Game(d, vals)


def unanimity_game(d: int, t_mask: int) -> Game:
    vals = np.array([1.0 if m & t_mask == t_mask else 0.0 for m in range(1 << d)])
    return Game(d, vals)


def shapley_oracle(g: Game) -> np.ndarray:
    """Independent brute force: average marginal contribution over every
    ordering, built from explicit prefix sets rather than bitmask walks."""
    totals = np.zeros(g.d)
    count = 0
    for order in itertools.permutations(range(g.d)):
        for pos, j in enumerate(order):
            before = frozenset(order[:pos])
            with_j = sum(1 << i for i in before | {j})
            without = sum(1 << i for i in before)
            totals[j] += g.values[with_j] - g.values[without]
        count += 1
    return totals / count


def reference_weight(w, j: int, mask: int) -> float:
    """Player j's share of the dividend of coalition mask under the weight
    system w, one entry at a time: a stored entry if there is one, else the
    preset's rule (egalitarian 1/|T| to each member, min-owner everything to
    the lowest member, custom nothing), and 0 outside the coalition."""
    if (j, mask) in w.entries:
        return w.entries[(j, mask)]
    ms = [i for i in range(mask.bit_length()) if (mask >> i) & 1]
    if j not in ms:
        return 0.0
    if w.preset == "egalitarian":
        return 1.0 / len(ms)
    if w.preset == "min-owner":
        return 1.0 if j == ms[0] else 0.0
    return 0.0


class InlinePool:
    """Stands in for a ThreadPoolExecutor: runs each task at once, so no
    thread is started."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future
