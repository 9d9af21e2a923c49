"""Transferable-utility cooperative games over bitmask-encoded coalitions.

Players are indexed 0..d-1 internally; bit j of a coalition mask is set iff
player j belongs to the coalition. Human-facing layers (CLI, reports) use
1-indexed player labels.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np
import orjson

DEFAULT_MAX_PLAYERS = 20
EXACT_TOL = 1e-10
BUILD_CHUNK = 1024  # the most masks in one block of layers, so in one build_game oracle call
VALUES_CHUNK = 1 << 16  # bytes of a game file's values array parsed per orjson call

# A game file that is exactly {"d": <scalar>, "values": [...]} or
# {"values": [...], "d": <scalar>}: the "[" that ends _HEAD opens the top-level
# values array, and in a flat list of numbers the first "]" after it closes it.
_HEAD = re.compile(rb'\s*\{\s*(?:"d"\s*:\s*[-+.\w]+\s*,\s*)?"values"\s*:\s*\[')
_TAIL = re.compile(rb'\]\s*(?:,\s*"d"\s*:\s*[-+.\w]+\s*)?\}\s*')
# Without brackets, braces or quotes, a JSON value that is not a number is
# true, false or null.
_NOT_NUMBERS = (b"[", b"{", b'"', b"t", b"f", b"n")
_FLAT = '"{}" must be a flat list of numbers'


class GameError(ValueError):
    """Invalid game construction or use."""


def full_mask(d: int) -> int:
    return (1 << d) - 1


def members(mask: int) -> tuple[int, ...]:
    """Players in a coalition mask, ascending."""
    out = []
    j = 0
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


def mask_of(players: Iterable[int]) -> int:
    m = 0
    for j in players:
        m |= 1 << j
    return m


def coalition_label(mask: int) -> str:
    """1-indexed set notation, e.g. {1,3} for mask 0b101."""
    return "{" + ",".join(str(j + 1) for j in members(mask)) + "}"


def split_masks(masks, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Members and non-members of each mask in a stack of equal-cardinality
    masks (a single mask is a stack of one): two ascending index arrays of
    shapes (m, k) and (m, d - k)."""
    masks = np.asarray(masks, dtype=np.int64).reshape(-1)
    inside = (masks[:, None] >> np.arange(d)) & 1
    order = np.argsort(1 - inside, axis=1, kind="stable")
    k = int(inside[0].sum()) if len(masks) else 0
    return order[:, :k], order[:, k:]


def popcount_table(d: int) -> np.ndarray:
    """Cardinality of every coalition mask below 2^d, as uint8."""
    return np.bitwise_count(np.arange(1 << d))


def layers(d: int, block: int = BUILD_CHUNK,
           masks: Optional[np.ndarray] = None) -> list[np.ndarray]:
    """The masks to walk (an ascending int64 array; every mask below 2^d by
    default) as blocks of at most `block` masks of one cardinality: layers
    0..d in order, masks ascending within each layer."""
    sizes = popcount_table(d) if masks is None else np.bitwise_count(masks)
    order = np.argsort(sizes, kind="stable")
    starts = np.searchsorted(sizes[order], np.arange(d + 2))
    if masks is not None:
        order = masks[order]
    return [order[lo:min(lo + block, starts[k + 1])]
            for k in range(d + 1) for lo in range(starts[k], starts[k + 1], block)]


@dataclass(frozen=True)
class Game:
    """A cooperative game: player count d and 2^d coalition values.

    values[m] is the worth of the coalition with mask m; values[0] is the
    worth of the empty coalition, values[2^d - 1] the grand coalition.
    """

    d: int
    values: np.ndarray

    def __post_init__(self):
        # a copy, so the caller's array can change without changing the game
        v = np.array(self.values, dtype=float)
        object.__setattr__(self, "values", _frozen_table(self.d, v))

    @classmethod
    def _adopt(cls, d: int, values: np.ndarray) -> "Game":
        """The game of a fresh float64 table that nothing else holds: the
        table is frozen in place instead of copied."""
        g = object.__new__(cls)
        object.__setattr__(g, "d", d)
        object.__setattr__(g, "values", _frozen_table(d, values))
        return g

    @property
    def grand(self) -> int:
        return full_mask(self.d)

    def value(self, mask: int) -> float:
        return float(self.values[mask])

    @property
    def v_empty(self) -> float:
        return float(self.values[0])

    @property
    def v_full(self) -> float:
        return float(self.values[-1])

    def to_json(self) -> str:
        return orjson.dumps({"d": self.d, "values": self.values.tolist()}).decode()

    @classmethod
    def from_json(cls, data: bytes | str) -> "Game":
        """Read {"d": d, "values": [...]}, where values is a flat list of 2^d
        JSON numbers, from UTF-8 bytes or text.

        When the document is just those two keys, the values array is parsed
        in pieces of about VALUES_CHUNK bytes straight into the float64
        table: no parse tree of the file and no list of 2^d Python floats is
        built. Any other layout is parsed whole, under the same checks.
        """
        if isinstance(data, str):
            data = data.encode()
        head = _HEAD.match(data)
        if head:
            start = head.end()
            end = data.find(b"]", start)
            if end >= 0 and _TAIL.fullmatch(data, end):
                if any(data.find(c, start, end) >= 0 for c in _NOT_NUMBERS):
                    raise GameError(_FLAT.format("values"))
                d = _player_count(orjson.loads(data[:start] + data[end:]), (end - start) // 2 + 1)
                return cls._adopt(d, _read_numbers(data, start, end, 1 << d))
        obj = orjson.loads(data)
        values = json_numbers(obj.get("values", []) if isinstance(obj, dict) else [], "values")
        return cls._adopt(_player_count(obj, len(values)), values)


def _frozen_table(d: int, v: np.ndarray, what: str = "value") -> np.ndarray:
    """v, checked as the finite worths (or other per-coalition `what`) of
    2^d coalitions and made read-only."""
    if not (1 <= d):
        raise GameError(f"player count must be >= 1, got {d}")
    if v.shape != (1 << d,):
        raise GameError(f"expected {1 << d} coalition {what}s for d={d}, got {v.shape}")
    if not np.all(np.isfinite(v)):
        bad = int(np.flatnonzero(~np.isfinite(v))[0])
        raise GameError(f"non-finite {what} at coalition {coalition_label(bad)}")
    v.setflags(write=False)
    return v


def json_int(x, what: str) -> int:
    """x when it is a JSON integer (true and false are not), else TypeError:
    a value of the wrong type is a format error, not a bad game."""
    if type(x) is not int:
        raise TypeError(f"{what} must be an integer, got {orjson.dumps(x).decode()}")
    return x


def json_number(x, what: str) -> float:
    """x as a float when it is a JSON number (true, false and strings are
    not), else TypeError."""
    if type(x) not in (int, float):
        raise TypeError(f"{what} must be a number, got {orjson.dumps(x).decode()}")
    return float(x)


def json_numbers(xs, key: str) -> np.ndarray:
    """xs as a float64 array when it is a flat JSON list of numbers (true,
    false and strings are not), else GameError naming the key."""
    if type(xs) is not list or not all(type(x) in (int, float) for x in xs):
        raise GameError(_FLAT.format(key))
    return np.array(xs, dtype=float)


def _player_count(obj, room: int) -> int:
    """d of a parsed game object whose values array holds at most `room`
    numbers; 2^d is checked against room before any table is allocated."""
    if not isinstance(obj, dict) or "d" not in obj or "values" not in obj:
        raise GameError('game JSON must be an object with keys "d" and "values"')
    d = json_int(obj["d"], "player count d")
    if d < 1:
        raise GameError(f"player count must be >= 1, got {d}")
    if d > room.bit_length() or 1 << d > room:
        raise GameError(f"d={d} needs 2^{d} coalition values; the values array holds <= {room}")
    return d


def _read_numbers(data: bytes, start: int, end: int, n: int) -> np.ndarray:
    """The n numbers of the comma-separated list data[start:end] as float64,
    parsed by orjson in pieces of about VALUES_CHUNK bytes cut at commas."""
    out = np.empty(n)
    k, pos = 0, start
    while True:
        cut = data.find(b",", pos + VALUES_CHUNK, end)
        if cut < 0:
            cut = end
        try:
            part = orjson.loads(b"[" + data[pos:cut] + b"]")
        except orjson.JSONDecodeError as e:
            raise GameError(f"{e.msg} at byte {pos + e.pos - 1} of the game file") from e
        if not part:
            raise GameError(f"empty entry in values after {k} numbers")
        if k + len(part) > n:
            raise GameError(f"expected {n} coalition values, got more")
        out[k:k + len(part)] = part
        k += len(part)
        if cut == end:
            break
        pos = cut + 1
    if k != n:
        raise GameError(f"expected {n} coalition values, got {k}")
    return out


@dataclass(frozen=True)
class Allocation:
    """Per-player payoffs plus the method that produced them.

    stderr is set only by Monte Carlo estimators.
    """

    payoffs: np.ndarray
    method: str
    stderr: Optional[np.ndarray] = None

    def __post_init__(self):
        p = np.asarray(self.payoffs, dtype=float)
        if not np.all(np.isfinite(p)):
            raise GameError("non-finite payoff in allocation")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "payoffs", p)
        if self.stderr is not None:
            s = np.asarray(self.stderr, dtype=float).copy()
            if s.shape != p.shape or not np.all(np.isfinite(s) & (s >= 0)):
                raise GameError("stderr must be finite, nonnegative and match payoffs")
            s.setflags(write=False)
            object.__setattr__(self, "stderr", s)


def build_game(
    d: int,
    oracle: Callable[[np.ndarray], np.ndarray],
    chunk: Optional[int] = None,
    stack: Optional[int] = None,
) -> Game | list[Game]:
    """Evaluate a batched coalition-worth oracle on all 2^d masks into a dense Game.

    The oracle maps an int64 array of masks, all of one cardinality, to an
    array of their worths. It is called once per block of `layers(d, chunk)`
    (chunk defaults to BUILD_CHUNK). With stack=N it builds N games at once:
    the oracle returns an (N, len(masks)) array, one row per game, and
    build_game returns the list of the N games.
    """
    if not (1 <= d <= DEFAULT_MAX_PLAYERS):
        raise GameError(f"player count {d} outside [1, {DEFAULT_MAX_PLAYERS}]")
    values = np.empty((1 << d,) if stack is None else (stack, 1 << d))
    for masks in layers(d, chunk or BUILD_CHUNK):
        worths = np.asarray(oracle(masks), dtype=float)
        if worths.shape != values.shape[:-1] + masks.shape:
            raise GameError(f"oracle returned shape {worths.shape} for {len(masks)} coalitions")
        bad = ~np.isfinite(worths)
        if bad.any():
            m = int(masks[np.argmax(bad) % len(masks)])
            raise GameError(f"oracle returned non-finite value on {coalition_label(m)}")
        values[..., masks] = worths
    if stack is None:
        return Game._adopt(d, values)
    return [Game._adopt(d, v) for v in values]


def dual_game(g: Game) -> Game:
    """w(A) = v(D) - v(D \\ A)."""
    # full_mask ^ m runs through masks in reverse index order
    return Game._adopt(g.d, g.values[-1] - g.values[::-1])


def magnitude(g: Game) -> float:
    """max(1, max |v|): exact-method tolerances such as EXACT_TOL are relative to it."""
    return max(1.0, float(g.values.max()), -float(g.values.min()))


def efficiency_gap(g: Game, a: Allocation) -> float:
    """Signed deviation of the payoff total from v(D) - v(empty)."""
    if len(a.payoffs) != g.d:
        raise GameError(f"allocation has {len(a.payoffs)} payoffs for a {g.d}-player game")
    return float(np.sum(a.payoffs) - (g.v_full - g.v_empty))
