import io
import json
import math
import os
import re
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coalition_attr import (
    Allocation,
    Game,
    GameError,
    build_game,
    coalition_label,
    dual_game,
    efficiency_gap,
    members,
)
from coalition_attr import cli, dividends_fast, games, zeta_reconstruct
from coalition_attr.cli import main
from coalition_attr.games import layers
from conftest import g3_fixture, random_game


def test_mask_helpers():
    assert members(0b101) == (0, 2)
    assert coalition_label(0b101) == "{1,3}"
    assert coalition_label(0) == "{}"


@pytest.mark.parametrize("helper", [members, coalition_label])
def test_mask_helpers_refuse_a_negative_mask(helper):
    with pytest.raises(ValueError, match="negative coalition mask -1"):
        helper(-1)


def test_every_public_name_resolves():
    import coalition_attr

    assert all(hasattr(coalition_attr, name) for name in coalition_attr.__all__)
    namespace = {}
    exec("from coalition_attr import *", namespace)
    assert set(coalition_attr.__all__) <= set(namespace)


def test_build_game_cardinality():
    g = build_game(2, np.bitwise_count)
    assert list(g.values) == [0, 1, 1, 2]


def test_build_game_null():
    g = build_game(1, np.zeros_like)
    assert list(g.values) == [0, 0]


def test_build_game_reference_table(g2):
    table = np.array([0.0, 1.0, 2.0, 4.0])
    g = build_game(2, table.__getitem__)
    assert np.array_equal(g.values, g2.values)


def test_build_game_rejects_nonfinite():
    with pytest.raises(GameError, match=r"\{2\}"):
        build_game(2, lambda m: np.where(m == 0b10, math.nan, 0.0))


def test_build_game_cap():
    with pytest.raises(GameError):
        build_game(21, np.zeros_like)
    with pytest.raises(GameError):
        build_game(0, np.zeros_like)


@pytest.mark.parametrize("block", [1, 3, 1024])
@pytest.mark.parametrize("d", range(1, 11))
def test_layers_walk_every_mask_by_cardinality(d, block):
    blocks = layers(d, block)
    masks = np.concatenate(blocks)
    assert np.array_equal(np.sort(masks), np.arange(1 << d))
    assert all(b.dtype == np.int64 and 1 <= len(b) <= block for b in blocks)
    sizes = [np.unique(np.bitwise_count(b)) for b in blocks]
    assert all(len(s) == 1 for s in sizes)
    assert np.all(np.diff(np.concatenate(sizes).astype(int)) >= 0)
    same_layer = np.diff(np.bitwise_count(masks).astype(int)) == 0
    assert np.all(np.diff(masks)[same_layer] > 0)


def test_game_validation():
    with pytest.raises(GameError):
        Game(2, np.zeros(3))
    with pytest.raises(GameError):
        Game(2, np.array([0.0, 1.0, np.inf, 2.0]))


def test_dual_reference(g2):
    w = dual_game(g2)
    assert list(w.values) == [0.0, 2.0, 3.0, 4.0]


def test_dual_g3_hand_value():
    w = dual_game(g3_fixture(0.5))
    assert w.values[0b001] == pytest.approx(0.375, abs=1e-15)


def test_dual_involution_when_empty_is_zero():
    rng = np.random.default_rng(0)
    for d in range(1, 7):
        g = random_game(d, rng)
        vals = g.values.copy()
        vals[0] = 0.0
        g = Game(d, vals)
        assert np.allclose(dual_game(dual_game(g)).values, g.values, atol=1e-15)


def test_dual_preserves_d_and_grand_span():
    rng = np.random.default_rng(1)
    g = random_game(4, rng)
    w = dual_game(g)
    assert w.d == g.d
    assert w.v_full == pytest.approx(g.v_full - g.v_empty, abs=1e-15)
    assert w.v_empty == 0.0


def test_efficiency_gap_values(g2):
    assert efficiency_gap(g2, Allocation(np.array([1.5, 2.5]), "t")) == pytest.approx(0.0)
    assert efficiency_gap(g2, Allocation(np.array([1.0, 1.0]), "t")) == pytest.approx(-2.0)
    null = Game(2, np.zeros(4))
    assert efficiency_gap(null, Allocation(np.zeros(2), "t")) == 0.0


def test_efficiency_gap_linear_in_allocation(g2):
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=2), rng.normal(size=2)
    ga = efficiency_gap(g2, Allocation(a, "t"))
    gb = efficiency_gap(g2, Allocation(b, "t"))
    gm = efficiency_gap(g2, Allocation((a + b) / 2, "t"))
    assert gm == pytest.approx((ga + gb) / 2, abs=1e-12)


def test_efficiency_gap_dimension_mismatch(g2):
    with pytest.raises(GameError):
        efficiency_gap(g2, Allocation(np.zeros(3), "t"))


def test_game_json_roundtrip(g2):
    assert np.array_equal(Game.from_json(g2.to_json()).values, g2.values)


def test_game_json_rejects_garbage():
    with pytest.raises(GameError):
        Game.from_json("[1,2,3]")


def test_values_immutable(g2):
    with pytest.raises(ValueError):
        g2.values[0] = 1.0


_WS = st.text(alphabet=" \t\n\r", max_size=3)
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]


def _number(x) -> st.SearchStrategy[str]:
    if isinstance(x, int):
        return st.just(str(x))
    return st.sampled_from([repr(x), repr(x).upper()])  # 1e-05 and 1E-05


@st.composite
def game_texts(draw, d_first: bool):
    """JSON game texts in the layouts that are read in chunks: "d" before or
    after "values", any JSON whitespace, and numbers written as repr of float64
    (subnormals and -0.0 among them), in E notation, or as integers."""
    d = draw(st.integers(1, 6))
    numbers = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from(_EDGES), st.integers(-10**20, 10**20))
    tokens = [draw(numbers.flatmap(_number)) for _ in range(1 << d)]

    def ws() -> str:
        return draw(_WS)

    body = ",".join(ws() + t + ws() for t in tokens)
    values = f'"values"{ws()}:{ws()}[{body}]'
    d_key = f'"d"{ws()}:{ws()}{d}'
    pair = [d_key, values] if d_first else [values, d_key]
    return f"{ws()}{{{ws()}{pair[0]}{ws()},{ws()}{pair[1]}{ws()}}}{ws()}"


def _read(data: bytes, source: str) -> Game:
    """Game.from_json of data given as bytes, or as a binary file holding them."""
    if source == "bytes":
        return Game.from_json(data)
    with tempfile.TemporaryFile() as fh:
        fh.write(data)
        fh.seek(0)
        return Game.from_json(fh)


@given(st.booleans().flatmap(game_texts), st.integers(1, 40))
def test_chunked_read_equals_json_loads_bit_for_bit(text, chunk):
    want = np.asarray(json.loads(text)["values"], dtype=float)
    with mock.patch.object(games, "VALUES_CHUNK", chunk):
        for source in ("bytes", "file"):
            assert _read(text.encode(), source).values.tobytes() == want.tobytes()


_MALFORMED = [
    '{"d":2,"values":[0,1,2,[4]]}',
    '{"d":2,"values":[[0,1],[2,4]]}',
    '{"d":2,"values":[0,1,"]",4]}',
    '{"d":2,"values":[0,1,"2,3",4]}',
    '{"d":2,"values":[0,1,{"x":2},4]}',
    '{"d":2,"values":[0,1,true,4]}',
    '{"d":2,"values":[0,1,null,4]}',
    '{"d":2,"values":[0,1,2,4',
    '{"d":2,"values":[0,1,2,',
    '{"d":2,"values":[0,1,2,4,]}',
    '{"d":2,"values":[0,1, ,4]}',
    '{"d":2,"values":[0,1,2]}',
    '{"d":2,"values":[0,1,2,4,8]}',
    '{"d":2,"values":[]}',
    '{"d":60,"values":[0,1,2,4]}',
    '{"d":-1,"values":[0,1]}',
    '{"d":0,"values":[0]}',
    '{"d":true,"values":[0,1]}',
    '{"d":1.9,"values":[0,1]}',
    '{"d":1e0,"values":[0,1]}',
    '{"d":"1","values":[0,1]}',
    '{"meta":0,"d":true,"values":[0,1]}',
    '{"d":2,"values":[0,1,2,4]} x',
    '{"d":2,"values":[0,1,2,NaN]}',
    '{"d":2,"values":[0,1,2,1e400]}',
    '{"meta":0,"d":2,"values":[0,1,true,4]}',
    '{"meta":0,"d":60,"values":[0,1,2,4]}',
    '{"values":[0,1,2,4]}',
    '[0,1,2,4]',
]


def _d_last(text: str) -> str | None:
    """text with its leading "d" member moved behind "values", if it has one."""
    m = re.fullmatch(r'\{("d":[^,]*),("values":\[.*\])\}(.*)', text)
    return m and f'{{{m[2]},{m[1]}}}{m[3]}'


@pytest.mark.parametrize("text", _MALFORMED + list(filter(None, map(_d_last, _MALFORMED))),
                         ids=lambda text: text)
@pytest.mark.parametrize("chunk", [1, 7, games.VALUES_CHUNK])
def test_malformed_game_file_exits_3(tmp_path, capsys, text, chunk):
    p = tmp_path / "g.json"
    p.write_text(text)
    with mock.patch.object(games, "VALUES_CHUNK", chunk):
        assert main(["attribute", "--game", str(p), "--method", "shapley"]) == 3
        with pytest.raises((TypeError, ValueError)):
            Game.from_json(text.encode())
    assert "bad game file" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ('{"d":2,"values":[0,1,2x,4]}', "unexpected character at byte 22"),
    ('{"d":2,"values":[0, 01, 2, 4]}', "number with leading zero is not allowed at byte 20"),
    ('{"values":[0,1,2x,4],"d":2}', "unexpected character at byte 16"),
    ('{"values":[0, 01, 2, 4], "d":2}', "number with leading zero is not allowed at byte 14"),
])
@pytest.mark.parametrize("source", ["bytes", "file"])
@pytest.mark.parametrize("chunk", [1, 7, games.VALUES_CHUNK])
def test_parse_error_offsets_are_bytes_of_the_whole_file(text, message, source, chunk):
    with mock.patch.object(games, "VALUES_CHUNK", chunk):
        with pytest.raises(GameError, match=f"^{message} of the game file$"):
            _read(text.encode(), source)


class _FailingFile(io.BytesIO):
    """A game file whose `fail_at`-th read raises an I/O error."""

    def __init__(self, data: bytes, fail_at: int):
        super().__init__(data)
        self.reads_left = fail_at

    def read(self, size=-1):
        self.reads_left -= 1
        if self.reads_left == 0:
            raise OSError(5, "Input/output error")
        return super().read(size)


@pytest.mark.parametrize("fail_at", [1, 4, 6, 12])  # head, tail, first and later values pieces
@pytest.mark.parametrize("command", ["attribute", "dividends", "verify"])
def test_read_error_after_open_exits_3(monkeypatch, capsys, fail_at, command):
    data = Game(4, np.arange(16.0)).to_json().encode()
    monkeypatch.setattr(cli, "open", lambda path, mode: _FailingFile(data, fail_at),
                        raising=False)
    argv = [command, "--game", "g.json"] + ["--method", "shapley"] * (command == "attribute")
    with mock.patch.object(games, "VALUES_CHUNK", 8):
        assert main(argv) == 3
    assert capsys.readouterr().err == "error: cannot read g.json: [Errno 5] Input/output error\n"


def test_game_file_that_is_not_utf8_exits_3(tmp_path, capsys):
    p = tmp_path / "g.json"
    p.write_bytes(b'{"d":1,"values":[0,1],"note":"\xff"}')
    assert main(["attribute", "--game", str(p), "--method", "shapley"]) == 3
    assert "bad game file" in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"d":60,"values":[0,1,2,4]}',
                                  '{"values":[0,1,2,4],"d":60}',
                                  '{"meta":0,"d":60,"values":[0,1,2,4]}'])
def test_player_count_is_checked_before_the_table_is_allocated(text):
    for source in ("bytes", "file"):
        with pytest.raises(GameError, match=r"^d=60 needs 2\^60 coalition values; the values "
                                            r"array holds <= 4$"):
            _read(text.encode(), source)


def test_game_is_read_from_a_pipe():
    # a pipe cannot seek, so the values' tail cannot be read before them
    r, w = os.pipe()
    with open(r, "rb") as fh:
        with open(w, "wb") as out:
            out.write(b'{"values":[0,1,2,4],"d":2}')
        assert Game.from_json(fh).values.tolist() == [0.0, 1.0, 2.0, 4.0]


def test_nested_values_key_is_parsed_whole():
    g = Game.from_json(b'{"meta":{"values":[1]},"d":1,"values":[0,5]}')
    assert g.d == 1 and g.values.tolist() == [0.0, 5.0]


def test_read_peaks_near_the_table_size(tmp_path):
    # the float64 table, which Game adopts without a copy: 2 MiB at d=18; a
    # list of 2^18 Python floats alone would take about 8 MiB, and the file
    # read whole about 5 MiB
    rng = np.random.default_rng(5)
    p = tmp_path / "g.json"
    p.write_text(Game(18, rng.normal(size=1 << 18)).to_json())
    data = p.read_bytes()
    for source in ("bytes", "file"):
        with open(p, "rb") as fh:
            tracemalloc.start()
            try:
                g = Game.from_json(data if source == "bytes" else fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert g.values.nbytes == 2 << 20
        assert peak < 1.5 * g.values.nbytes


def test_game_keeps_its_own_copy_of_a_callers_array():
    a = np.array([0.0, 1.0, 2.0, 4.0])
    g = Game(2, a)
    a[:] = 7.0
    assert g.values.tolist() == [0.0, 1.0, 2.0, 4.0]
    assert a.flags.writeable


@pytest.mark.parametrize("make", ["dual", "zeta"])
def test_fresh_tables_are_adopted_without_a_copy(make):
    g = Game(16, np.random.default_rng(2).normal(size=1 << 16))
    t = dividends_fast(g)
    tracemalloc.start()
    try:
        h = dual_game(g) if make == "dual" else zeta_reconstruct(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not h.values.flags.writeable
    # the new table alone; a copy of it would double the peak
    assert peak < 1.5 * h.values.nbytes


@pytest.mark.parametrize("block", [1, 5, 1024])
def test_layers_walk_a_given_mask_set_by_cardinality(block):
    masks = np.flatnonzero(np.random.default_rng(block).random(1 << 9) < 0.3)
    blocks = layers(9, block, masks)
    assert np.array_equal(np.sort(np.concatenate(blocks)), masks)
    assert all(b.dtype == np.int64 and 1 <= len(b) <= block for b in blocks)
    sizes = [np.bitwise_count(b) for b in blocks]
    assert all(np.all(s == s[0]) for s in sizes)
    assert all(np.all(np.diff(b) > 0) for b in blocks)
    assert np.all(np.diff([int(s[0]) for s in sizes]) >= 0)

