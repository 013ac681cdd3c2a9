import json
import random

import hypothesis.strategies as st
import networkx as nx
import pytest
from hypothesis import given, settings

from genpos import (
    Graph,
    InputError,
    ParseError,
    complete,
    cycle,
    decode_graph6,
    edgeless,
    encode_graph6,
    kneser,
    read_graph,
    write_graph,
)
from genpos.graph import MAX_N
from genpos.io import _order_header, dumps_json, loads_json

from strategies import graphs


def test_k2_is_the_two_bytes_A_underscore():
    assert encode_graph6(complete(2)) == "A_"
    g = decode_graph6("A_")
    assert (g.n, g.edges()) == (2, [(0, 1)])


def test_c4_hand_encoding():
    # header 'C' (n=4); pairs 01,02,12,03,13,23 -> bits 101011 -> 43+63 = 'n'?
    # cycle(4) has edges 01,12,23,03: bits 1,0,0,1,0,1 -> 100101 = 37 -> 'd'... the
    # point of this test is that the value is frozen by hand, not copied back:
    # (0,1)=1 (0,2)=0 (1,2)=1 (0,3)=1 (1,3)=0 (2,3)=1 -> 101101 = 45 -> chr(108)='l'
    assert encode_graph6(cycle(4)) == "Cl"
    assert decode_graph6("Cl").edges() == cycle(4).edges()


def test_optional_header_and_newline_tolerated():
    assert decode_graph6(">>graph6<<A_\n").edges() == [(0, 1)]
    assert decode_graph6("A_\r\n").edges() == [(0, 1)]
    assert decode_graph6(b"A_").edges() == [(0, 1)]


@settings(max_examples=80)
@given(graphs(max_n=12))
def test_graph6_round_trip(g):
    back = decode_graph6(encode_graph6(g))
    assert back.n == g.n
    assert back.adj == g.adj


def test_graph6_round_trip_every_order():
    rng = random.Random(6)
    for n in [*range(71), 455]:
        g = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.5])
        s = encode_graph6(g)
        assert s.startswith("~") == (n > 62)
        assert len(s) == (1 if n <= 62 else 4) + (n * (n - 1) // 2 + 5) // 6
        back = decode_graph6(s)
        assert (back.n, back.adj) == (n, g.adj)


def test_petersen_string_pinned():
    assert encode_graph6(kneser(5, 2)) == "I?LRCecq?"
    assert decode_graph6("I?LRCecq?").adj == kneser(5, 2).adj


def test_graph6_large_order_escape():
    g = edgeless(63)
    enc = encode_graph6(g)
    assert enc.startswith("~")
    back = decode_graph6(enc)
    assert back.n == 63 and back.edge_count == 0


def test_graph6_matches_networkx():
    for g in (kneser(5, 2), cycle(7), complete(1), Graph.from_edges(5, [(0, 2), (3, 4)])):
        ours = encode_graph6(g)
        h = nx.Graph()
        h.add_nodes_from(range(g.n))  # keeps isolated vertices in the order field
        h.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(h, header=False).strip().decode()
        assert ours == theirs
        ret = nx.from_graph6_bytes(ours.encode())
        assert sorted(ret.edges()) == g.edges()
    # the order header at each edge of its forms, up to the limit, with no large graph
    for n in (0, 62, 63, 4095, 4096, MAX_N - 1):
        assert _order_header(n) == "".join(chr(63 + b) for b in nx.readwrite.graph6.n_to_data(n))
    # the standard's 8-byte form starts at MAX_N, past the limit
    assert "".join(chr(63 + b) for b in nx.readwrite.graph6.n_to_data(MAX_N)) == "~~???~??"
    with pytest.raises(ParseError) as e:
        decode_graph6("~~???~??")
    assert e.value.offset == 1


def test_parse_error_offsets():
    with pytest.raises(ParseError) as e:
        decode_graph6("A")  # n=2 needs one data byte
    assert e.value.offset == 1
    with pytest.raises(ParseError) as e:
        decode_graph6("A" + chr(30))  # byte below 63
    assert e.value.offset == 1
    with pytest.raises(ParseError) as e:
        decode_graph6("A_X")  # trailing byte
    assert e.value.offset == 2
    with pytest.raises(ParseError) as e:
        decode_graph6("")
    assert e.value.offset == 0
    with pytest.raises(ParseError, match="truncated") as e:
        decode_graph6("~?")  # the '~' header needs three order bytes
    assert e.value.offset == 2


def test_nonzero_padding_rejected():
    # n=2 has one pair bit; '`' = 100001 sets a padding bit
    with pytest.raises(ParseError) as e:
        decode_graph6("A`")
    assert e.value.offset == 1
    assert "padding" in str(e.value)


def test_json_round_trip_with_labels():
    g = kneser(4, 2)
    d = json.loads(dumps_json(g))
    assert d["n"] == 6
    assert d["labels"][0] == "{1,2}"
    back = loads_json(json.dumps(d))
    assert back.adj == g.adj and back.labels == g.labels


def test_json_validation():
    with pytest.raises(InputError):
        loads_json("[1, 2]")
    with pytest.raises(InputError):
        loads_json('{"edges": []}')
    with pytest.raises(InputError):
        loads_json('{"n": true}')
    with pytest.raises(InputError):
        loads_json('{"n": 3, "edges": [[0, 1, 2]]}')
    with pytest.raises(InputError):
        loads_json('{"n": 3, "edges": [[0, true]]}')
    with pytest.raises(InputError):
        loads_json('{"n": 2, "edges": [], "labels": "ab"}')


# ints, bools, floats, strings and None: everything a JSON value or a careless
# caller can put where a vertex id, a count or a label belongs
_DATA = st.one_of(st.integers(-2, 6), st.booleans(), st.floats(-1, 6), st.text(max_size=3), st.none())


@settings(max_examples=300)
@given(
    n=st.one_of(st.integers(0, 6), _DATA),
    edges=st.lists(st.tuples(_DATA, _DATA) | st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=6),
    labels=st.none() | st.lists(st.text(max_size=3) | _DATA, max_size=6),
)
def test_every_graph_that_builds_reads_back(n, edges, labels):
    try:
        g = Graph.from_edges(n, edges, labels)
    except InputError:
        return
    back = loads_json(dumps_json(g))
    assert back == g and back.labels == g.labels
    assert decode_graph6(encode_graph6(g)).adj == g.adj


def test_loads_json_reports_offset():
    cases = [
        ('{"n": 2, }', 9),
        # each é is two bytes: the stray "}" is character 27 but byte 29
        ('{"n": 1, "labels": ["éé"], }', 29),
        # a lone surrogate, possible only through the Python API, counts 3
        ('{"a": "\ud800", }', 13),
    ]
    for text, offset in cases:
        with pytest.raises(ParseError) as e:
            loads_json(text)
        assert e.value.offset == offset, text


def test_loads_json_too_deep_is_an_input_error():
    with pytest.raises(InputError, match="nested too deeply"):
        loads_json('{"n": 1, "edges": ' + "[" * 5000 + "]" * 5000 + "}")


def test_file_round_trip_both_formats(tmp_path):
    g = kneser(4, 2)
    p6 = tmp_path / "g.g6"
    pj = tmp_path / "g.json"
    write_graph(g, str(p6))
    write_graph(g, str(pj))
    assert read_graph(str(p6)).adj == g.adj
    assert read_graph(str(p6)).labels is None  # graph6 drops labels
    assert read_graph(str(pj)).labels == g.labels


def test_format_sniffing_without_extension(tmp_path):
    p = tmp_path / "noext"
    p.write_text(dumps_json(cycle(5)) + "\n")
    assert read_graph(str(p)).n == 5
    p.write_text(encode_graph6(cycle(5)) + "\n")
    assert read_graph(str(p)).n == 5


def test_explicit_format_overrides_extension(tmp_path):
    p = tmp_path / "mislabeled.g6"
    p.write_text(dumps_json(complete(3)) + "\n")
    assert read_graph(str(p), format="json").n == 3
    with pytest.raises(InputError):
        read_graph(str(p), format="nope")


def test_non_utf8_file_is_a_parse_error(tmp_path):
    # the file is read as bytes: graph6 reports the non-ASCII byte, JSON the
    # first byte that is not UTF-8, each at its offset
    p6 = tmp_path / "bad.g6"
    p6.write_bytes(b"\xff\xfe")
    with pytest.raises(ParseError) as e:
        read_graph(str(p6))
    assert e.value.offset == 0
    pj = tmp_path / "bad.json"
    pj.write_bytes(b'{"n": 2, "edges": [\xff]}')
    with pytest.raises(ParseError) as e:
        read_graph(str(pj))
    assert e.value.offset == 19


def test_encode_rejects_huge_order():
    # a graph past graph6's order field does not build, so it never reaches the encoder
    with pytest.raises(InputError):
        Graph(1 << 18, tuple(frozenset() for _ in range(1 << 18)))


def test_encode_refuses_past_the_graph6_pair_limit():
    # 8193 * 8192 / 2 vertex pairs is past 2^25; 8192 * 8191 / 2 is not
    with pytest.raises(InputError, match="8192 vertices; write sidecar JSON"):
        encode_graph6(edgeless(8193))


def test_json_order_limit(tmp_path):
    p = tmp_path / "big.json"
    p.write_text('{"n": 262144}')
    with pytest.raises(InputError, match="vertex count"):
        read_graph(str(p))


def test_json_integer_past_the_digit_limit_is_an_input_error():
    with pytest.raises(InputError, match="digits") as e:
        loads_json('{"n": ' + "9" * 5000 + "}")
    assert not isinstance(e.value, ParseError)
