"""Reading and writing graphs.

Two formats:

* graph6: the de facto standard compact ASCII encoding of simple undirected
  graphs. The upper triangle of the adjacency matrix is serialized in
  column-major order (pairs (0,1),(0,2),(1,2),(0,3),...), packed into 6-bit
  chunks, each stored as one printable byte with offset 63. Orders up to 62
  use the single header byte 63+n; orders up to 258,047 use '~' followed by
  three 6-bit bytes. The standard's 8-byte '~~' form for larger orders is
  past :data:`~genpos.graph.MAX_N`, so it is refused. Labels cannot be
  represented.

* sidecar JSON: ``{"n": ..., "edges": [[u, v], ...], "labels": [...]}``,
  lossless including labels. The reader checks only this shape and leaves
  the ids, the count and the labels to :class:`~genpos.graph.Graph`, so
  every graph that builds can be written and read back.

Parse failures raise :class:`ParseError` carrying the byte offset of the
offending input.
"""

from __future__ import annotations

import json
import os
from typing import Any

from .errors import InputError, ParseError, digit_limit
from .graph import MAX_N, Graph

_GRAPH6_HEADER = ">>graph6<<"


def _pack(bits: str) -> str:
    # a bit string, zero-padded to a multiple of 6, as graph6 bytes
    bits += "0" * (-len(bits) % 6)
    return "".join(chr(63 + int(bits[i : i + 6], 2)) for i in range(0, len(bits), 6))


def _order_header(n: int) -> str:
    # n < graph.MAX_N, so it takes the 1-byte or the '~' plus 3-byte form
    return chr(63 + n) if n <= 62 else "~" + _pack(f"{n:018b}")


def encode_graph6(g: Graph) -> str:
    """Encode ``g`` as a graph6 string (no optional format header). Past 2^25
    vertex pairs (n > 8192) it raises InputError before building any: it
    spends about 9 bytes a pair, and under a 600 MB address-space limit
    ``construct edgeless`` wrote n = 11,359 and failed from n = 11,435."""
    n = g.n
    if n * (n - 1) // 2 > 1 << 25:
        raise InputError(f"graph6 of order {n} is past the limit of 8192 vertices; write sidecar JSON instead")
    return _order_header(n) + _pack("".join("01"[u in g.adj[v]] for v in range(1, n) for u in range(v)))


def decode_graph6(data: str | bytes) -> Graph:
    """Decode one graph6 line; tolerates the '>>graph6<<' prefix and a newline."""
    text = data
    if isinstance(data, bytes):
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as e:
            raise ParseError("non-ASCII byte in graph6 data", e.start) from None
    base = len(_GRAPH6_HEADER) if text.startswith(_GRAPH6_HEADER) else 0
    end = len(text)
    while end > base and text[end - 1] in "\r\n":
        end -= 1
    if end == base:
        raise ParseError("empty graph6 data", base)

    def byte_at(i: int) -> int:
        if i >= end:
            raise ParseError("truncated graph6 data", end)
        c = ord(text[i])
        if not 63 <= c <= 126:
            raise ParseError(f"invalid graph6 byte {text[i]!r}", i)
        return c - 63

    def bits_at(i: int, count: int) -> str:
        return "".join(f"{byte_at(j):06b}" for j in range(i, i + count))

    pos = base + 1
    n = byte_at(base)
    if n == 63:  # '~': the order is in the next three bytes, or in six after '~~'
        if byte_at(pos) == 63:  # '~~' opens the 8-byte form, whose orders are all >= MAX_N
            raise ParseError(f"graph6 '~~' header: an order of at least {MAX_N} is past the limit", pos)
        n = int(bits_at(pos, 3), 2)
        pos += 3

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if end - pos < nbytes:
        raise ParseError(f"expected {nbytes} data bytes for n={n}", end)
    if end - pos > nbytes:
        raise ParseError("trailing bytes after graph6 data", pos + nbytes)

    bits = bits_at(pos, nbytes)
    if "1" in bits[nbits:]:
        raise ParseError("nonzero padding bits", end - 1)  # all padding is in the last byte
    pairs = ((u, v) for v in range(1, n) for u in range(v))
    return Graph.from_edges(n, (p for p, b in zip(pairs, bits) if b == "1"))


def dumps_json(g: Graph) -> str:
    d: dict[str, Any] = {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
    if g.labels is not None:
        d["labels"] = list(g.labels)
    return json.dumps(d, separators=(",", ":"))


def parse_json(text: str) -> Any:
    """``json.loads``, with malformed JSON a :class:`ParseError`, and nesting
    too deep to parse or an integer too long to read an :class:`InputError`."""
    with digit_limit("JSON holds an integer"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as e:
            # e.pos counts characters; the offset a ParseError reports is in bytes
            offset = len(text[: e.pos].encode("utf-8", "surrogatepass"))
            raise ParseError(f"invalid JSON: {e.msg}", offset) from None
        except RecursionError:
            raise InputError("JSON is nested too deeply") from None


def loads_json(text: str) -> Graph:
    """Check the JSON shape only; :class:`Graph` checks the values."""
    d = parse_json(text)
    if not isinstance(d, dict):
        raise InputError("graph JSON must be an object")
    if "n" not in d:
        raise InputError('graph JSON needs an "n"')
    edges = d.get("edges", [])
    if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
        raise InputError('"edges" must be a list of [u, v] pairs')
    labels = d.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise InputError('"labels" must be a list')
    return Graph.from_edges(d["n"], edges, labels)


def _infer_format(path: str, data: bytes | None = None) -> str:
    ext = os.path.splitext(path)[1].lower()
    if ext in (".g6", ".graph6"):
        return "g6"
    if ext == ".json":
        return "json"
    if data is not None and data.lstrip()[:1] == b"{":
        return "json"
    return "g6"


def read_graph(path: str, format: str | None = None) -> Graph:
    """Load a graph from ``path``, inferring graph6 vs JSON when not told."""
    with open(path, "rb") as fh:
        data = fh.read()
    fmt = format or _infer_format(path, data)
    if fmt == "json":
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError("invalid UTF-8 in JSON data", e.start) from None
        return loads_json(text)
    if fmt == "g6":
        return decode_graph6(data)
    raise InputError(f"unknown graph format {fmt!r}")


def write_graph(g: Graph, path: str, format: str | None = None) -> None:
    """Write ``g`` to ``path`` as graph6 (default) or sidecar JSON."""
    fmt = format or _infer_format(path)
    if fmt == "json":
        text = dumps_json(g)
    elif fmt == "g6":
        text = encode_graph6(g)
    else:
        raise InputError(f"unknown graph format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
