"""Reading and writing graphs.

Two formats:

* graph6: the de facto standard compact ASCII encoding of simple undirected
  graphs. The upper triangle of the adjacency matrix is serialized in
  column-major order (pairs (0,1),(0,2),(1,2),(0,3),...), packed into 6-bit
  chunks, each stored as one printable byte with offset 63. Orders up to 62
  use the single header byte 63+n; larger orders use '~' followed by three
  6-bit bytes. Labels cannot be represented.

* sidecar JSON: ``{"n": ..., "edges": [[u, v], ...], "labels": [...]}``,
  lossless including labels.

Parse failures raise :class:`ParseError` carrying the byte offset of the
offending input.
"""

from __future__ import annotations

import json
import os
from typing import Any

from .errors import InputError, ParseError
from .graph import Graph

_GRAPH6_HEADER = ">>graph6<<"
_MAX_N = 1 << 18  # 3-byte extended order field


def encode_graph6(g: Graph) -> str:
    """Encode ``g`` as a graph6 string (no optional format header)."""
    n = g.n
    if n >= _MAX_N:
        raise InputError(f"graph6 encoding here supports n < {_MAX_N}, got {n}")
    if n <= 62:
        out = [chr(63 + n)]
    else:
        out = ["~", chr(63 + ((n >> 12) & 63)), chr(63 + ((n >> 6) & 63)), chr(63 + (n & 63))]
    bit_buf = 0
    bit_len = 0
    for v in range(1, n):
        row = g.adj[v]
        for u in range(v):
            bit_buf = (bit_buf << 1) | (1 if u in row else 0)
            bit_len += 1
            if bit_len == 6:
                out.append(chr(63 + bit_buf))
                bit_buf = 0
                bit_len = 0
    if bit_len:
        out.append(chr(63 + (bit_buf << (6 - bit_len))))
    return "".join(out)


def decode_graph6(data: str | bytes) -> Graph:
    """Decode one graph6 line; tolerates the '>>graph6<<' prefix and a newline."""
    if isinstance(data, bytes):
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as e:
            raise ParseError("non-ASCII byte in graph6 data", e.start) from None
    else:
        text = data
    base = 0
    if text.startswith(_GRAPH6_HEADER):
        base = len(_GRAPH6_HEADER)
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

    pos = base
    first = byte_at(pos)
    pos += 1
    if first == 63:  # '~' escape: 18-bit order
        n = 0
        for _ in range(3):
            n = (n << 6) | byte_at(pos)
            pos += 1
    else:
        n = first

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if end - pos < nbytes:
        raise ParseError(f"expected {nbytes} data bytes for n={n}", end)
    if end - pos > nbytes:
        raise ParseError("trailing bytes after graph6 data", pos + nbytes)

    edges = []
    bit_index = 0
    buf = 0
    have = 0
    v, u = 1, 0
    for i in range(nbytes):
        buf = byte_at(pos + i)
        have = 6
        while have and bit_index < nbits:
            have -= 1
            if (buf >> have) & 1:
                edges.append((u, v))
            bit_index += 1
            u += 1
            if u == v:
                v += 1
                u = 0
        if bit_index >= nbits and buf & ((1 << have) - 1):
            raise ParseError("nonzero padding bits", pos + i)
    return Graph.from_edges(n, edges)


def graph_to_json_dict(g: Graph) -> dict[str, Any]:
    d: dict[str, Any] = {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
    if g.labels is not None:
        d["labels"] = list(g.labels)
    return d


def graph_from_json_dict(d: Any) -> Graph:
    if not isinstance(d, dict):
        raise InputError("graph JSON must be an object")
    if "n" not in d or not isinstance(d["n"], int) or isinstance(d["n"], bool):
        raise InputError('graph JSON needs an integer "n"')
    edges = d.get("edges", [])
    if not isinstance(edges, list):
        raise InputError('"edges" must be a list of [u, v] pairs')
    pairs = []
    for e in edges:
        if (
            not isinstance(e, (list, tuple))
            or len(e) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in e)
        ):
            raise InputError(f"bad edge entry {e!r}")
        pairs.append((e[0], e[1]))
    labels = d.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise InputError('"labels" must be a list of strings')
    return Graph.from_edges(d["n"], pairs, labels)


def dumps_json(g: Graph) -> str:
    return json.dumps(graph_to_json_dict(g), separators=(",", ":"))


def loads_json(text: str) -> Graph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        # e.pos counts characters; the offset a ParseError reports is in bytes
        offset = len(text[: e.pos].encode("utf-8", "surrogatepass"))
        raise ParseError(f"invalid JSON: {e.msg}", offset) from None
    return graph_from_json_dict(data)


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
