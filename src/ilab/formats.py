"""Every file ilab reads or writes, and the rules for reading them.

* Graph text: a ``<n> <m>`` header line, then ``m`` lines ``<u> <v>``.
  Colouring text adds a third column: ``<u> <v> <colour>``.
* Graph JSON: ``{"n": n, "edges": [[u, v], ...]}``. Colouring JSON adds a
  parallel ``"colours"`` array.
* Partition JSON (``probe``): ``{"edges": [[u, v], ...], "parts": [...]}``;
  ``"colours"`` is accepted as an alias for ``"parts"``.
* Layered JSON (``gen-lower``): ``{"kind": "layered-bipartite", "r", "n",
  "delta", "epsilon", "seed", "a_layers": [[ids of A_1], ...],
  "edges": [[b, a, layer], ...]}``.
* Reports (``decompose --report``, ``probe --report``) and run manifests
  (``--manifest``) are written only; the CLI chooses their keys.

Writing is deterministic byte for byte, edges in sorted ``(u, v)`` order
with ``u < v`` (layered files: by layer, then endpoints). Every JSON file
goes through :func:`serialize_json`: sorted keys, no whitespace, one final
newline. Layered JSON alone keeps its one-space indent, because golden
digests of ``gen-lower`` output pin those bytes; it is written directly,
in the same bytes ``json.dumps(..., sort_keys=True, indent=1)`` gave.
Reading follows these rules:

* every malformed file raises :class:`FormatError` (CLI exit code 2);
* a graph, colouring or layered file declares at most
  :data:`~ilab.graphs.MAX_VERTICES` (2^18) vertices; a layered file counts
  ``n`` plus the ids ``a_layers`` lists (the A-side sizes its parameters
  give must fit the cap too), and its parameters may not ask for more than
  2^24 cells in the first layer's draw;
* text errors cite the physical file line; blank lines are skipped but
  counted, and a negative edge count is rejected;
* integer fields must be JSON integers, so floats, booleans and numeric
  strings are rejected; ``delta`` and ``epsilon`` are finite JSON numbers;
* graph, colouring and partition edges may be written either way round
  but must be simple: no loops, no duplicates, no ids outside ``0..n-1``;
* a partition names every edge of its layered graph exactly once, and no
  other edge;
* ``a_layers`` lists the A ids ``n, n+1, ...`` in order, layer by layer,
  and ``seed`` is non-negative (as ``gen-lower`` writes both);
* a layered edge row is ``[b, a, i]``, ground end first: ``1 <= i <= r``,
  ``b`` in ``0..n-1``, ``a`` in ``a_layers[i - 1]``, no row repeated; one
  pass checks each of these rules as it sorts the rows into layers.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import accumulate, chain
from typing import Iterable, Sequence

import numpy as np

from .colouring import EdgeColouring
from .graphs import MAX_VERTICES, BipartiteGraph, Edge, Graph, canonical_edge
from .randlab import LayeredBipartite, LowerBoundParams


class FormatError(ValueError):
    """A malformed input file; the message names the line or field at fault."""


def serialize_json(doc) -> str:
    """The one JSON layout ilab writes: sorted keys, compact, newline-terminated.

    Every document is built from fresh literals, so none contains itself,
    and the encoder skips its circular-reference bookkeeping.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------

def _text_rows(text: str, width: int, row: str) -> tuple[int, list[tuple[int, ...]]]:
    """The vertex count and the ``m`` rows of ``width`` integers of a text file.

    Lines are split only as the scan reaches them; ``row`` spells a row's
    fields for error messages.
    """
    lines = enumerate(text.splitlines(), start=1)
    for lineno, line in lines:
        head = line.split()
        if head:
            break
    else:
        raise FormatError("line 1: empty input")
    if len(head) != 2:
        raise FormatError(f"line {lineno}: expected '<n> <m>', got {line.strip()!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError(f"line {lineno}: non-integer header {line.strip()!r}") from None
    if m < 0:
        raise FormatError(f"line {lineno}: negative edge count {m}")
    rows = []
    for lineno, line in lines:
        fields = line.split()
        if not fields:
            continue
        if len(rows) == m:
            raise FormatError(f"line {lineno}: unexpected trailing content {line.strip()!r}")
        if len(fields) != width:
            raise FormatError(f"line {lineno}: expected {row}, got {line.strip()!r}")
        try:
            rows.append(tuple(map(int, fields)))
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer field in {line.strip()!r}") from None
    if len(rows) < m:
        raise FormatError(f"line {lineno}: expected {m} edges, file ended early")
    return n, rows


def _json_object(text: str, what: str, *keys: str) -> dict:
    """The JSON object in ``text``, which must have every one of ``keys``."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{what} JSON must be an object")
    for key in keys:
        if key not in doc:
            raise FormatError(f'{what} JSON has no "{key}"')
    return doc


def _check_ints(key: str, values) -> None:
    """Every item of ``values`` must be a JSON integer (``bool`` is not)."""
    other = set(map(type, values)) - {int}
    if other:
        found = ", ".join(sorted(t.__name__ for t in other))
        raise FormatError(f'"{key}": expected JSON integers, found {found}')


def _int(doc: dict, key: str) -> int:
    _check_ints(key, [doc[key]])
    return doc[key]


def _int_list(doc: dict, key: str) -> list[int]:
    values = doc.get(key)
    if not isinstance(values, list):
        raise FormatError(f'"{key}" must be a list of integers')
    _check_ints(key, values)
    return values


def _int_rows(doc: dict, key: str, width: int | None) -> list[list[int]]:
    """``doc[key]`` as a list of integer lists, each ``width`` long if given."""
    rows = doc[key]
    if not isinstance(rows, list) or not set(map(type, rows)) <= {list}:
        raise FormatError(f'"{key}" must be a list of lists')
    if width is not None and not set(map(len, rows)) <= {width}:
        raise FormatError(f'"{key}" entries must hold {width} integers each')
    _check_ints(key, chain.from_iterable(rows))
    return rows


def _graph(n: int, edges: Sequence[Sequence[int]]) -> Graph:
    if n > MAX_VERTICES:
        raise FormatError(f"{n} vertices exceed the cap of {MAX_VERTICES}")
    try:
        return Graph(n, tuple(edges))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# graphs and colourings
# ---------------------------------------------------------------------------

def _text(g: Graph, rows) -> str:
    return "\n".join([f"{g.vertex_count} {g.edge_count}", *rows]) + "\n"


def parse_graph_text(text: str) -> Graph:
    n, rows = _text_rows(text, 2, "'<u> <v>'")
    return _graph(n, rows)


def serialize_graph_text(g: Graph) -> str:
    return _text(g, (f"{u} {v}" for u, v in g.edges))


def parse_graph_json(text: str) -> Graph:
    doc = _json_object(text, "graph", "n", "edges")
    return _graph(_int(doc, "n"), _int_rows(doc, "edges", 2))


def serialize_graph_json(g: Graph) -> str:
    return serialize_json({"n": g.vertex_count, "edges": [[u, v] for u, v in g.edges]})


def _colouring(n: int, edges: Sequence[Sequence[int]], colours: Sequence[int]) -> EdgeColouring:
    g = _graph(n, edges)  # simple, so the keys below are its edges; colours are ints
    return EdgeColouring._trusted(g, {canonical_edge(*e): c for e, c in zip(edges, colours)})


def parse_colouring_text(text: str) -> EdgeColouring:
    n, rows = _text_rows(text, 3, "'<u> <v> <colour>'")
    return _colouring(n, [(u, v) for u, v, _ in rows], [c for _, _, c in rows])


def serialize_colouring_text(c: EdgeColouring) -> str:
    return _text(c.graph, (f"{u} {v} {c.colours[(u, v)]}" for u, v in c.graph.edges))


def parse_colouring_json(text: str) -> EdgeColouring:
    doc = _json_object(text, "colouring", "n", "edges", "colours")
    edges, colours = _int_rows(doc, "edges", 2), _int_list(doc, "colours")
    if len(edges) != len(colours):
        raise FormatError("edges and colours arrays differ in length")
    return _colouring(_int(doc, "n"), edges, colours)


def serialize_colouring_json(c: EdgeColouring) -> str:
    g = c.graph
    return serialize_json({
        "n": g.vertex_count,
        "edges": [[u, v] for u, v in g.edges],
        "colours": [c.colours[e] for e in g.edges],
    })


# ---------------------------------------------------------------------------
# layered bipartite graphs and their partitions
# ---------------------------------------------------------------------------

def _indented(items: list[str], depth: int) -> str:
    """A JSON array of already encoded items, laid out as ``indent=1`` lays
    out an array that opens at nesting depth ``depth``."""
    if not items:
        return "[]"
    pad = "\n" + " " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * depth + "]"


def serialize_layered_json(lb: LayeredBipartite) -> str:
    """JSON form with layer tags on edges; deterministic byte-for-byte.

    The bytes are those of ``json.dumps(doc, sort_keys=True, indent=1)``,
    written directly: CPython's C encoder does not do indented output, and
    its pure-Python one costs a call per value. Each layer's edges are
    sorted, so the layers concatenated in order are sorted by layer, then
    endpoints.
    """
    p = lb.params
    a_layers = [_indented(list(map(str, layer)), 2) for layer in lb.a_layers]
    edges = [
        f"[\n   {b},\n   {a},\n   {i}\n  ]"  # _indented([b, a, i], 2)
        for i, lg in enumerate(lb.layer_graphs, start=1)
        for b, a in lg.edges
    ]
    fields = {  # in sorted key order
        "a_layers": _indented(a_layers, 1),
        "delta": json.dumps(p.delta),
        "edges": _indented(edges, 1),
        "epsilon": json.dumps(p.epsilon),
        "kind": json.dumps("layered-bipartite"),
        "n": json.dumps(p.n),
        "r": json.dumps(p.r),
        "seed": json.dumps(p.seed),
    }
    # not serialize_json: the benchmark's golden digests pin these bytes
    return "{\n " + ",\n ".join(f'"{k}": {v}' for k, v in fields.items()) + "\n}\n"


def parse_layered_json(text: str) -> LayeredBipartite:
    doc = _json_object(
        text, "layered", "kind", "r", "n", "delta", "epsilon", "seed", "a_layers", "edges"
    )
    if doc["kind"] != "layered-bipartite":
        raise FormatError("not a layered-bipartite JSON document")
    r, n = _int(doc, "r"), _int(doc, "n")
    for key in ("delta", "epsilon"):
        if type(doc[key]) not in (int, float) or not math.isfinite(doc[key]):
            raise FormatError(f'"{key}" must be a finite JSON number')
    a_layers = tuple(map(tuple, _int_rows(doc, "a_layers", None)))
    if len(a_layers) != r:
        raise FormatError(f"expected {r} layers, found {len(a_layers)}")
    bounds = list(accumulate(map(len, a_layers), initial=n))  # A_i: bounds[i - 1] <= id < bounds[i]
    for i, (layer, start, stop) in enumerate(zip(a_layers, bounds, bounds[1:]), start=1):
        if layer != tuple(range(start, stop)):
            raise FormatError(f"A_{i} must be the ids {start}..{stop - 1} in order")
    if bounds[-1] > MAX_VERTICES:
        raise FormatError(
            f"n + |A_1| + ... + |A_r| = {bounds[-1]} exceeds the cap of {MAX_VERTICES} vertices"
        )
    try:
        params = LowerBoundParams(r, n, doc["delta"], doc["epsilon"], _int(doc, "seed"))
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    # a dict per layer finds repeats, and keeps the file's order, which sorts fastest
    by_layer: list[dict[Edge, None]] = [{} for _ in range(r)]
    for b, a, i in _int_rows(doc, "edges", 3):  # every edge rule, once per row
        if not 1 <= i <= r:
            raise FormatError(f"edge ({b},{a}) tagged with unknown layer {i}")
        if not (0 <= b < n and bounds[i - 1] <= a < bounds[i]):
            raise FormatError(f"edge ({b}, {a}) does not go left->right")
        if (b, a) in by_layer[i - 1]:
            raise FormatError(f"duplicate edge ({b}, {a})")
        by_layer[i - 1][b, a] = None
    ground = tuple(range(n))
    graphs = []
    for layer, start, rows in zip(a_layers, bounds, by_layer):
        edges = tuple(sorted(rows))
        # b is its own position in B, and a's position in A_i is a - start
        b, a = np.fromiter(chain.from_iterable(edges), np.intp, 2 * len(edges)).reshape(-1, 2).T
        graphs.append(BipartiteGraph._trusted(ground, layer, edges, (b.copy(), a - start)))
    return LayeredBipartite(params, a_layers, tuple(graphs))


def parse_partition_json(text: str, graph_edges: Iterable[Edge]) -> dict[Edge, int]:
    """Part labels keyed by canonical edge, for exactly ``graph_edges``, in any order."""
    doc = _json_object(text, "partition", "edges")
    edges = _int_rows(doc, "edges", 2)
    parts = _int_list(doc, "colours" if "parts" not in doc and "colours" in doc else "parts")
    if len(edges) != len(parts):
        raise FormatError(f"{len(edges)} edges but {len(parts)} part labels")
    keys = [(u, v) if u < v else (v, u) for u, v in edges]
    part_of = dict(zip(keys, parts))
    if len(part_of) < len(keys):
        repeated = min(e for e, count in Counter(keys).items() if count > 1)
        raise FormatError(f"partition repeats edge {repeated}")
    known = set(graph_edges)
    if part_of.keys() != known:
        missing = known - part_of.keys()
        if missing:
            raise FormatError(f"partition does not cover edge {min(missing)}")
        extra = min(part_of.keys() - known)
        raise FormatError(f"partition names edge {extra}, which is not in the graph")
    return part_of
