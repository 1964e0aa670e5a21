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
digests of ``gen-lower`` output pin those bytes. Reading follows these
rules:

* every malformed file raises :class:`FormatError` (CLI exit code 2);
* a graph, colouring or layered file declares at most
  :data:`~ilab.graphs.MAX_VERTICES` (2^18) vertices; a layered file counts
  ``n`` plus the ids its parameters give the A sides, and its parameters may
  not ask for more than 2^24 cells in the first layer's draw;
* text errors cite the physical file line; blank lines are skipped but
  counted, and a negative edge count is rejected;
* integer fields must be JSON integers, so floats, booleans and numeric
  strings are rejected; ``delta`` and ``epsilon`` are finite JSON numbers;
* edges may be written either way round but must be simple: no loops, no
  duplicates, no ids outside ``0..n-1``;
* a partition names every edge of its layered graph exactly once, and no
  other edge;
* ``a_layers`` numbers the A vertices ``n, n+1, ...`` consecutively, layer
  by layer, each layer in ascending order (as ``gen-lower`` writes them);
* an edge tagged with layer ``i`` joins a ground vertex ``0..n-1`` to a
  vertex listed in ``a_layers[i - 1]``.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import chain
from typing import Sequence

from .colouring import EdgeColouring
from .graphs import MAX_VERTICES, BipartiteGraph, Edge, Graph, canonical_edge
from .randlab import LayeredBipartite, LowerBoundParams


class FormatError(ValueError):
    """A malformed input file; the message names the line or field at fault."""


def serialize_json(doc) -> str:
    """The one JSON layout ilab writes: sorted keys, compact, newline-terminated."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


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
    g = _graph(n, edges)  # simple, so the colour keys below are its edges
    return EdgeColouring(g, {canonical_edge(u, v): c for (u, v), c in zip(edges, colours)})


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

def serialize_layered_json(lb: LayeredBipartite) -> str:
    """JSON form with layer tags on edges; deterministic byte-for-byte."""
    p = lb.params
    edges = []
    for i, lg in enumerate(lb.layer_graphs, start=1):
        edges.extend([b, a, i] for b, a in lg.edges)
    doc = {
        "kind": "layered-bipartite",
        "r": p.r,
        "n": p.n,
        "delta": p.delta,
        "epsilon": p.epsilon,
        "seed": p.seed,
        "a_layers": [list(layer) for layer in lb.a_layers],
        "edges": sorted(edges, key=lambda e: (e[2], e[0], e[1])),
    }
    # not serialize_json: the benchmark's golden digests pin these bytes
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


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
    start = n
    for i, layer in enumerate(a_layers, start=1):
        if layer != tuple(range(start, start + len(layer))):
            raise FormatError(f"A_{i} must be the ids {start}..{start + len(layer) - 1} in order")
        start += len(layer)
    by_layer: list[list[Edge]] = [[] for _ in range(r)]
    for b, a, i in _int_rows(doc, "edges", 3):
        if not 1 <= i <= r:
            raise FormatError(f"edge ({b},{a}) tagged with unknown layer {i}")
        by_layer[i - 1].append((b, a))
    try:
        params = LowerBoundParams(r, n, doc["delta"], doc["epsilon"], _int(doc, "seed"))
        ground = tuple(range(n))
        graphs = tuple(
            BipartiteGraph(ground, layer, tuple(edges))
            for layer, edges in zip(a_layers, by_layer)
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    return LayeredBipartite(params, a_layers, graphs)


def parse_partition_json(text: str, graph_edges: Sequence[Edge]) -> dict[Edge, int]:
    """Part labels keyed by canonical edge, for exactly ``graph_edges``."""
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
