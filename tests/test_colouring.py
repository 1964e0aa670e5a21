import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ilab import EdgeColouring, Graph, colour_forest, count_colours, spread_cap, spread_check, verify
from ilab.colouring import ColouringReport
from ilab.formats import (
    FormatError,
    parse_colouring_json,
    parse_colouring_text,
    serialize_colouring_json,
    serialize_colouring_text,
)


def colouring(n, coloured_edges):
    g = Graph(n, tuple(e for e, _ in coloured_edges))
    return EdgeColouring(g, {e: c for e, c in coloured_edges})


def test_verify_accepts_path():
    c = colouring(3, [((0, 1), 0), ((1, 2), 1)])
    rep = verify(c)
    assert rep.proper and rep.interval
    assert (rep.distinct_colours, rep.min_colour, rep.max_colour) == (2, 0, 1)
    assert rep.first_violation is None


def test_verify_flags_improper_before_gaps():
    c = colouring(3, [((0, 1), 2), ((1, 2), 2)])
    rep = verify(c)
    assert not rep.proper and not rep.interval
    v, reason = rep.first_violation
    assert v == 1 and "repeat" in reason


def test_verify_flags_gap_with_vertex():
    c = colouring(3, [((0, 1), 0), ((1, 2), 2)])
    rep = verify(c)
    assert rep.proper and not rep.interval
    v, reason = rep.first_violation
    assert v == 1 and "not contiguous" in reason


def test_negative_colours_are_legal():
    c = colouring(3, [((0, 1), -5), ((1, 2), -4)])
    assert verify(c).interval


def test_empty_graph_is_interval():
    c = EdgeColouring(Graph(4, ()), {})
    rep = verify(c)
    assert rep.interval and rep.distinct_colours == 0


@given(st.integers(-40, 40))
def test_translation_preserves_everything(offset):
    c = colouring(4, [((0, 1), 3), ((1, 2), 4), ((2, 3), 3)])
    t = EdgeColouring(c.graph, {e: col + offset for e, col in c.colours.items()})
    r0, r1 = verify(c), verify(t)
    assert (r0.proper, r0.interval, r0.distinct_colours) == (r1.proper, r1.interval, r1.distinct_colours)
    assert r1.min_colour == r0.min_colour + offset
    assert t.normalised().colours == c.normalised().colours


def test_count_colours_distinct_not_span():
    c = colouring(5, [((0, 1), 0), ((2, 3), 7), ((3, 4), 8)])
    assert count_colours(c) == 3


class TestSpread:
    def test_cap_formula(self):
        assert spread_cap(4, 11) == 50
        assert spread_cap(0, 3) == 2

    def test_path_within_cap(self):
        g = Graph(4, ((0, 1), (1, 2), (2, 3)))
        c = {(0, 1): 0, (1, 2): 1, (2, 3): 2}
        ok, pair = spread_check(g, [0, 1, 2, 3], c, 2)
        assert ok and pair is None

    def test_violation_reports_extremal_pair(self):
        g = Graph(3, ((0, 1), (1, 2)))
        c = {(0, 1): 0, (1, 2): 99}
        ok, pair = spread_check(g, [0, 1, 2], c, 2)
        assert not ok
        assert pair == ((0, 1), (1, 2))

    def test_rejects_disconnected_piece(self):
        g = Graph(4, ((0, 1), (2, 3)))
        with pytest.raises(ValueError):
            spread_check(g, [0, 1, 2, 3], {(0, 1): 0, (2, 3): 0}, 1)

    def test_rejects_understated_degree_cap(self):
        g = Graph(3, ((0, 1), (0, 2)))
        with pytest.raises(ValueError):
            spread_check(g, [0, 1], {(0, 1): 0, (0, 2): 1}, 1)

    def test_every_interval_colouring_passes_on_samples(self):
        # the spread bound is a theorem about interval colourings, so any
        # verified colouring must pass it on every connected piece
        from conftest import grow_connected_subgraph

        rng = random.Random(0)
        g = Graph(6, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)))
        from ilab import find_interval_colouring

        c = find_interval_colouring(g)
        assert verify(c).interval
        for _ in range(50):
            hv = grow_connected_subgraph(g, rng, 5)
            cap = max(g.degree(v) for v in hv)
            ok, _pair = spread_check(g, hv, c, cap)
            assert ok



def naive_report(n, colours):
    """verify's report, recomputed vertex by vertex over every edge."""
    violation, proper, interval = None, True, True
    for v in range(n):
        cols = sorted(c for e, c in colours.items() if v in e)
        if not cols:
            continue
        if len(set(cols)) < len(cols):
            proper = interval = False
            violation = violation or (v, f"repeated colour at vertex {v}: {cols}")
        elif cols[-1] - cols[0] != len(cols) - 1:
            interval = False
            violation = violation or (v, f"colours at vertex {v} not contiguous: {cols}")
    values = list(colours.values())
    return ColouringReport(
        proper, interval, len(set(values)), min(values, default=None),
        max(values, default=None), violation,
    )


def test_verify_matches_naive_reference():
    # sparse random graphs leave isolated vertices; interval colourings of
    # forests, nudged at a few edges, give repeats and gaps as well
    rng = random.Random(12)
    kinds = set()
    for _ in range(600):
        n = rng.randint(1, 14)
        if rng.random() < 0.5:
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
            colours = {e: rng.randint(-2, 4) for e in edges}
        else:
            edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.7]
            colours = dict(colour_forest(Graph(n, tuple(edges))).colours)
            for e in rng.sample(sorted(colours), min(len(colours), rng.randint(0, 2))):
                colours[e] += rng.choice((-2, -1, 1, 2))
        g = Graph(n, tuple(colours))
        got = verify(EdgeColouring(g, colours))
        assert got == naive_report(n, colours), colours
        kinds.add((got.proper, got.interval))
    assert kinds == {(True, True), (True, False), (False, False)}


def dict_of_lists_report(c):
    """The verifier before its array pass: each vertex's colours gathered in
    a dict of lists, then checked in ascending vertex order."""
    at = {}
    for (u, v), colour in c.colours.items():
        at.setdefault(u, []).append(colour)
        at.setdefault(v, []).append(colour)
    violation, proper, interval = None, True, True
    for v in sorted(at):
        cols = sorted(at[v])
        if len(set(cols)) != len(cols):
            proper = interval = False
            if violation is None:
                violation = (v, f"repeated colour at vertex {v}: {cols}")
            continue
        if cols[-1] - cols[0] != len(cols) - 1:
            interval = False
            if violation is None:
                violation = (v, f"colours at vertex {v} not contiguous: {cols}")
    values = list(c.colours.values())
    return ColouringReport(
        proper, interval, len(set(values)), min(values) if values else None,
        max(values) if values else None, violation,
    )


@st.composite
def oracle_colourings(draw):
    """Graphs on at most 9 vertices, the empty graph included, coloured with
    repeats, gaps and negative colours around 0 and +-10**30; two bases in
    one colouring put more than 2**63 between its colours."""
    n = draw(st.integers(0, 9))
    bases = draw(st.lists(st.sampled_from((0, -10**30, 10**30)), min_size=1, max_size=2))
    offset = st.integers(-3, 3)
    if draw(st.booleans()):
        # a forest's interval colouring, shifted, with a few edges nudged
        f = Graph(n, tuple((draw(st.integers(0, v - 1)), v)
                           for v in range(1, n) if draw(st.booleans())))
        colours = {e: bases[0] + col for e, col in colour_forest(f).colours.items()}
        for e in draw(st.lists(st.sampled_from(f.edges), max_size=2)) if f.edges else ():
            colours[e] += draw(offset)
    else:
        pairs = list(itertools.combinations(range(n), 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        colours = {e: draw(st.sampled_from(bases)) + draw(offset) for e in edges}
    return EdgeColouring(Graph(n, tuple(colours)), colours)


@settings(max_examples=300)
@given(oracle_colourings())
def test_verify_matches_the_dict_of_lists_verifier(c):
    assert verify(c) == dict_of_lists_report(c)


@st.composite
def forests(draw):
    n = draw(st.integers(1, 40))
    edges = []
    for v in range(1, n):
        if draw(st.booleans()):
            edges.append((draw(st.integers(0, v - 1)), v))
    return Graph(n, tuple(edges))


@given(forests())
def test_colour_forest_output_is_interval(f):
    c = colour_forest(f)
    assert verify(c).interval
    assert set(c.colours) == set(f.edges)


def reference_colour_forest(f):
    """colour_forest as a walk over every vertex id and the full adjacency."""
    colours, seen = {}, [False] * f.vertex_count
    for root in range(f.vertex_count):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, -1, 0)]
        while stack:
            v, parent, pcol = stack.pop()
            for w in f.adjacency[v]:
                if w != parent:
                    seen[w] = True
                    pcol += 1
                    colours[(min(v, w), max(v, w))] = pcol
                    stack.append((w, v, pcol))
    return colours


@given(forests(), st.integers(0, 60))
def test_colour_forest_matches_reference(f, extra):
    # extra ids carry no edge: the colours and their order must not move
    for g in (f, Graph(f.vertex_count + extra, f.edges)):
        got = colour_forest(g).colours
        assert list(got.items()) == list(reference_colour_forest(g).items())


def test_colour_forest_rejects_cycles():
    with pytest.raises(ValueError):
        colour_forest(Graph(3, ((0, 1), (1, 2), (0, 2))))


@st.composite
def forests_across_a_power_of_two(draw):
    """A random forest whose vertex ids straddle 2^k (some below, some at or
    above), with the ids in random order."""
    f = draw(forests())
    k = draw(st.integers(1, 12))
    pool = list(range(max(0, (1 << k) - f.vertex_count), (1 << k) + f.vertex_count))
    ids = draw(st.permutations(pool))[: f.vertex_count]
    return Graph(max(pool) + 1, tuple((ids[u], ids[v]) for u, v in f.edges))


@given(forests_across_a_power_of_two())
def test_trusted_forest_colouring_revalidates(f):
    c = colour_forest(f)
    EdgeColouring(c.graph, dict(c.colours))  # the validating constructor agrees
    assert c.graph is f
    assert verify(c).interval
    # one more edge inside a tree closes a cycle: a tree on three or more
    # vertices has a non-adjacent pair; otherwise add a triangle on new ids
    comp = next((vs for vs in f.components() if len(vs) >= 3), None)
    n, edges = f.vertex_count, set(f.edges)
    if comp is None:
        cyclic = Graph(n + 3, f.edges + ((n, n + 1), (n + 1, n + 2), (n, n + 2)))
    else:
        extra = next((u, v) for u, v in itertools.combinations(comp, 2) if (u, v) not in edges)
        cyclic = Graph(n, f.edges + (extra,))
    with pytest.raises(ValueError, match="cycle"):
        colour_forest(cyclic)


@given(forests())
def test_colouring_text_round_trip(f):
    c = colour_forest(f)
    back = parse_colouring_text(serialize_colouring_text(c))
    assert back.colours == c.colours
    assert back.graph.vertex_count == f.vertex_count


@given(forests())
def test_colouring_json_round_trip(f):
    c = colour_forest(f)
    back = parse_colouring_json(serialize_colouring_json(c))
    assert back.colours == c.colours


COLOURING_ERRORS = {
    "": "empty",
    "1 1\n": "file ended early",
    "2 1\n0 1\n": "expected '<u> <v> <colour>'",
    "2 1\n0 1 x\n": "line 2: non-integer",
    "2 2\n0 1 0\n0 1 1\n": "duplicate",
    "3 1\n\n\n\n0 1 x\n": "line 5: non-integer",  # blank lines count
}


@pytest.mark.parametrize("text", list(COLOURING_ERRORS))
def test_colouring_parse_errors(text):
    with pytest.raises(FormatError) as err:
        parse_colouring_text(text)
    assert COLOURING_ERRORS[text] in str(err.value)


def test_domain_mismatch_rejected():
    g = Graph(3, ((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        EdgeColouring(g, {(0, 1): 0})
    with pytest.raises(ValueError):
        EdgeColouring(g, {(0, 1): 0, (1, 2): 1, (0, 2): 2})
