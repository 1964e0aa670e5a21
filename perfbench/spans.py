"""Spans around ilab's public functions, recorded from outside the package.

``Tracer.installed()`` replaces each target attribute with a wrapper that
records a span (name, parent span, start, end) and restores every original
object on exit. A function is wrapped at the attribute its caller looks it
up through: ``ilab.cli.decompose_theta`` is what the CLI calls, and
``Dinic.max_flow`` is looked up on the class. Per-arc and per-node calls
(``Dinic.add_edge``, ``_Meter.tick``, ``_UnionFind.find``) are never
wrapped; the arc count is derived from ``find_k_factor``'s arguments.

Spans stay in memory; ``layer_metrics`` turns them into per-layer totals,
where a span's self time is its duration minus its child spans' durations.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter, defaultdict


def _stuck(counts, args, result):
    counts["decompose.stuck_layers"] += len(result.stuck_layers)


def _k_factor(counts, args, result):
    b, k = args
    if k > 0:  # source->left, right->sink and one arc per edge
        counts["flows.network_arcs"] += 2 * len(b.left) + len(b.edges)
    counts["decompose.find_k_factor.failed"] += result.factor is None


def _step(counts, args, result):
    counts["decompose.increment_step.restrictions"] += result.kind == "restriction"


def _forests(counts, args, result):
    counts["decompose.forests"] += len(result)


def _nodes(counts, args, result):
    if result is not None:
        counts["exact.theta_nodes"] += result.nodes


def _probe(counts, args, result):
    counts["randlab.witnesses"] += len(result.witnesses)
    counts["randlab.overruns"] += len(result.overruns)


# (module, attribute path, span name, hook deriving counts from a result)
TARGETS = [
    ("ilab.cli", "parse_graph_text", "graphs.parse", None),
    ("ilab.cli", "parse_graph_json", "graphs.parse", None),
    ("ilab.graphs", "BipartiteGraph.__post_init__", "graphs.bipartite_init", None),
    ("ilab.graphs", "BipartiteGraph.restrict", "graphs.restrict", None),
    ("ilab.randlab", "diameter", "graphs.diameter", None),
    ("ilab.cli", "verify", "colouring.verify", None),
    ("ilab.decompose", "colour_forest", "colouring.colour_forest", None),
    ("ilab.flows", "Dinic.max_flow", "flows.max_flow", None),
    ("ilab.decompose", "hopcroft_karp", "flows.hopcroft_karp", None),
    ("ilab.cli", "decompose_theta", "decompose.decompose_theta", _stuck),
    ("ilab.decompose", "bit_split", "decompose.bit_split", None),
    ("ilab.decompose", "find_k_factor", "decompose.find_k_factor", _k_factor),
    ("ilab.decompose", "density_increment_step", "decompose.increment_step", _step),
    ("ilab.decompose", "matching_decomposition", "decompose.matching_decomposition", None),
    ("ilab.decompose", "forest_partition", "decompose.forest_partition", _forests),
    ("ilab.cli", "find_interval_colouring", "exact.find_interval_colouring", None),
    ("ilab.cli", "max_colours", "exact.max_colours", None),
    ("ilab.cli", "exact_thickness", "exact.exact_thickness", _nodes),
    ("ilab.cli", "hereditary_sparsity", "planar.hereditary_sparsity", None),
    ("ilab.cli", "generate", "randlab.generate", None),
    ("ilab.cli", "parse_layered_json", "randlab.parse_layered_json", None),
    ("ilab.randlab", "check_biregular", "randlab.check_biregular", None),
    ("ilab.randlab", "check_pseudorandom", "randlab.check_pseudorandom", None),
    ("ilab.randlab", "find_dense_monochromatic", "randlab.find_dense_monochromatic", None),
    ("ilab.cli", "adversarial_probe", "randlab.adversarial_probe", _probe),
    ("ilab.cli", "validate_spread_witness", "randlab.validate_spread_witness", None),
]


def resolve(module: str, path: str) -> tuple[object, str]:
    """The object owning the attribute, and the attribute's name."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module, path, name, hook in TARGETS:
                owner, attr = resolve(module, path)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics per pass, named ``<module>.<function>.<what>``."""
    calls: Counter = Counter()
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    child = [0.0] * len(tracer.spans)
    for name, parent, start, end in tracer.spans:
        calls[name] += 1
        total[name] += end - start
        if parent >= 0:
            child[parent] += end - start
    for (name, _, start, end), inner in zip(tracer.spans, child):
        own[name] += end - start - inner
    counts = tracer.counts

    out: dict[str, float] = {"cli.main.self_s": own["cli.main"]}
    for name in ("graphs.parse", "graphs.bipartite_init", "graphs.restrict",
                 "graphs.diameter", "colouring.verify", "colouring.colour_forest",
                 "flows.max_flow", "flows.hopcroft_karp"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = total[name]
    out["flows.network_arcs"] = counts["flows.network_arcs"]
    out["decompose.decompose_theta.self_s"] = own["decompose.decompose_theta"]
    out["decompose.bit_split.s"] = total["decompose.bit_split"]
    k_calls = calls["decompose.find_k_factor"]
    k_failed = counts["decompose.find_k_factor.failed"]
    out["decompose.find_k_factor.calls"] = k_calls
    out["decompose.find_k_factor.self_s"] = own["decompose.find_k_factor"]
    out["decompose.find_k_factor.failed"] = k_failed
    out["decompose.find_k_factor.useful_ratio"] = (
        (k_calls - k_failed) / k_calls if k_calls else 0.0)
    out["decompose.increment_step.self_s"] = own["decompose.increment_step"]
    out["decompose.increment_step.restrictions"] = counts[
        "decompose.increment_step.restrictions"]
    out["decompose.stuck_layers"] = counts["decompose.stuck_layers"]
    out["decompose.matching_decomposition.calls"] = calls["decompose.matching_decomposition"]
    out["decompose.matching_decomposition.s"] = total["decompose.matching_decomposition"]
    out["decompose.forest_partition.s"] = total["decompose.forest_partition"]
    out["decompose.forests"] = counts["decompose.forests"]
    for name in ("exact.find_interval_colouring", "exact.max_colours",
                 "exact.exact_thickness", "planar.hereditary_sparsity"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = total[name]
    out["exact.theta_nodes"] = counts["exact.theta_nodes"]
    theta_s = total["exact.exact_thickness"]
    out["exact.theta_nodes_per_s"] = counts["exact.theta_nodes"] / theta_s if theta_s else 0.0
    for name in ("randlab.generate", "randlab.parse_layered_json", "randlab.check_biregular"):
        out[f"{name}.s"] = total[name]
    out["randlab.check_pseudorandom.calls"] = calls["randlab.check_pseudorandom"]
    out["randlab.check_pseudorandom.s"] = total["randlab.check_pseudorandom"]
    out["randlab.find_dense_monochromatic.self_s"] = own["randlab.find_dense_monochromatic"]
    out["randlab.adversarial_probe.self_s"] = own["randlab.adversarial_probe"]
    out["randlab.validate_spread_witness.calls"] = calls["randlab.validate_spread_witness"]
    out["randlab.validate_spread_witness.s"] = total["randlab.validate_spread_witness"]
    out["randlab.witnesses"] = counts["randlab.witnesses"]
    out["randlab.overruns"] = counts["randlab.overruns"]
    ratios = {"decompose.find_k_factor.useful_ratio", "exact.theta_nodes_per_s"}
    return {k: v if k in ratios else v / passes for k, v in out.items()}
