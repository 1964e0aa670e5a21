"""Command-line front end: one binary, one subcommand per operation.

Exit codes: 0 = verified/found, 1 = negative result (not colourable, bound
violated, partition survived, ...), 2 = usage or input error, 3 = search
budget exhausted. Every subcommand accepts ``--manifest FILE`` to record a
run manifest (inputs/outputs with SHA-256 digests, config echo, timing);
``gen-lower`` alone takes ``--seed`` (default 0). This module decides what
the stdout lines, reports and manifests say; :mod:`ilab.formats` writes
every file, and sets out what each input file may contain. Output files are
deterministic byte-for-byte for fixed inputs; colour files are normalised so
the smallest colour is 0. An output file that cannot be written, the
manifest included, is an input error (exit 2).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from dataclasses import asdict

from .colouring import EdgeColouring, count_colours, verify
from .decompose import FactorPart, PipelineConfig, decompose_theta, objective_check
from .exact import (
    SearchBudget,
    SearchBudgetExceeded,
    exact_thickness,
    find_interval_colouring,
    max_colours,
)
from .formats import (
    FormatError,
    parse_colouring_json,
    parse_colouring_text,
    parse_graph_json,
    parse_graph_text,
    parse_layered_json,
    parse_partition_json,
    serialize_colouring_json,
    serialize_colouring_text,
    serialize_graph_json,
    serialize_graph_text,
    serialize_json,
    serialize_layered_json,
)
from .graphs import Graph
from .planar import (
    FamilySpec,
    extremal_family,
    hereditary_sparsity,
    unique_colour_split,
    verify_colour_bound,
)
from .randlab import (
    LowerBoundParams,
    adversarial_probe,
    generate,
    validate_spread_witness,
)


class _Files:
    """File IO with digest tracking for the run manifest."""

    def __init__(self):
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}
        self.config: dict = {}

    def read(self, path: str) -> str:
        with open(path, "rb") as fh:
            data = fh.read()
        self.inputs[path] = hashlib.sha256(data).hexdigest()
        return data.decode("utf-8")

    def write(self, path: str, text: str) -> None:
        data = text.encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(data)
        self.outputs[path] = hashlib.sha256(data).hexdigest()


def _load_graph(files: _Files, path: str) -> Graph:
    text = files.read(path)
    return parse_graph_json(text) if path.endswith(".json") else parse_graph_text(text)


def _load_colouring(files: _Files, path: str) -> EdgeColouring:
    text = files.read(path)
    return parse_colouring_json(text) if path.endswith(".json") else parse_colouring_text(text)


def _write_colouring(files: _Files, path: str, c: EdgeColouring) -> None:
    write = serialize_colouring_json if path.endswith(".json") else serialize_colouring_text
    files.write(path, write(c.normalised()))


def _write_graph(files: _Files, path: str, g: Graph) -> None:
    write = serialize_graph_json if path.endswith(".json") else serialize_graph_text
    files.write(path, write(g))


def _require_match(g: Graph, c: EdgeColouring) -> None:
    if c.graph.vertex_count != g.vertex_count or c.graph.edges != g.edges:
        raise FormatError("colouring file does not describe the given graph")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_check(args, files: _Files) -> int:
    g = _load_graph(files, args.graph)
    c = _load_colouring(files, args.colouring)
    _require_match(g, c)
    report = verify(c)
    if report.interval:
        print(f"interval, {report.distinct_colours} colours")
        return 0
    vertex, reason = report.first_violation
    kind = "proper, not interval" if report.proper else "not proper"
    print(f"{kind}: vertex {vertex} ({reason})")
    return 1


def _cmd_solve(args, files: _Files) -> int:
    g = _load_graph(files, args.graph)
    if args.max_colours is not None:
        if args.mode != "colourable":
            raise ValueError("--max-colours applies to --mode colourable only")
        if args.max_colours < 1:
            raise ValueError("max_colours must be >= 1")
    budget = SearchBudget(node_limit=args.node_limit, time_limit=args.time_limit)
    files.config.update(mode=args.mode, kmax=args.kmax, max_colours=args.max_colours)
    try:
        if args.mode == "colourable":
            c = find_interval_colouring(g, budget, max_colours=args.max_colours)
            if c is None:
                cap = args.max_colours
                print("not interval colourable" + ("" if cap is None else f" within {cap} colours"))
                return 1
            print(f"interval colouring with {count_colours(c)} colours")
            if args.out:
                _write_colouring(files, args.out, c)
            return 0
        if args.mode == "tmax":
            result = max_colours(g, budget)
            if result is None:
                print("not interval colourable")
                return 1
            t, c = result
            print(f"maximum interval colours: {t}")
            if args.out:
                _write_colouring(files, args.out, c)
            return 0
        # theta
        result = exact_thickness(g, k_max=args.kmax, budget=budget)
        if result is None:
            print(f"interval thickness exceeds {args.kmax}")
            return 1
        print(f"interval thickness: {result.theta}")
        if args.out:
            parts = EdgeColouring(g, dict(result.partition.part_of))
            _write_colouring(files, args.out, parts)
        return 0
    except SearchBudgetExceeded as exc:
        print(f"budget exhausted: {exc}")
        return 3


def _cmd_decompose(args, files: _Files) -> int:
    g = _load_graph(files, args.graph)
    cfg = PipelineConfig(delta=args.delta)
    files.config.update(delta=cfg.delta, gamma=cfg.gamma)
    report = decompose_theta(g, cfg)
    all_ok = all(verify(c).interval for c in report.part_colourings())
    regular = sum(isinstance(part, FactorPart) for part in report.parts)
    print(
        f"{g.edge_count} edges -> {report.part_count} parts "
        f"({regular} regular, {report.part_count - regular} forest) "
        f"across {len(report.layers)} layers"
    )
    if report.stuck_layers:
        bits = ", ".join(str(b) for b in sorted(set(report.stuck_layers)))
        print(f"increment stalled on layer bits {bits}; remainder went to forests")
    print("all parts verified interval" if all_ok else "PART VERIFICATION FAILED")
    if args.report:
        parts_doc = []
        for index, part in enumerate(report.parts):
            edges, colours = part.colouring.graph.edges, part.colouring.colours
            entry = {"index": index, "layer_bit": part.layer_bit, "kind": "forest",
                     "edges": [list(e) for e in edges], "colours": [colours[e] for e in edges]}
            if isinstance(part, FactorPart):
                entry.update(kind="factor", k=part.k, trace=[
                    {"part_size": t.part_size, "density": t.density, "escape": t.escape}
                    for t in part.trace
                ])
            parts_doc.append(entry)
        doc = {
            "n": g.vertex_count,
            "m": g.edge_count,
            "delta": cfg.delta,
            "gamma": cfg.gamma,
            "part_count": report.part_count,
            "stuck_layers": sorted(set(report.stuck_layers)),
            "layers": [
                {
                    "bit": layer.bit,
                    "part_size": len(layer.graph.left),
                    "edges": len(layer.graph.edges),
                }
                for layer in report.layers
            ],
            "parts": parts_doc,
        }
        files.write(args.report, serialize_json(doc))
    return 0 if all_ok else 1


def _cmd_gen_lower(args, files: _Files) -> int:
    if args.r < 1:  # checked before the default delta = 1/(1000 r) divides by it
        raise ValueError(f"--r must be at least 1, got {args.r}")
    delta = args.delta if args.delta is not None else 1.0 / (1000.0 * args.r)
    epsilon = args.epsilon if args.epsilon is not None else delta ** (args.r + 2)
    params = LowerBoundParams(
        r=args.r, n=args.n, delta=delta, epsilon=epsilon, seed=args.seed
    )
    files.config.update(
        r=params.r, n=params.n, delta=delta, epsilon=epsilon, seed=params.seed
    )
    lb = generate(params)
    files.write(args.out, serialize_layered_json(lb))
    for i, lg in enumerate(lb.layer_graphs, start=1):
        mean, _sd = params.layer_stats(i)
        print(
            f"layer {i}: |A_{i}| = {len(lb.a_layers[i - 1])}, "
            f"p = {params.p(i):.3g}, edges = {len(lg.edges)} (expected {mean:.3g})"
        )
    return 0


def _cmd_probe(args, files: _Files) -> int:
    lb = parse_layered_json(files.read(args.graph))
    part_of = parse_partition_json(files.read(args.partition), lb.all_edges())
    files.config.update(budget_scale=args.budget_scale)
    trace = adversarial_probe(lb, part_of, budget_scale=args.budget_scale)
    for st in trace.stages:
        line = (
            f"stage {st.k}: part {st.part}, ground {st.ground_before} -> "
            f"{st.ground_after}, worst deletion {st.deletion_proportion:.3f}"
        )
        if st.forced_repeat:
            line += " [forced repeat]"
        if st.hypotheses is not None:
            line += (
                f" (biregular={st.hypotheses.biregular},"
                f" pseudorandom={st.hypotheses.pseudorandom})"
            )
        print(line)
    for w in trace.witnesses:
        ok, msg = validate_spread_witness(lb, part_of, w)
        print(
            f"spread witness: part {w.part}, pivot {w.pivot}, {w.edge_count} edges, "
            f"forced spread {w.forced_spread} > cap {w.cap}; revalidation: {msg}"
        )
        if not ok:
            print("WITNESS FAILED REVALIDATION")
            return 2
    if trace.overruns:
        print(f"{len(trace.overruns)} uncertified budget overruns recorded")
    if args.report:
        doc = {
            "budget_scale": trace.budget_scale,
            "contradiction": trace.contradiction,
            "refuted": trace.refuted,
            "used_parts": trace.used_parts,
            "stages": [
                {key: v for key, v in asdict(st).items() if key != "hypotheses"}
                for st in trace.stages
            ],
            "witnesses": [asdict(w) for w in trace.witnesses],
            "overruns": [asdict(o) for o in trace.overruns],
        }
        files.write(args.report, serialize_json(doc))
    last = trace.stages[-1].k if trace.stages else None
    print({
        "witness": "refuted: a spread witness certifies an uncolourable part",
        "repeat": f"refuted: forced part repeat at stage {last}",
        "exhausted": f"exhausted at stage {last}: no surviving edges",
        "survived": f"partition survived all {lb.params.r} stages (parts: {trace.used_parts})",
    }[trace.outcome])
    return 0 if trace.refuted else 1


def _cmd_gen_planar(args, files: _Files) -> int:
    removed = frozenset(int(x) for x in args.remove.split(",") if x) if args.remove else frozenset()
    spec = FamilySpec(s=args.s, removed_curved=removed, odd=args.odd)
    g, c = extremal_family(spec)
    report = verify(c)
    files.config.update(s=args.s, removed=sorted(removed), odd=args.odd)
    print(
        f"family s={args.s}{' odd' if args.odd else ''}: {g.vertex_count} vertices, "
        f"{g.edge_count} edges, {report.distinct_colours} colours"
    )
    if args.out:
        _write_graph(files, args.out, g)
    if args.colouring_out:
        _write_colouring(files, args.colouring_out, c)
    return 0 if report.interval else 1


def _cmd_split(args, files: _Files) -> int:
    g = _load_graph(files, args.graph)
    c = _load_colouring(files, args.colouring)
    _require_match(g, c)
    result = unique_colour_split(c)
    if result is None:
        print("no unique interior colour to split at")
        return 1
    t = count_colours(c)
    n1, n2 = count_colours(result.c1), count_colours(result.c2)
    s1, s2 = set(result.v1), set(result.v2)
    cross = sum(1 for u, v in g.edges if (u in s1 and v in s2) or (u in s2 and v in s1))
    print(
        f"split at colour {result.colour} on edge {result.edge}: "
        f"sides {len(result.v1)}|{len(result.v2)}, cross edges {cross}"
    )
    print(f"halves use {n1} and {n2} colours ({n1} + {n2} = {t} + 1)")
    if args.out:
        _write_colouring(files, args.out + "1.txt", result.c1)
        _write_colouring(files, args.out + "2.txt", result.c2)
    return 0


def _cmd_bound(args, files: _Files) -> int:
    if args.colours is not None and args.colours < 0:
        raise ValueError("--colours must be non-negative")
    g = _load_graph(files, args.graph)
    files.config.update(k=args.k, colours=args.colours)
    ok, witness = hereditary_sparsity(g, args.k)
    if not ok:
        print(f"sparsity violated: subset {witness} is too dense for k={args.k}")
        return 1
    report = verify_colour_bound(g, args.k, args.colours if args.colours else 0)
    print(
        f"hereditary sparsity holds for k={args.k}; "
        f"colour bound (k/2)n+1-k = {report.bound:g}"
    )
    if args.colours is not None:
        verdict = "within" if report.holds else "EXCEEDS"
        print(f"{args.colours} colours {verdict} the bound")
        return 0 if report.holds else 1
    return 0


def _cmd_objective(args, files: _Files) -> int:
    report = objective_check(args.delta, args.step)
    files.config.update(delta=args.delta, step=args.step)
    x, y = report.argmax
    print(f"max {report.max_value:.4f} at ({x:.2f},{y:.2f}), boundary x=0 excluded")
    return 0 if report.max_value < 1.0 else 1


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ilab", description="interval edge-colouring laboratory"
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--manifest", help="write a run manifest JSON here")

    p = sub.add_parser("check", help="verify a colouring file against a graph")
    p.add_argument("graph")
    p.add_argument("colouring")
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve", help="exact search: colourability, max colours, thickness")
    p.add_argument("graph")
    p.add_argument(
        "--mode", choices=["colourable", "tmax", "theta"], default="colourable"
    )
    p.add_argument("--max-colours", type=int, default=None, help="colourable mode only")
    p.add_argument("--kmax", type=int, default=4, help="thickness search cap")
    p.add_argument("--node-limit", type=int, default=5_000_000)
    p.add_argument("--time-limit", type=float, default=None, help="positive seconds")
    p.add_argument("-o", "--out", help="write the witness colouring/partition here")
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("decompose", help="partition into interval-colourable parts")
    p.add_argument("graph")
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--report", help="write the full JSON report here")
    common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("gen-lower", help="generate the layered random bipartite graph")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, default=None, help="default 1/(1000 r)")
    p.add_argument("--epsilon", type=float, default=None, help="default delta^(r+2)")
    p.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
    p.add_argument("-o", "--out", required=True, help="output JSON path")
    common(p)
    p.set_defaults(func=_cmd_gen_lower)

    p = sub.add_parser("probe", help="probe an edge partition of a layered graph")
    p.add_argument("graph", help="layered-bipartite JSON from gen-lower")
    p.add_argument("partition", help='JSON {"edges": [[u,v],...], "parts": [...]}')
    p.add_argument("--budget-scale", type=float, default=1.0)
    p.add_argument("--report", help="write the probe trace JSON here")
    common(p)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("gen-planar", help="generate the extremal planar family")
    p.add_argument("--s", type=int, required=True, help="number of ladder columns")
    p.add_argument("--remove", default="", help="comma-separated curved edge indices")
    p.add_argument("--odd", action="store_true", help="append the pendant vertex")
    p.add_argument("-o", "--out", help="graph output path")
    p.add_argument("-c", "--colouring-out", help="colouring output path")
    common(p)
    p.set_defaults(func=_cmd_gen_planar)

    p = sub.add_parser("split", help="split a colouring at a unique interior colour")
    p.add_argument("graph")
    p.add_argument("colouring")
    p.add_argument("-o", "--out", help="prefix for the two half colouring files")
    common(p)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("bound", help="hereditary sparsity and the colour-count bound")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--colours", type=int, default=None, help="colour count to test")
    common(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("objective", help="grid-check the escape dichotomy objective")
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--step", type=float, default=0.01)
    common(p)
    p.set_defaults(func=_cmd_objective)

    return top


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _parser().parse_args(argv)
    files = _Files()
    started = time.perf_counter()
    try:
        code = args.func(args, files)
        if args.manifest:
            manifest = {
                "subcommand": args.command,
                "argv": argv,
                "inputs": files.inputs,
                "outputs": files.outputs,
                "config": files.config,
                "exit_code": code,
                "timing_seconds": round(time.perf_counter() - started, 6),
            }
            files.write(args.manifest, serialize_json(manifest))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
