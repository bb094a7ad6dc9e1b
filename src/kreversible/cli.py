"""Command-line front end.

Exit codes separate failure kinds so CI can tell them apart:
0 success, 1 internal invariant violation (a bug, e.g. a period above 2),
2 usage/parse errors, 3 scientific failure (an expected result was not
reproduced by the search or verification).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .dynamics import parse_config, run_trajectory
from .energy import bound_report, delta_energy_breakdown
from .errors import InternalInvariantError
from .extremal import (
    ExtremalRecord,
    _expected_tau_max,
    cross_validate_generator,
    generate_extremal_family,
    max_transient_search,
    verify_conjecture,
)
from .graphs import Graph, _one_based, parse_edge_list
from .trees import canonical_code
from .serialize import edges_to_text, render, text_header

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_SCIENCE = 3


def _load_graph(path: str) -> Graph:
    return parse_edge_list(Path(path).read_text(encoding="utf-8"))


def _trace_step(step) -> dict:
    return {"t": step.t, "x": step.config.to_string(), "E": step.energy}


def _emit(args: argparse.Namespace, payload, lines, records=()) -> None:
    print(render(args.format, payload, lines, records), end="")


def cmd_simulate(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    result = run_trajectory(g, parse_config(args.config, g.n), args.k)
    payload = {"tau": result.tau, "period": result.period, "plateau_energy": result.plateau_energy}
    lines = []
    if args.trace:
        payload["trace"] = [_trace_step(s) for s in result.trace]
        lines = [json.dumps(step) for step in payload["trace"]]
    lines.append(f"tau={result.tau} period={result.period} E_final={result.plateau_energy}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    traj = None
    if args.config is not None:
        traj = run_trajectory(g, parse_config(args.config, g.n), args.k)
    fields = bound_report(g, args.k, traj).to_json_dict()
    _emit(args, fields, [text_header(fields)])
    return EXIT_OK


def cmd_energy_trace(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    x0 = parse_config(args.config, g.n)
    result = run_trajectory(g, x0, args.k)
    for s in result.trace:
        b = delta_energy_breakdown(g, s.config, args.k)
        line = {
            "t": s.t,
            "x": s.config.to_string(),
            "E": b.energy,
            "E_aux": b.energy_aux,
            "s1": sorted(v + 1 for v in b.s1),
            "a_size": b.a_size,
            "b_size": b.b_size,
            "c_size": b.c_size,
            "delta": sum(b.per_vertex_delta),
        }
        print(json.dumps(line))
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    found = max_transient_search(_load_graph(args.graph), args.k)
    header = (
        f"tree_code={found.tree_code} k={found.k} tau_max={found.tau_max} "
        f"raw_configs={found.raw_config_count} "
        f"mod_negation={found.mod_negation_count} orbits={found.orbit_count}"
    )
    lines = [header, *(f"config={r.config.to_string()} period={r.period}" for r in found.records)]
    _emit(args, found.to_json_dict(), lines, found.records)
    return EXIT_OK


def cmd_conjecture(args: argparse.Namespace) -> int:
    report = verify_conjecture(
        args.n, k=args.k, workers=args.workers, checkpoint_path=args.checkpoint
    )
    payload, records = report.to_json_dict(), report.extremal_records
    lines = [text_header(payload)] + [
        f"tree_code={r.tree_code} edges={edges_to_text(r.tree_edges)} "
        f"config={r.config.to_string()} tau={r.tau} period={r.period}"
        for r in records
    ]
    _emit(args, payload, lines, records)
    return EXIT_OK if report.verdict == "pass" else EXIT_SCIENCE


def cmd_generate(args: argparse.Namespace) -> int:
    family = generate_extremal_family(args.n)
    expected_tau = _expected_tau_max(args.n)
    simulate = args.verify or args.format == "csv"  # CSV rows carry tau
    items, lines, records = [], [], []
    for index, (g, x) in enumerate(family, start=1):
        item = dict(index=index, edges=_one_based(g.edges), config=x.to_string())
        line = f"tree {index}: edges={edges_to_text(g.edges)} config={x.to_string()}"
        if simulate:
            run = run_trajectory(g, x, 2)
            item["tau"], item["period"] = run.tau, run.period
            line += f" tau={run.tau} period={run.period}"
            code = canonical_code(g).hex()
            records.append(ExtremalRecord(code, g.edges, x, run.tau, run.period))
        items.append(item)
        lines.append(line)
    _emit(args, items, lines, records)
    if args.verify and any(r.tau != expected_tau for r in records):
        print(f"verification failed: expected tau={expected_tau}", file=sys.stderr)
        return EXIT_SCIENCE
    return EXIT_OK


def cmd_validate_generator(args: argparse.Namespace) -> int:
    outcome = cross_validate_generator(verify_conjecture(args.n, workers=args.workers))
    payload = outcome.to_json_dict()
    _emit(args, payload, [text_header(payload), *(f"mismatch: {m}" for m in outcome.mismatches)])
    return EXIT_OK if outcome.verdict == "pass" else EXIT_SCIENCE


def _add_format(sub: argparse.ArgumentParser, choices: tuple[str, ...]) -> None:
    sub.add_argument("--format", choices=list(choices), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreversible",
        description="Synchronous k-reversible dynamics: simulation, energy bounds, "
        "and exhaustive extremal-tree search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one trajectory to its cycle")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--config", required=True, help="initial configuration string")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--trace", action="store_true", help="emit per-step JSON lines")
    _add_format(p, ("text", "json"))
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bounds", help="evaluate the closed-form transient bounds")
    p.add_argument("--graph", required=True)
    p.add_argument("--config", help="also run this start and report its plateau bound")
    p.add_argument("--k", type=int, default=2)
    _add_format(p, ("text", "json"))
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("energy-trace", help="per-step energy decomposition as JSON lines")
    p.add_argument("--graph", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--k", type=int, default=2)
    p.set_defaults(func=cmd_energy_trace)

    p = sub.add_parser("search", help="exhaustive max-transient search on one tree")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=2)
    _add_format(p, ("text", "json", "csv"))
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("conjecture", help="verify the n-3 transient pattern for one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--checkpoint", help="resumable JSONL ledger path")
    _add_format(p, ("text", "json", "csv"))
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("generate", help="emit the extremal tree family directly")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="simulate each tree and check tau")
    _add_format(p, ("text", "json", "csv"))
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "validate-generator", help="cross-check the family against the exhaustive search"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    _add_format(p, ("text", "json"))
    p.set_defaults(func=cmd_validate_generator)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
