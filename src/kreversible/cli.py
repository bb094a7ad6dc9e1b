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
    cross_validate_generator,
    generate_extremal_family,
    max_transient_search,
    verify_conjecture,
)
from .graphs import Graph, parse_edge_list
from .trees import canonical_code
from .serialize import canonical_json, edges_to_text, records_to_csv

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_SCIENCE = 3


def _load_graph(path: str) -> Graph:
    return parse_edge_list(Path(path).read_text(encoding="utf-8"))


def _trace_step(step) -> dict:
    return {"t": step.t, "x": step.config.to_string(), "E": step.energy}


def cmd_simulate(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    x0 = parse_config(args.config, g.n)
    result = run_trajectory(g, x0, args.k)
    if args.format == "json":
        payload = {
            "tau": result.tau,
            "period": result.period,
            "plateau_energy": result.plateau_energy,
        }
        if args.trace:
            payload["trace"] = [_trace_step(s) for s in result.trace]
        print(canonical_json(payload))
    else:
        if args.trace:
            for s in result.trace:
                print(json.dumps(_trace_step(s)))
        print(f"tau={result.tau} period={result.period} E_final={result.plateau_energy}")
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    traj = None
    if args.config is not None:
        traj = run_trajectory(g, parse_config(args.config, g.n), args.k)
    report = bound_report(g, args.k, traj)
    if args.format == "json":
        print(canonical_json(report.to_json_dict()))
    else:
        fields = report.to_json_dict()
        print(" ".join(f"{key}={value}" for key, value in fields.items() if value is not None))
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
    g = _load_graph(args.graph)
    found = max_transient_search(g, args.k)
    if args.format == "json":
        print(canonical_json(found.to_json_dict()))
    elif args.format == "csv":
        print(records_to_csv(found.records), end="")
    else:
        print(
            f"tree_code={found.tree_code} k={found.k} tau_max={found.tau_max} "
            f"raw_configs={found.raw_config_count} "
            f"mod_negation={found.mod_negation_count} orbits={found.orbit_count}"
        )
        for r in found.records:
            print(f"config={r.config.to_string()} period={r.period}")
    return EXIT_OK


def cmd_conjecture(args: argparse.Namespace) -> int:
    report = verify_conjecture(
        args.n, k=args.k, workers=args.workers, checkpoint_path=args.checkpoint
    )
    if args.format == "json":
        print(canonical_json(report.to_json_dict()))
    elif args.format == "csv":
        print(records_to_csv(report.extremal_records), end="")
    else:
        print(
            f"n={report.n} k={report.k} tau_max={report.tau_max} "
            f"expected_tau_max={report.expected_tau_max} "
            f"tree_count={report.tree_count} "
            f"expected_tree_count={report.expected_tree_count} verdict={report.verdict}"
        )
        for r in report.extremal_records:
            print(
                f"tree_code={r.tree_code} edges={edges_to_text(r.tree_edges)} "
                f"config={r.config.to_string()} tau={r.tau} period={r.period}"
            )
    return EXIT_OK if report.verdict == "pass" else EXIT_SCIENCE


def cmd_generate(args: argparse.Namespace) -> int:
    family = generate_extremal_family(args.n)
    expected_tau = args.n - 3
    verified: list[tuple[int, int]] = []
    if args.verify or args.format == "csv":
        runs = [run_trajectory(g, x, 2) for g, x in family]
        verified = [(t.tau, t.period) for t in runs]
    if args.format == "json":
        items = []
        for index, (g, x) in enumerate(family):
            item = {
                "index": index + 1,
                "edges": [[u + 1, v + 1] for u, v in g.edges],
                "config": x.to_string(),
            }
            if verified:
                item["tau"], item["period"] = verified[index]
            items.append(item)
        print(canonical_json(items))
    elif args.format == "csv":
        records = [
            ExtremalRecord(canonical_code(g).hex(), g.edges, x, verified[i][0], verified[i][1])
            for i, (g, x) in enumerate(family)
        ]
        print(records_to_csv(records), end="")
    else:
        for index, (g, x) in enumerate(family):
            line = f"tree {index + 1}: edges={edges_to_text(g.edges)} config={x.to_string()}"
            if verified:
                line += f" tau={verified[index][0]} period={verified[index][1]}"
            print(line)
    if args.verify and any(tau != expected_tau for tau, _ in verified):
        print(f"verification failed: expected tau={expected_tau}", file=sys.stderr)
        return EXIT_SCIENCE
    return EXIT_OK


def cmd_validate_generator(args: argparse.Namespace) -> int:
    outcome = cross_validate_generator(verify_conjecture(args.n, workers=args.workers))
    if args.format == "json":
        print(canonical_json(outcome.to_json_dict()))
    else:
        print(
            f"n={outcome.n} expected_tau={outcome.expected_tau} "
            f"all_reach_bound={str(outcome.all_reach_bound).lower()} "
            f"codes_match={str(outcome.codes_match).lower()} "
            f"configs_match={str(outcome.configs_match).lower()} verdict={outcome.verdict}"
        )
        for line in outcome.mismatches:
            print(f"mismatch: {line}")
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
