#!/usr/bin/env python3
"""kreversible benchmark: time calls into the program on one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The program is imported from ./src and
nowhere else. Each run is one fresh process: it builds the workload's inputs
from the seed, makes passes of timed calls until the next pass would end
after --seconds, checks every output outside the timed calls, and prints
human-readable lines, the environment, and as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end_to_end ones of BENCHMARK.json, with
--trace 1 the per_layer ones. An untraced run also times set-up in fresh
interpreters, spread over the run between passes. A traced run alternates
untraced and traced passes: per-layer numbers come from the traced passes
(see tracer.py), and trace.overhead_frac compares each traced pass with the
untraced pass before it. --seconds defaults to run_seconds of BENCHMARK.json.

Workloads (the "why" of each is in BENCHMARK.json):
  conjecture-n13           kreversible conjecture --n 13 --format json, 1 worker
  conjecture-n13-parallel  the same on every core with a checkpoint ledger,
                           then a resume from half the ledger and a torn line
  search-large             max_transient_search on seeded random trees, n = 19..22
  trajectories             run_trajectory (and energy accounting) on seeded
                           sparse graphs with n = 64..1024
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"  # scratch files of a run (the parallel workload's ledger)
DEFAULT_SEED = 1
SETUP_PROBES = 12


def load_program() -> SimpleNamespace:
    """Import kreversible from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        package = importlib.import_module("kreversible")
    except ImportError as exc:
        raise SystemExit(f"error: cannot import kreversible from {src}: {exc}") from None
    if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: kreversible was imported from {package.__file__}, not {src}")
    names = ("cli", "dynamics", "energy", "extremal", "graphs")
    return SimpleNamespace(**{name: importlib.import_module(f"kreversible.{name}") for name in names})


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def count_failures(workload, ops, verified: set) -> int:
    """Check each operation's output; a digest already checked is not checked again."""
    failed = 0
    for op in ops:
        try:
            digest = workload.digest(op)
            problems = [] if digest in verified else workload.check(op)
        except Exception as exc:  # a malformed output is a failed operation
            digest, problems = None, [f"check raised {exc!r}"]
        if problems:
            failed += 1
            for problem in problems[:5]:
                print(f"check failed: {problem}", file=sys.stderr)
        else:
            verified.add(digest)
    return failed


def with_negations(reported: set) -> set:
    """Reported (tree edges, bits) keys together with their global negations."""
    return reported | {(edges, bits ^ ((1 << (len(edges) + 1)) - 1)) for edges, bits in reported}


class Measurement:
    """Passes of one run, split into untraced and traced ones."""

    def __init__(self) -> None:
        self.untraced: list = []
        self.traced: list = []
        self.profiles: list = []  # per traced pass: (profile, counters, replay, orbit useful counts)
        self.attempted = 0
        self.failed = 0


def measure(workload, seconds: float, trace: bool, probes=None) -> Measurement:
    """Passes until the next one would end after `seconds`; the set-up
    probes run between passes and their time is not counted."""
    tracer = Tracer() if trace else None
    m = Measurement()
    verified: set = set()
    durations = []
    begin = time.monotonic()
    probing_s = 0.0
    while True:
        start = time.monotonic()
        traced = tracer is not None and (len(m.untraced) + len(m.traced)) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            result = workload.run_pass()
        except Exception:  # the program raised: every operation of the pass failed
            traceback.print_exc()
            result = None
        finally:
            if traced:
                tracer.uninstall()
        if result is None:
            m.attempted += workload.ops_per_pass
            m.failed += workload.ops_per_pass
        else:
            m.attempted += len(result.ops)
            m.failed += count_failures(workload, result.ops, verified)
            (m.traced if traced else m.untraced).append(result)
            if traced:
                useful = with_negations(result.reported)
                m.profiles.append((
                    tracer.profile(),
                    dict(tracer.counters),
                    (sum(key in useful for key in tracer.replayed), len(tracer.replayed)),
                    (sum(key in useful for key in tracer.orbit_coded), len(tracer.orbit_coded)),
                ))
                tracer.reset()
            result.ops = result.reported = None  # checked; keep only the timings
        now = time.monotonic()
        durations.append(now - start)
        elapsed = now - begin - probing_s
        both_kinds = not trace or (m.untraced and m.traced)
        if elapsed + median(durations) > seconds and both_kinds:
            return m
        if result is None and elapsed > seconds:  # passes keep failing
            return m
        if probes is not None:
            probing_s += probes.catch_up(elapsed / seconds)


def end_to_end(m: Measurement, peak_mb: float, setup: list[float]) -> tuple[dict, dict]:
    """Values and sample counts of the end-to-end metrics."""
    passes = len(m.untraced)
    values = {
        "wall_s": median([p.wall_s for p in m.untraced]),
        "configs_per_s": median([p.configs / p.wall_s for p in m.untraced]),
        "setup_s": median(setup),
        "peak_rss_mb": peak_mb,
    }
    samples = {"wall_s": passes, "configs_per_s": passes, "setup_s": len(setup), "peak_rss_mb": 1}
    return values, samples


def peak_rss_mb(workload, child_kib: int) -> float:
    """Peak RSS of this process; for a workload that runs a worker pool, plus
    the workers times child_kib, the largest child's peak before the first
    set-up probe (an upper estimate, since forked workers share pages with
    this process)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = getattr(workload, "workers", 0)
    return (own + workers * child_kib) / 1024.0  # ru_maxrss is in KiB on Linux


def per_layer(m: Measurement) -> tuple[dict, dict]:
    """Per-layer metrics, each per traced pass, and the merged span table."""
    runs = len(m.traced)
    spans: dict[str, list[float]] = {}
    counters: Counter = Counter()
    covered = 0.0
    replay = [0, 0]  # useful, all
    orbit = [0, 0]
    for profile, counts, replayed, orbit_coded in m.profiles:
        covered += profile["covered_s"]
        for name, row in profile["spans"].items():
            spans[name] = [a + b for a, b in zip(spans.get(name, [0, 0.0, 0.0]), row)]
        counters.update(counts)
        replay = [a + b for a, b in zip(replay, replayed)]
        orbit = [a + b for a, b in zip(orbit, orbit_coded)]

    def span(name: str, column: int) -> float:  # column: 0 calls, 1 inclusive s, 2 self s
        return spans.get(name, [0, 0.0, 0.0])[column] / runs

    def extra(name: str) -> float:
        return median([p.extra.get(name, 0) for p in m.traced])

    pass_wall = sum(p.wall_s for p in m.traced) / runs
    tables_s = span("tables.state_tables", 1) + span("tables.sweep", 2)
    values = {
        "extremal.replays": replay[1] / runs,
        "extremal.replay_useful_ratio": replay[0] / replay[1] if replay[1] else 0.0,
        "dynamics.run_trajectory_calls": span("dynamics.run_trajectory", 0),
        "dynamics.run_trajectory_s": span("dynamics.run_trajectory", 1),
        "dynamics.steps": counters["dynamics.steps"] / runs,
        "extremal.orbit_code_calls": span("extremal.config_orbit_code", 0),
        "extremal.orbit_code_s": span("extremal.config_orbit_code", 1),
        "extremal.orbit_useful_ratio": orbit[0] / orbit[1] if orbit[1] else 0.0,
        "trees.canonical_code_calls": span("trees.canonical_code", 0),
        "trees.canonical_code_s": span("trees.canonical_code", 1),
        "tables.state_tables_calls": span("tables.state_tables", 0),
        "tables.state_tables_s": span("tables.state_tables", 1),
        "tables.sweep_calls": span("tables.sweep", 0),
        "tables.sweep_self_s": span("tables.sweep", 2),
        "tables.wall_share": tables_s / pass_wall,
        "tables.starts_swept": counters["tables.starts_swept"] / runs,
        "tables.lockstep_state_steps": counters["tables.lockstep_state_steps"] / runs,
        "tables.table_bytes": counters["tables.table_bytes"] / runs,
        "extremal.search_calls": span("extremal.max_transient_search", 0),
        "extremal.search_self_s": span("extremal.max_transient_search", 2),
        "extremal.verify_self_s": span("extremal.verify_conjecture", 2),
        "extremal.ledger_load_s": span("extremal.load_checkpoint", 1),
        "extremal.worker_busy_frac": extra("worker_busy_frac"),
        "extremal.ledger_lines": extra("ledger_lines"),
        "extremal.ledger_bytes": extra("ledger_bytes"),
        "trees.enumerate_s": span("trees.enumerate_free_trees", 1),
        "trees.trees_enumerated": counters["trees.trees_enumerated"] / runs,
        "graphs.from_edges_calls": span("graphs.from_edges", 0),
        "graphs.from_edges_s": span("graphs.from_edges", 1),
        "energy.breakdown_calls": span("energy.delta_energy_breakdown", 0),
        "energy.breakdown_s": span("energy.delta_energy_breakdown", 1),
        "energy.bound_report_s": span("energy.bound_report", 1),
        "serialize.canonical_json_s": span("serialize.canonical_json", 1),
        "serialize.report_bytes": counters["serialize.report_bytes"] / runs,
        "trace.pass_wall_s": pass_wall,
        "trace.attributed_frac": covered / runs / pass_wall,
        # each traced pass against the untraced pass that ran just before it
        "trace.overhead_frac": median(
            [t.wall_s / u.wall_s for u, t in zip(m.untraced, m.traced)]
        ) - 1.0,
    }
    for name, row in spans.items():
        spans[name] = [value / runs for value in row]
    return values, spans


class SetupProbes:
    """Seconds from spawning a fresh interpreter to the workload's inputs
    being ready (imports plus input generation), one per probe process.
    The probes are spread evenly over the run, so that they sample the
    host at the same times as the passes do."""

    def __init__(self, args) -> None:
        self.argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe",
        ]
        self.samples: list[float] = []
        # the largest child's peak RSS before any probe ran (probes are children too)
        self.child_peak_kib = 0

    def probe(self) -> None:
        start = time.monotonic()
        probe = subprocess.run(self.argv, capture_output=True, text=True, timeout=120, check=True)
        self.samples.append(float(probe.stdout.split()[-1]) - start)

    def catch_up(self, done: float) -> float:
        """Probe until the share of probes taken reaches `done`, the share of
        the run elapsed; return the seconds this took."""
        if not self.samples:
            self.child_peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        start = time.monotonic()
        while len(self.samples) < min(SETUP_PROBES, math.ceil(SETUP_PROBES * done)):
            self.probe()
        return time.monotonic() - start


def environment() -> dict:
    import numpy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "caches": caches,  # as the kernel reports them; L3 may be a shared host's
        "commit": commit,
    }


def parse_args(argv, seconds: float):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec["run_seconds"])
    goldens = json.loads((HERE / "goldens.json").read_text())
    program = load_program()
    workload = WORKLOADS[args.workload](program, args.seed, WORKDIR, goldens)
    if args.setup_probe:
        print(repr(time.monotonic()))
        return 0

    WORKDIR.mkdir(exist_ok=True)
    probes = None if args.trace else SetupProbes(args)
    try:
        m = measure(workload, args.seconds, bool(args.trace), probes)
    finally:
        if hasattr(workload, "close"):
            workload.close()
        try:
            WORKDIR.rmdir()
        except OSError:
            pass
    if not m.untraced or (args.trace and not m.traced):
        print(f"error: no pass of {args.workload} completed", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(m.untraced)} untraced and {len(m.traced)} traced passes, "
          f"{m.attempted} operations attempted, {m.failed} failed "
          f"(failed_frac {m.failed / m.attempted:g})")
    if args.trace:
        values, spans = per_layer(m)
        samples = dict.fromkeys(values, len(m.traced))
        wanted = spec["per_layer"]
        print("  per traced pass, by self time:")
        for name, (calls, _, own_s) in sorted(spans.items(), key=lambda kv: -kv[1][2]):
            print(f"    {name:34s} calls {calls:<10g} self {own_s:8.4f} s "
                  f"share {own_s / values['trace.pass_wall_s']:.3f}")
    else:
        probes.catch_up(1.0)
        values, samples = end_to_end(m, peak_rss_mb(workload, probes.child_peak_kib), probes.samples)
        wanted = spec["end_to_end"]
        print(f"  wall_s of each pass: {', '.join(f'{p.wall_s:.3f}' for p in m.untraced)}")
        for key in sorted({key for p in m.untraced for key in p.extra}):
            print(f"  {key}: {median([p.extra[key] for p in m.untraced]):.6g} "
                  f"(median of {len(m.untraced)} passes)")
        latencies = [lat for p in m.untraced for lat in p.latencies_s]
        if len(latencies) >= 2:
            print(f"  latency per operation: p50 {1e3 * percentile(latencies, 50):.3f} ms, "
                  f"p99 {1e3 * percentile(latencies, 99):.3f} ms ({len(latencies)} operations)")
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:34s} {values[name]:<14.6g} {unit:6s} ({samples[name]} samples)")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
