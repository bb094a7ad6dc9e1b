"""The benchmark's workloads: seeded inputs, the timed calls, output checks.

Each workload builds its inputs in __init__ (set-up), and run_pass() makes
one pass of timed calls into the program and returns a Pass. Checks run
outside the timed calls: check(op) returns a list of problems with one
operation's output, and digest(op) names that output so a pass that
repeats an already-checked output is not checked twice.

The program receives only the graphs and configurations generated here.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import io
import json
import os
import random
import resource
from dataclasses import dataclass, field
from time import perf_counter

TREES_ON_13 = 1301  # free trees on 13 vertices (OEIS A000055)
CONJECTURE_ARGV = ["conjecture", "--n", "13", "--format", "json"]
CONJECTURE_CONFIGS = TREES_ON_13 << 12  # starts per tree: 2^(n-1)

SEARCH_LIMIT = 22
SEARCH_CASES = ((19, 2), (20, 2), (21, 2), (22, 2), (22, 1))  # (22, 1) reuses the n = 22 tree
SEARCH_SAMPLE = 16  # non-attaining starts replayed per search by the check

TRAJ_SIZES = (64, 128, 256, 512, 1024)
TRAJ_SHAPES = ("tree", "sparse")
TRAJ_KS = (1, 2, 3)
TRAJ_GRAPH_SEED = "trajectories-graphs"  # the graphs are the same for every workload seed
TRAJ_STARTS = 8  # seeded starts per (n, shape, k) graph; one in four also runs the energy accounting


@dataclass
class Pass:
    """One pass of timed calls."""

    wall_s: float  # seconds inside the timed calls
    configs: int  # configurations resolved by those calls
    ops: list  # one output per operation, for check() and digest()
    reported: set = field(default_factory=set)  # (edges, bits) in the user-visible report
    latencies_s: list = field(default_factory=list)  # per operation, where there are many
    extra: dict = field(default_factory=dict)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def random_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A uniformly random labeled tree: decode a random Prufer sequence."""
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for a in sequence:
        degree[a] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for a in sequence:
        edges.append((heapq.heappop(leaves), a))
        degree[a] -= 1
        if degree[a] == 1:
            heapq.heappush(leaves, a)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def random_sparse_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A random tree plus random extra edges up to 2n edges (mean degree 4)."""
    edges = {(min(u, v), max(u, v)) for u, v in random_tree_edges(rng, n)}
    while len(edges) < 2 * n:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def neighbor_masks(n: int, edges) -> list[int]:
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def oracle_step(masks: list[int], bits: int, k: int) -> tuple[int, int]:
    """(next bits, energy of bits): flip v iff at least k neighbors disagree;
    energy is the sum over vertices of |disagreeing neighbors - k|."""
    full = (1 << len(masks)) - 1
    flip = energy = 0
    for v, mask in enumerate(masks):
        disagree = (mask & (full ^ bits) if (bits >> v) & 1 else mask & bits).bit_count()
        if disagree >= k:
            flip |= 1 << v
        energy += abs(disagree - k)
    return bits ^ flip, energy


def reported_configs(stdout: str) -> set:
    """(0-based edges, bits) of every configuration in a conjecture report."""
    try:
        records = json.loads(stdout)["extremal_records"]
        return {
            (
                tuple((u - 1, v - 1) for u, v in r["edges"]),
                sum(1 << i for i, c in enumerate(r["config"]) if c == "+"),
            )
            for r in records
        }
    except (ValueError, KeyError, TypeError):
        return set()


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class ConjectureN13:
    """kreversible conjecture --n 13 --format json, one worker, stdout captured."""

    name = "conjecture-n13"
    ops_per_pass = 1

    def __init__(self, program, seed: int, workdir, goldens: dict) -> None:
        # the input is the command itself; the seed changes nothing here
        self.program = program
        self.golden = goldens["conjecture-n13"]

    def _call(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.program.cli.main(argv)
        return code, out.getvalue()

    def run_pass(self) -> Pass:
        t0 = perf_counter()
        code, stdout = self._call(CONJECTURE_ARGV + ["--workers", "1"])
        wall = perf_counter() - t0
        return Pass(wall, CONJECTURE_CONFIGS, [("run", code, stdout, None)], reported_configs(stdout))

    def digest(self, op) -> str:
        return sha256(repr(op))

    def check(self, op) -> list[str]:
        label, code, stdout, ledger = op
        problems = []
        if code != 0:
            problems.append(f"{label}: exit code {code}")
        if sha256(stdout) != self.golden:
            problems.append(f"{label}: report differs from the golden ({len(stdout)} bytes)")
        if ledger is not None:
            lines = ledger.split(b"\n")
            if lines[-1] != b"" or len(lines) - 1 != TREES_ON_13:
                problems.append(f"{label}: ledger has {len(lines) - 1} lines, not {TREES_ON_13}")
            else:
                try:
                    codes = {json.loads(line)["code"] for line in lines[:-1]}
                except (ValueError, KeyError, TypeError):
                    codes = set()
                if len(codes) != TREES_ON_13:
                    problems.append(f"{label}: ledger lines are not one per tree")
        return problems


class ConjectureN13Parallel(ConjectureN13):
    """The same command on every core with a fresh checkpoint ledger; the
    ledger is then cut to its first half plus a torn partial line and the
    command runs again (resume)."""

    name = "conjecture-n13-parallel"
    ops_per_pass = 2

    def __init__(self, program, seed: int, workdir, goldens: dict) -> None:
        super().__init__(program, seed, workdir, goldens)
        self.workers = len(os.sched_getaffinity(0))
        self.rng = random.Random(seed)
        self.ledger = workdir / f"ledger-{os.getpid()}.jsonl"
        self.argv = CONJECTURE_ARGV + [
            "--workers", str(self.workers), "--checkpoint", str(self.ledger),
        ]

    def run_pass(self) -> Pass:
        self.ledger.unlink(missing_ok=True)
        cpu0 = _children_cpu_s()
        t0 = perf_counter()
        fresh_code, fresh_out = self._call(self.argv)
        fresh_s = perf_counter() - t0
        cpu1 = _children_cpu_s()
        written = self.ledger.read_bytes() if self.ledger.exists() else b""
        lines = written.split(b"\n")[:-1]
        keep = len(lines) // 2
        torn = b""
        if keep < len(lines) and len(lines[keep]) > 1:
            torn = lines[keep][: self.rng.randrange(1, len(lines[keep]))]
        self.ledger.write_bytes(b"".join(line + b"\n" for line in lines[:keep]) + torn)
        cpu2 = _children_cpu_s()
        t2 = perf_counter()
        resume_code, resume_out = self._call(self.argv)
        resume_s = perf_counter() - t2
        cpu3 = _children_cpu_s()
        healed = self.ledger.read_bytes()
        busy = (cpu1 - cpu0 + cpu3 - cpu2) / ((fresh_s + resume_s) * self.workers)
        return Pass(
            fresh_s + resume_s,
            CONJECTURE_CONFIGS + (TREES_ON_13 - keep << 12),
            [("fresh", fresh_code, fresh_out, written), ("resume", resume_code, resume_out, healed)],
            reported_configs(fresh_out) | reported_configs(resume_out),
            extra={
                "fresh_s": fresh_s,
                "resume_s": resume_s,
                "worker_busy_frac": busy,
                "ledger_lines": len(lines),
                "ledger_bytes": len(written),
            },
        )

    def close(self) -> None:
        self.ledger.unlink(missing_ok=True)


class SearchLarge:
    """max_transient_search with an explicit limit on seeded random trees:
    n = 19..22 at k = 2, and the n = 22 tree again at k = 1."""

    name = "search-large"
    ops_per_pass = len(SEARCH_CASES)

    def __init__(self, program, seed: int, workdir, goldens: dict) -> None:
        self.program = program
        self.seed = seed
        self.golden = goldens["search-large"]
        rng = random.Random(seed)
        trees = {
            n: program.graphs.Graph.from_edges(n, random_tree_edges(rng, n))
            for n in sorted({n for n, _ in SEARCH_CASES})
        }
        self.cases = [(index, trees[n], k) for index, (n, k) in enumerate(SEARCH_CASES)]

    def run_pass(self) -> Pass:
        ops, wall, configs, reported = [], 0.0, 0, set()
        for index, tree, k in self.cases:
            t0 = perf_counter()
            try:
                result = self.program.extremal.max_transient_search(tree, k, limit=SEARCH_LIMIT)
            except Exception as exc:  # check() counts it as a failed operation
                result = exc
            wall += perf_counter() - t0
            ops.append((index, tree, k, result))
            if not isinstance(result, Exception):
                configs += 1 << (tree.n - 1)
                reported |= {(tree.edges, r.config.bits) for r in result.records}
        return Pass(wall, configs, ops, reported)

    def digest(self, op) -> str:
        index, tree, k, result = op
        if isinstance(result, Exception):
            return sha256(repr(result))
        return sha256(json.dumps(result.to_json_dict(), sort_keys=True))

    def check(self, op) -> list[str]:
        index, tree, k, result = op
        n = tree.n
        dynamics = self.program.dynamics
        label = f"search n={n} k={k}"
        if isinstance(result, Exception):
            return [f"{label}: raised {result!r}"]
        problems = []
        records = result.records
        if not records or not 0 <= result.tau_max <= n * (k + 1) - 1:
            return [f"{label}: tau_max {result.tau_max} outside the tree bound"]
        if result.raw_config_count != 2 * len(records) or result.mod_negation_count != len(records):
            problems.append(f"{label}: configuration counts disagree with the records")
        attaining = {r.config.bits for r in records}
        if any(r.tau != result.tau_max or not r.config.bits & 1 for r in records):
            problems.append(f"{label}: a record is not a vertex-1-positive start at tau_max")
        for r in records[:2]:
            run = dynamics.run_trajectory(tree, r.config, k)
            if (run.tau, run.period) != (result.tau_max, r.period):
                problems.append(f"{label}: record {r.config} not reproduced by run_trajectory")
        rng = random.Random(f"{self.seed}/{index}")
        sampled = 0
        while sampled < SEARCH_SAMPLE and len(attaining) < 1 << (n - 1):
            bits = rng.getrandbits(n) | 1
            if bits in attaining:
                continue
            sampled += 1
            run = dynamics.run_trajectory(tree, dynamics.Configuration(n, bits), k)
            if run.tau >= result.tau_max:
                problems.append(f"{label}: start {bits:#x} reaches tau {run.tau} but is not reported")
        if self.seed == self.golden["seed"] and self.digest(op) != self.golden["digests"][index]:
            problems.append(f"{label}: result differs from the golden for seed {self.seed}")
        return problems


@dataclass(frozen=True)
class Instance:
    index: int
    graph: object
    masks: list
    k: int
    start: object
    with_energy: bool


class Trajectories:
    """run_trajectory on sparse graphs above the table size limit, from
    random starts; one start in four also runs the energy accounting of
    energy-trace and bounds on every step. The graphs come from a fixed
    seed and the workload seed picks the starts, so every seed does about
    the same amount of work."""

    name = "trajectories"
    ops_per_pass = len(TRAJ_SIZES) * len(TRAJ_SHAPES) * len(TRAJ_KS) * TRAJ_STARTS

    def __init__(self, program, seed: int, workdir, goldens: dict) -> None:
        self.program = program
        graph_rng, rng = random.Random(TRAJ_GRAPH_SEED), random.Random(seed)
        self.instances = []
        for n in TRAJ_SIZES:
            for shape in TRAJ_SHAPES:
                edges = (random_tree_edges if shape == "tree" else random_sparse_edges)(graph_rng, n)
                graph, masks = program.graphs.Graph.from_edges(n, edges), neighbor_masks(n, edges)
                for k in TRAJ_KS:
                    for s in range(TRAJ_STARTS):
                        self.instances.append(Instance(
                            len(self.instances),
                            graph,
                            masks,
                            k,
                            program.dynamics.Configuration(n, rng.getrandbits(n)),
                            s % 4 == 3,
                        ))

    def run_pass(self) -> Pass:
        dynamics, energy = self.program.dynamics, self.program.energy
        ops, latencies, steps = [], [], 0
        for inst in self.instances:
            t0 = perf_counter()
            breakdowns = bounds = None
            try:
                run = dynamics.run_trajectory(inst.graph, inst.start, inst.k)
                if inst.with_energy:
                    breakdowns = [
                        energy.delta_energy_breakdown(inst.graph, s.config, inst.k)
                        for s in run.trace
                    ]
                    bounds = energy.bound_report(inst.graph, inst.k, run)
            except Exception as exc:  # check() counts it as a failed operation
                run = exc
            latencies.append(perf_counter() - t0)
            ops.append((inst, run, breakdowns, bounds))
            if not isinstance(run, Exception):
                steps += len(run.trace) - 1
        return Pass(sum(latencies), steps, ops, latencies_s=latencies)

    def digest(self, op) -> str:
        inst, run, breakdowns, bounds = op
        if isinstance(run, Exception):
            return sha256(repr((inst.index, run)))
        trace = [(s.t, s.config.bits, s.energy) for s in run.trace]
        accounting = None
        if breakdowns is not None:
            accounting = (
                [(b.energy, b.energy_aux, b.per_vertex_delta) for b in breakdowns],
                bounds.to_json_dict(),
            )
        return sha256(repr((inst.index, run.tau, run.period, run.plateau_energy, trace, accounting)))

    def check(self, op) -> list[str]:
        inst, run, breakdowns, bounds = op
        n, k, masks = inst.graph.n, inst.k, inst.masks
        label = f"trajectory #{inst.index} n={n} k={k}"
        if isinstance(run, Exception):
            return [f"{label}: raised {run!r}"]
        tau, period, trace = run.tau, run.period, run.trace
        if period not in (1, 2) or len(trace) != tau + period + 1:
            return [f"{label}: period {period} with a trace of {len(trace)} steps for tau {tau}"]
        problems = []
        bits = [s.config.bits for s in trace]
        if bits[0] != inst.start.bits or [s.t for s in trace] != list(range(len(trace))):
            problems.append(f"{label}: the trace does not start at the given start")
        if bits[tau] != bits[tau + period] or len(set(bits[: tau + period])) != tau + period:
            problems.append(f"{label}: x(tau) != x(tau + period) or tau is not the first repeat")
        for t, s in enumerate(trace):
            successor, e = oracle_step(masks, s.config.bits, k)
            if e != s.energy:
                problems.append(f"{label}: energy at t={t} is {s.energy}, expected {e}")
            if t + 1 < len(trace) and successor != bits[t + 1]:
                problems.append(f"{label}: x({t + 1}) is not the successor of x({t})")
        energies = [s.energy for s in trace]
        if any(b < a for a, b in zip(energies, energies[1:])):
            problems.append(f"{label}: energy fell along the trace")
        if run.plateau_energy != energies[tau]:
            problems.append(f"{label}: plateau energy {run.plateau_energy} != E(tau)")
        max_degree = max(m.bit_count() for m in masks)
        general_bound = n * (max_degree + 1) - 1
        if tau > general_bound:
            problems.append(f"{label}: tau {tau} above the general bound {general_bound}")
        if breakdowns is not None:
            if len(breakdowns) != len(trace):
                problems.append(f"{label}: {len(breakdowns)} breakdowns for {len(trace)} steps")
            for t, b in enumerate(breakdowns):
                if b.energy != energies[t] or b.energy_aux != b.energy:
                    problems.append(f"{label}: breakdown energy at t={t} disagrees")
                if min(b.per_vertex_delta) < 0:
                    problems.append(f"{label}: negative per-vertex energy change at t={t}")
                if t + 1 < len(trace) and sum(b.per_vertex_delta) != energies[t + 1] - energies[t]:
                    problems.append(f"{label}: per-vertex deltas at t={t} do not sum to the change")
            if bounds.general_bound != general_bound or bounds.plateau_bound != energies[tau] + n - 1:
                problems.append(f"{label}: bound report disagrees with the oracle")
        return problems


WORKLOADS = {
    w.name: w for w in (ConjectureN13, ConjectureN13Parallel, SearchLarge, Trajectories)
}
