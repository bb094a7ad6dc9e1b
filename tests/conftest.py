"""Shared fixtures: small graphs, the randomized trajectory suite, cached
exhaustive reports, and the acceptance-criteria summary printed at the end
of the run."""

from __future__ import annotations

import os
import random
import time

import pytest

from kreversible import (
    Configuration,
    Graph,
    parse_edge_list,
    prufer_to_edges,
    run_trajectory,
    verify_conjecture,
)

# --- acceptance bookkeeping -------------------------------------------------

ACCEPTANCE_RESULTS: dict[int, list[tuple[str, str]]] = {}


def record_acceptance(criterion: int, status: str, detail: str) -> None:
    ACCEPTANCE_RESULTS.setdefault(criterion, []).append((status, detail))


@pytest.fixture(scope="session")
def acceptance_log():
    return record_acceptance


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion in sorted(ACCEPTANCE_RESULTS):
        for status, detail in ACCEPTANCE_RESULTS[criterion]:
            terminalreporter.write_line(f"criterion {criterion}: {status} — {detail}")


# --- small named graphs -----------------------------------------------------

P3_TEXT = "n=3\n1 2\n2 3\n"

FIG_TOP_TREE_TEXT = "n=8\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n6 8\n"


@pytest.fixture
def p3() -> Graph:
    return parse_edge_list(P3_TEXT)


@pytest.fixture
def top_tree_n8() -> Graph:
    """Path 1..7 with the extra leaf 8 attached at 6; max transient for n=8."""
    return parse_edge_list(FIG_TOP_TREE_TEXT)


@pytest.fixture
def triangle() -> Graph:
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


# --- graph helpers used only by tests ---------------------------------------


def to_edge_list(g: Graph) -> str:
    """Serialize back to the 1-based edge-list format (round-trips with
    parse_edge_list)."""
    lines = [f"n={g.n}"]
    lines.extend(f"{u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def relabel(g: Graph, perm: list[int] | tuple[int, ...]) -> Graph:
    """Apply a vertex permutation: vertex i of g becomes perm[i]."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


# --- randomized instance suite (shared by several criteria) ------------------


def random_tree(rng: random.Random, n: int) -> Graph:
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return Graph.from_edges(n, prufer_to_edges(seq, n))


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    base = set(random_tree(rng, n).edges)
    p = rng.uniform(0.05, 0.3)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in base and rng.random() < p:
                base.add((u, v))
    return Graph.from_edges(n, sorted(base))


@pytest.fixture(scope="session")
def random_suite():
    """10^4 (graph, k, trajectory) instances: half trees, half connected
    graphs, n <= 16, 1 <= k <= max degree, random starts."""
    rng = random.Random(20260814)
    instances = []
    start = time.perf_counter()
    for index in range(10_000):
        n = rng.randint(2, 16)
        g = random_tree(rng, n) if index % 2 == 0 else random_connected_graph(rng, n)
        k = rng.randint(1, g.max_degree())
        x0 = Configuration(n, rng.randrange(1 << n))
        instances.append((g, k, run_trajectory(g, x0, k)))
    elapsed = time.perf_counter() - start
    return instances, elapsed


@pytest.fixture(scope="session")
def conjecture_reports():
    """Exhaustive reports for n = 5..13 at k = 2, computed once."""
    workers = min(8, os.cpu_count() or 1)
    start = time.perf_counter()
    reports = {n: verify_conjecture(n, workers=workers) for n in range(5, 14)}
    elapsed = time.perf_counter() - start
    return reports, elapsed, workers
