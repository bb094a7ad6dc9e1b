"""Shared fixtures: small graphs, the randomized trajectory suite, cached
exhaustive reports, the acceptance-criteria summary printed at the end of
the run, and the reference helpers the tests check the package against: the
Prüfer-sequence oracle for tree enumeration and the brute-force maximum
energy of a graph. The oracle decodes one Prüfer sequence per degree order,
not all n^(n-2): 13,391 sequences for n = 2..9."""

from __future__ import annotations

import os
import random
import time

from collections.abc import Iterator, Sequence

import numpy as np
import pytest

from kreversible import (
    Configuration,
    Graph,
    is_tree,
    parse_edge_list,
    run_trajectory,
    state_tables,
    verify_conjecture,
)
from kreversible.trees import _bfs_order, _centers_from_adjacency

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


def max_energy(g: Graph, k: int) -> tuple[int, tuple[Configuration, ...]]:
    """The maximum energy over all 2^n configurations of a tree, by brute
    force over the state tables, and every configuration attaining it."""
    if not is_tree(g):
        raise ValueError("the maximum-energy check is scoped to trees")
    _, energy = state_tables(g, k)
    best = int(energy.max())
    return best, tuple(Configuration(g.n, int(bits)) for bits in np.flatnonzero(energy == best))


# --- Prüfer-sequence oracle for tree enumeration (Prüfer 1918) ---------------


def prufer_to_edges(sequence: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Decode a Prüfer sequence (length n-2, entries in 0..n-1) into the
    labeled tree's edge list, in O(n)."""
    deg = [1] * n
    for a in sequence:
        deg[a] += 1
    edges = []
    ptr = 0
    leaf = -1
    for a in sequence:
        if leaf < 0:
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
            ptr += 1
        edges.append((leaf, a))
        deg[a] -= 1
        # a just became a leaf below the scan pointer: it is the next minimum
        leaf = a if (deg[a] == 1 and a < ptr) else -1
    if leaf < 0:
        while deg[ptr] != 1:
            ptr += 1
        leaf = ptr
    edges.append((leaf, n - 1))
    return edges


def _interned_rooted_key(
    n: int, adjacency: list[list[int]], root: int, intern: dict[tuple[int, ...], int]
) -> int:
    order, parent = _bfs_order(n, adjacency, root)
    child_keys: list[list[int]] = [[] for _ in range(n)]
    key = [0] * n
    for v in reversed(order):
        t = tuple(sorted(child_keys[v]))
        k = intern.get(t)
        if k is None:
            k = len(intern)
            intern[t] = k
        key[v] = k
        if v != root:
            child_keys[parent[v]].append(k)
    return key[root]


def canonical_key(n: int, edges: list[tuple[int, int]], intern: dict[tuple[int, ...], int]) -> int:
    """Isomorphism class key of a tree: the smaller interned rooted key over
    its centers. Keys are comparable only within one ``intern`` table."""
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return min(
        _interned_rooted_key(n, adjacency, r, intern)
        for r in _centers_from_adjacency(n, adjacency)
    )


def _count_vectors(total: int, largest: int) -> Iterator[tuple[int, ...]]:
    """Every non-increasing tuple of positive counts summing to total, each
    at most largest."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _count_vectors(total - first, first):
            yield (first, *rest)


def _arrangements(counts: list[int]) -> Iterator[tuple[int, ...]]:
    """Every distinct sequence in which label i occurs counts[i] times."""
    if not any(counts):
        yield ()
        return
    for label, count in enumerate(counts):
        if count:
            counts[label] -= 1
            for rest in _arrangements(counts):
                yield (label, *rest)
            counts[label] += 1


def degree_ordered_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """The Prüfer sequences on n >= 2 vertices in which label v occurs no
    more often than label v - 1: each distinct arrangement of each count
    vector c_0 >= c_1 >= ... summing to n - 2."""
    for counts in _count_vectors(n - 2, n - 2):
        yield from _arrangements(list(counts))


def prufer_oracle_trees(n: int) -> Iterator[Graph]:
    """Decode the degree-ordered Prüfer sequences on n >= 2 vertices and
    yield one Graph per isomorphism class not seen before.

    This reaches every class: label any tree's vertices by non-increasing
    degree, and since label v occurs deg(v) - 1 times in a Prüfer sequence,
    its sequence is degree-ordered. Every sequence decodes to a tree, so
    nothing else is reached.
    """
    intern: dict[tuple[int, ...], int] = {}
    seen: set[int] = set()
    for seq in degree_ordered_sequences(n):
        edges = prufer_to_edges(seq, n)
        key = canonical_key(n, edges, intern)
        if key not in seen:
            seen.add(key)
            yield Graph.from_edges(n, edges)


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
