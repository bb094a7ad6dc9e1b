"""Shared fixtures: small graphs, the randomized trajectory suite, cached
exhaustive reports, the acceptance-criteria summary printed at the end of
the run, and the reference helpers the tests check the package against: the
Prüfer-sequence oracle for tree enumeration, the brute-force maximum energy
of a graph, the per-slot table build and the expand-then-select step 1 of
the search. The oracle
decodes one Prüfer sequence per degree order, not all n^(n-2): 13,391
sequences for n = 2..9."""

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
from kreversible.dynamics import _cap_k, _check_k
from kreversible.errors import invariant_violation
from kreversible.extremal import SearchResult
from kreversible.tables import MAX_TABLE_VERTICES
from kreversible.trees import _bfs_order, _centers_from_adjacency, canonical_code

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


# --- per-slot reference for the table build ----------------------------------


def reference_chunk_tables(graphs: Sequence[Graph], k: int) -> tuple[np.ndarray, np.ndarray]:
    """tables.chunk_tables as it was before it grouped slots: each vertex
    slot's local table goes straight into the chunk's tables, one in-place
    XOR and one in-place add over the whole chunk a slot."""
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("a chunk takes graphs with one vertex count")
    if n > MAX_TABLE_VERTICES:
        raise ValueError(f"state tables need n <= {MAX_TABLE_VERTICES}, got {n}")
    _check_k(k)
    if n * (k + 1) > np.iinfo(np.int64).max:
        # energies and the transient bound n*(k+1) - 1 are int64
        raise ValueError(f"n*(k+1) must fit in int64, got n={n} and k={k}")
    k, _ = _cap_k(k, n)
    low = n // 2
    high = n - low
    shape = (len(graphs),) + (2,) * high + (1 << low,)
    high_bits = np.arange(1 << high, dtype=np.uint32) << np.uint32(low)
    high_bits = high_bits.reshape((2,) * high + (1,))
    low_bits = np.arange(1 << low, dtype=np.uint32)
    full = np.uint32((1 << n) - 1)
    succ = np.arange(len(graphs) << n, dtype=np.uint32)
    energy = np.zeros(len(graphs) << n, dtype=np.int16)  # each term |op_v - k| <= n
    succ_view, energy_view = succ.reshape(shape), energy.reshape(shape)
    slot_masks = np.array([g.neighbor_masks for g in graphs], dtype=np.uint32).T
    for v, masks in enumerate(slot_masks):
        closed = int(np.bitwise_or.reduce(masks)) | (1 << v)
        # high bits outside every graph's N[v] are held at 0: no formula reads them
        sample = tuple(slice(None) if closed >> (n - 1 - a) & 1 else slice(1) for a in range(high))
        states = high_bits[sample] | low_bits
        sign_v = (states >> np.uint32(v)) & np.uint32(1)
        # neighbors disagreeing with v: complement the state word where v is
        # +1; graph i's mask, a column on the graph axis, broadcasts over states
        discord = (states ^ (sign_v * full)) & masks.reshape((-1,) + (1,) * (high + 1))
        op = np.bitwise_count(discord).astype(np.int16)
        if int(np.bitwise_count(masks).max()) >= k:  # else op <= degree < k: v never flips
            succ_view ^= (op >= k) * np.uint32(1 << v)
        energy_view += np.abs(op - k)
    return succ, energy


# --- expand-then-select reference for the search's step 1 --------------------


def reference_result(tree: Graph, k: int, res) -> SearchResult:
    """extremal._result as it was before the search selected on the loop's
    states: every start's tau, read from the sweep's per-start arrays, is
    checked against the transient bounds, and the starts attaining the
    maximum are kept."""
    bound = np.minimum(res.plateau_energies + tree.n - 1, tree.n * (k + 1) - 1)
    over = np.flatnonzero(res.taus > bound)
    if over.size:
        i = over[0]
        raise invariant_violation(
            tree, k, Configuration(tree.n, 2 * int(i) + 1),
            f"expected tau <= {bound[i]} by the transient bounds, "
            f"observed (tau, period) = ({res.taus[i]}, {res.periods[i]})",
            tree=canonical_code(tree).hex(),
        )
    tau_max = int(res.taus.max())
    attaining = np.flatnonzero(res.taus == tau_max)  # start j is 2j + 1
    starts = zip((2 * attaining + 1).tolist(), res.periods[attaining].tolist())
    return SearchResult(tree, k, tau_max, tuple(starts))


def assert_selection_matches_sweep(sel, res, k: int) -> None:
    """A sweep_chunk Selection against the sweep of its graph alone: tau_max,
    the attaining starts and their int8 periods, and whether some start
    passes the transient bounds, read on the loop's states and on every
    start."""
    n = res.n
    tau_max = int(res.taus.max())
    attaining = np.flatnonzero(res.taus == tau_max)
    assert sel.tau_max == tau_max
    assert sel.attaining.tolist() == res.start_bits[attaining].tolist()
    assert sel.attaining_periods.dtype == np.int8
    assert sel.attaining_periods.tolist() == res.periods[attaining].tolist()
    assert (sel.loop_taus.dtype, sel.loop_plateaus.dtype) == (np.int16, np.int64)

    def over(taus, plateaus) -> bool:
        return bool(np.any(taus > np.minimum(plateaus + n - 1, n * (k + 1) - 1)))

    assert over(sel.loop_taus, sel.loop_plateaus) == over(res.taus, res.plateau_energies)


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


def random_sparse_graph(rng: random.Random, n: int) -> Graph:
    """A random tree plus n - 1 more random edges: mean degree about 4."""
    edges = set(random_tree(rng, n).edges)
    while len(edges) < 2 * (n - 1):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


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
