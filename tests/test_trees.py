from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import networkx as nx
import pytest

from kreversible import Graph, InternalInvariantError, canonical_code, enumerate_free_trees, is_tree
from kreversible import trees
from kreversible.trees import (
    _bfs_order,
    _centers_from_adjacency,
    _graph_from_levels,
    _levels_from_graph,
    free_tree_levels,
)

from conftest import canonical_key, degree_ordered_sequences, prufer_to_edges, random_tree, relabel


def centers(g: Graph) -> tuple[int, ...]:
    return _centers_from_adjacency(g.n, g.adjacency)


def test_centers():
    assert centers(Graph.from_edges(1, [])) == (0,)
    assert centers(Graph.from_edges(2, [(0, 1)])) == (0, 1)
    assert centers(Graph.from_edges(3, [(0, 1), (1, 2)])) == (1,)
    assert centers(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])) == (1, 2)
    star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
    assert centers(star) == (0,)


def test_centers_rejects_non_trees(triangle):
    with pytest.raises(ValueError):
        canonical_code(triangle)


def test_code_invariant_under_relabeling():
    rng = random.Random(17)
    for _ in range(100):
        g = random_tree(rng, rng.randint(2, 11))
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_code(relabel(g, perm)) == canonical_code(g)


def test_code_groups_are_isomorphism_classes():
    # all labeled trees on n vertices, grouped by code, cross-checked with an
    # independent isomorphism test
    for n in range(2, 7):
        groups: dict[bytes, list[Graph]] = {}
        for seq in itertools.product(range(n), repeat=max(n - 2, 0)):
            g = Graph.from_edges(n, prufer_to_edges(list(seq), n))
            groups.setdefault(canonical_code(g), []).append(g)
        reps = [gs[0] for gs in groups.values()]
        for a, b in itertools.combinations(reps, 2):
            assert not nx.is_isomorphic(nx.Graph(a.edges), nx.Graph(b.edges))
        for code, gs in groups.items():
            probe = nx.Graph(gs[0].edges)
            for g in gs[1:10]:
                assert nx.is_isomorphic(probe, nx.Graph(g.edges))


def test_colored_codes_distinguish_colorings():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    # endpoints swapped: same coloring up to symmetry
    assert canonical_code(p3, [1, 0, 0]) == canonical_code(p3, [0, 0, 1])
    assert canonical_code(p3, [1, 0, 0]) != canonical_code(p3, [0, 1, 0])
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    # any single hot leaf is the same colored tree
    codes = {canonical_code(star, colors) for colors in ([0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])}
    assert len(codes) == 1
    assert canonical_code(star, [1, 0, 0, 0]) not in codes
    with pytest.raises(ValueError):
        canonical_code(p3, [0, 1])


def test_enumerate_counts_match_networkx():
    for n in range(2, 13):
        mine = {canonical_code(g) for g in enumerate_free_trees(n)}
        theirs = {
            canonical_code(Graph.from_edges(n, list(t.edges()))) for t in nx.nonisomorphic_trees(n)
        }
        assert mine == theirs


def test_enumerate_yields_valid_distinct_trees():
    assert [g.n for g in enumerate_free_trees(1)] == [1]
    for n in range(2, 12):
        trees = list(enumerate_free_trees(n))
        assert all(is_tree(g) and g.n == n for g in trees)
        codes = [canonical_code(g) for g in trees]
        assert len(set(codes)) == len(codes)
    with pytest.raises(ValueError):
        next(enumerate_free_trees(0))


def test_levels_read_off_the_trees_they_build():
    # a resume identifies a ledger line's tree by the level sequence read off
    # its edges, which must invert _graph_from_levels on every enumerated tree
    for n in range(1, 13):
        for levels in free_tree_levels(n):
            assert _levels_from_graph(_graph_from_levels(levels)) == bytes(levels)


def test_free_tree_fixup_checks_its_one_jump(monkeypatch):
    # invalid rootings are passed over in one jump, whose result is checked:
    # a jump that lands on another invalid rooting is a bug, not a retry
    real = trees._rooted_successor
    jumps = []

    def to_the_path_rooted_at_an_end(levels, p=None):
        if p is None:
            return real(levels)
        jumps.append(p)
        return list(range(len(levels)))

    monkeypatch.setattr(trees, "_rooted_successor", to_the_path_rooted_at_an_end)
    with pytest.raises(InternalInvariantError, match=r"free-tree jump from \[0, 1, 2, 3, 1, 1\]"):
        list(free_tree_levels(6))
    assert jumps == [3]


def free_tree_counts(limit: int) -> list[int]:
    """Free trees on n = 1..limit vertices (OEIS A000055), by Otter's formula
    (Otter, "The number of trees", Ann. Math. 1948) over the rooted-tree
    counts r(n) (OEIS A000081), which satisfy
    r(m + 1) = (1/m) * sum_{j=1..m} (sum_{d | j} d r(d)) r(m - j + 1)."""
    r = [0, 1]
    for m in range(1, limit):
        total = sum(
            sum(d * r[d] for d in range(1, j + 1) if j % d == 0) * r[m - j + 1]
            for j in range(1, m + 1)
        )
        r.append(total // m)
    counts = []
    for n in range(1, limit + 1):
        # r(n) less the unordered pairs of distinct rooted trees of i + j = n vertices
        pairs = sum(r[i] * r[n - i] for i in range(1, n)) - (r[n // 2] if n % 2 == 0 else 0)
        counts.append(r[n] - pairs // 2)
    return counts


def automorphism_count(g: Graph) -> int:
    """|Aut(T)| of a tree, rooted at its centre: the product over vertices of
    m! for each class of m isomorphic child subtrees. A bicentral tree's
    central edge is subdivided first, so the new midpoint is the root and
    isomorphic halves give the factor 2."""
    adjacency = [list(nbrs) for nbrs in g.adjacency]
    centres = _centers_from_adjacency(g.n, adjacency)
    root = centres[0]
    if len(centres) == 2:
        a, b = centres
        adjacency[a][adjacency[a].index(b)] = g.n
        adjacency[b][adjacency[b].index(a)] = g.n
        adjacency.append([a, b])
        root = g.n
    order, parent = _bfs_order(len(adjacency), adjacency, root)
    intern: dict[tuple[int, ...], int] = {}
    child_keys: list[list[int]] = [[] for _ in adjacency]
    count = 1
    for v in reversed(order):
        for m in Counter(child_keys[v]).values():
            count *= math.factorial(m)
        key = intern.setdefault(tuple(sorted(child_keys[v])), len(intern))
        if v != root:
            child_keys[parent[v]].append(key)
    return count


def test_enumerate_counts_match_otter_formula():
    # the conjecture runs up to n = 16, beyond the networkx comparison above;
    # Cayley's n^(n-2) labelled trees, each class counted n!/|Aut(T)| times,
    # checks completeness and distinctness by a second route
    for n, count in enumerate(free_tree_counts(16), start=1):
        trees = list(enumerate_free_trees(n))
        assert len(trees) == count
        intern: dict[tuple[int, ...], int] = {}
        keys = {canonical_key(n, list(g.edges), intern) for g in trees}
        assert len(keys) == count
        labellings = sum(math.factorial(n) // automorphism_count(g) for g in trees)
        assert labellings == n ** max(n - 2, 0)


def test_prufer_decode_against_networkx():
    rng = random.Random(23)
    for _ in range(500):
        n = rng.randint(2, 13)
        seq = [rng.randrange(n) for _ in range(n - 2)]
        mine = {tuple(sorted(e)) for e in prufer_to_edges(seq, n)}
        theirs = {tuple(sorted(e)) for e in nx.from_prufer_sequence(seq).edges()}
        assert mine == theirs


def test_degree_ordered_sequences_reach_every_class():
    # the oracle's lemma: degree-ordered sequences reach exactly the classes
    # of the full scan, and there are A005651(n - 2) of them
    for n in range(2, 8):
        intern: dict[tuple[int, ...], int] = {}
        full = {
            canonical_key(n, prufer_to_edges(seq, n), intern)
            for seq in itertools.product(range(n), repeat=n - 2)
        }
        ordered = {
            canonical_key(n, prufer_to_edges(seq, n), intern) for seq in degree_ordered_sequences(n)
        }
        assert ordered == full
    counts = [sum(1 for _ in degree_ordered_sequences(n)) for n in range(2, 10)]
    assert counts == [1, 1, 3, 10, 47, 246, 1602, 11481]
