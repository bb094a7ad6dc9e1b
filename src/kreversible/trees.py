"""Tree canonicalization and unlabeled-tree enumeration.

Canonical codes are rooted-subtree encodings rooted at the tree's center
(minimum over both centers for bicentral trees), so two trees get the same
code iff they are isomorphic. An optional 0/1 coloring makes the code
canonical under color-preserving isomorphism, which is how configuration
orbits on a tree are counted.

free_tree_levels generates every unlabeled tree exactly once, as its
canonical level sequence, by the successor method of Wright, Richmond,
Odlyzko & McKay (1986), which passes over invalid rootings in one jump;
_edges_from_levels states the labelling a sequence gives its tree, and
enumerate_free_trees builds the Graph of each.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .errors import InternalInvariantError
from .graphs import Edge, Graph, is_tree

# Rooted code bytes: one open byte per vertex (0x02, or 0x03 for the second
# color), children codes in sorted order, then a 0x01 close byte.
_OPEN = (b"\x02", b"\x03")
_CLOSE = b"\x01"


def _centers_from_adjacency(n: int, adjacency: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The one or two middle vertices of a tree, left after peeling off its
    leaves layer by layer."""
    if n == 1:
        return (0,)
    deg = [len(adjacency[v]) for v in range(n)]
    layer = [v for v in range(n) if deg[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for w in adjacency[v]:
                deg[w] -= 1
                if deg[w] == 1:
                    nxt.append(w)
        layer = nxt
    return tuple(sorted(layer))


def _bfs_order(n: int, adjacency: Sequence[Sequence[int]], root: int) -> tuple[list[int], list[int]]:
    parent = [-1] * n
    parent[root] = root
    order = [root]
    for v in order:
        for w in adjacency[v]:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
    return order, parent


def _rooted_code(
    n: int,
    adjacency: Sequence[Sequence[int]],
    root: int,
    colors: Sequence[int] | None,
) -> bytes:
    order, parent = _bfs_order(n, adjacency, root)
    code: list[bytes] = [b""] * n
    for v in reversed(order):
        children = sorted(code[w] for w in adjacency[v] if parent[w] == v)
        open_byte = _OPEN[0] if colors is None else _OPEN[colors[v] & 1]
        code[v] = open_byte + b"".join(children) + _CLOSE
    return code[root]


def canonical_code(g: Graph, colors: Sequence[int] | None = None) -> bytes:
    """Isomorphism-invariant code of a tree, optionally 0/1-colored.

    Serialized as lowercase hex (``.hex()``) in reports.
    """
    if not is_tree(g):
        raise ValueError("canonical codes are defined for trees only")
    if colors is not None and len(colors) != g.n:
        raise ValueError("colors must assign one value per vertex")
    return min(
        _rooted_code(g.n, g.adjacency, r, colors)
        for r in _centers_from_adjacency(g.n, g.adjacency)
    )


# ---------------------------------------------------------------------------
# Free-tree enumeration by canonical level sequences.
#
# A rooted tree on n vertices is encoded by its depth sequence in canonical
# (greatest-first) DFS order, levels[0] = 0. The rooted successor steps to
# the next-smaller canonical sequence; free-tree canonicity additionally
# requires the first root subtree to be no "heavier" than the rest. As
# published, one jump passes over every invalid rooting at once: the rooted
# successor at the first subtree's last vertex, with the suffix reset to a
# path when that vertex was deeper than level 2. The jump's result is
# checked, and an invalid one raises InternalInvariantError.
# ---------------------------------------------------------------------------


def _rooted_successor(levels: list[int], p: int | None = None) -> list[int] | None:
    if p is None:
        p = len(levels) - 1
        while levels[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    nxt = levels[:p]
    for i in range(p, len(levels)):
        nxt.append(nxt[i - p + q])
    return nxt


def _split_levels(levels: list[int]) -> tuple[list[int], list[int]]:
    m = len(levels)
    for i in range(2, len(levels)):
        if levels[i] == 1:
            m = i
            break
    return [lv - 1 for lv in levels[1:m]], [0] + levels[m:]


def _is_free_canonical(levels: list[int]) -> bool:
    """The free-tree condition on a rooted sequence: its first root subtree
    is shorter than the rest of the tree or, as tall, has fewer vertices or,
    as large, a sequence no greater."""
    left, rest = _split_levels(levels)
    return (max(left), len(left), left) <= (max(rest), len(rest), rest)


def _free_tree_fixup(levels: list[int]) -> list[int]:
    if _is_free_canonical(levels):
        return levels
    p = len(_split_levels(levels)[0])
    nxt = _rooted_successor(levels, p)  # p >= 1, so a successor exists
    if levels[p] > 2:
        height = max(_split_levels(nxt)[0])
        nxt[-height - 1 :] = range(1, height + 2)
    if not _is_free_canonical(nxt):
        raise InternalInvariantError(f"free-tree jump from {levels} left invalid {nxt}")
    return nxt


def _edges_from_levels(levels: Sequence[int]) -> list[Edge]:
    """The labelling of a tree built from its level sequence: vertex i's
    parent is the last vertex before it one level up."""
    edges: list[Edge] = []
    last_at_level = [0] * (max(levels) + 1)
    for i in range(1, len(levels)):
        lv = levels[i]
        edges.append((last_at_level[lv - 1], i))
        last_at_level[lv] = i
    return edges


def _graph_from_levels(levels: Sequence[int]) -> Graph:
    return Graph.from_edges(len(levels), _edges_from_levels(levels))


def _levels_from_graph(g: Graph) -> bytes:
    """The level sequence of a tree labelled by _edges_from_levels, read off
    its edges: each vertex's parent is its smallest neighbour. On any other
    labelling of a tree, _edges_from_levels of the result is not g's edges."""
    levels = bytearray(g.n)
    for v in range(1, g.n):
        levels[v] = levels[g.adjacency[v][0]] + 1
    return bytes(levels)


def free_tree_levels(n: int) -> Iterator[list[int]]:
    """Yield the canonical level sequence of every unlabeled tree on n
    vertices, once each; _graph_from_levels turns one into its Graph."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    return _free_tree_levels(n)


def _free_tree_levels(n: int) -> Iterator[list[int]]:
    if n == 1:
        yield [0]
        return
    levels: list[int] | None = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while levels is not None:
        levels = _free_tree_fixup(levels)
        yield levels
        levels = _rooted_successor(levels)


def enumerate_free_trees(n: int) -> Iterator[Graph]:
    """Yield exactly one Graph per isomorphism class of trees on n vertices."""
    return map(_graph_from_levels, free_tree_levels(n))
