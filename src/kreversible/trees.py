"""Tree canonicalization and unlabeled-tree enumeration.

Canonical codes are rooted-subtree encodings rooted at the tree's center
(minimum over both centers for bicentral trees), so two trees get the same
code iff they are isomorphic. An optional 0/1 coloring makes the code
canonical under color-preserving isomorphism, which is how configuration
orbits on a tree are counted.

free_tree_levels generates every unlabeled tree exactly once, as its
canonical level sequence, by the successor method; enumerate_free_trees
builds the Graph of each.
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
        children = sorted(code[w] for w in adjacency[v] if parent[w] == v and w != v)
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
# requires the first root subtree to be no "heavier" than the rest, and
# invalid rootings are jumped over rather than filtered one by one.
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


def _free_tree_fixup(levels: list[int]) -> list[int]:
    for _ in range(8 * len(levels) + 8):
        left, rest = _split_levels(levels)
        height_left, height_rest = max(left), max(rest)
        if height_rest > height_left:
            return levels
        if height_rest == height_left and (
            len(left) < len(rest) or (len(left) == len(rest) and left <= rest)
        ):
            return levels
        p = len(left)
        was_deep = levels[p] > 2
        nxt = _rooted_successor(levels, p)
        if nxt is None:
            raise InternalInvariantError("level-sequence successor underflow")
        levels = nxt
        if was_deep:
            new_left, _ = _split_levels(levels)
            suffix = list(range(1, max(new_left) + 2))
            levels[-len(suffix) :] = suffix
    raise InternalInvariantError("free-tree fixup did not converge")


def _graph_from_levels(levels: Sequence[int]) -> Graph:
    n = len(levels)
    edges: list[Edge] = []
    last_at_level = [0] * (max(levels) + 1)
    for i in range(1, n):
        lv = levels[i]
        edges.append((last_at_level[lv - 1], i))
        last_at_level[lv] = i
    return Graph.from_edges(n, edges)


def _levels_from_graph(g: Graph) -> bytes:
    """The level sequence of a tree _graph_from_levels built, read off its
    edges: each vertex's parent is its smallest neighbour. On any other
    labelling of a tree, _graph_from_levels of the result is not g."""
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
