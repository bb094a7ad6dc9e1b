"""Simple undirected graphs with edge-list file I/O.

Vertices are 0-based internally; the text formats (edge-list files, reports)
are 1-based. A Graph is immutable and normalized: edges are stored as sorted
(u, v) pairs with u < v, so two graphs compare equal iff they are the same
labeled graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import ParseError

Edge = tuple[int, int]


def _one_based(edges: tuple[Edge, ...]) -> list[list[int]]:
    """Edges as the 1-based [u, v] pairs that reports and messages print."""
    return [[u + 1, v + 1] for u, v in edges]


class MalformedLineError(ParseError):
    """A line that is not a header, comment, or 'u v' pair."""


class VertexIndexError(ParseError):
    """A vertex id outside 1..n."""


class SelfLoopError(ParseError):
    """An edge joining a vertex to itself."""


class DuplicateEdgeError(ParseError):
    """The same unordered pair listed twice."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph. Build through :meth:`from_edges`.

    neighbor_masks[i] is a bitmask of i's neighbors (bit j set iff ij is an
    edge); the dynamics' mask walk works on these masks directly, and its
    arc kernel on the arrays of _arcs.
    """

    n: int
    edges: tuple[Edge, ...]
    adjacency: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]
    neighbor_masks: tuple[int, ...]

    @classmethod
    def from_edges(cls, n: int, edges) -> Graph:
        """Validate and normalize an edge list (0-based endpoints)."""
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        normalized: list[Edge] = []
        seen: set[Edge] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexIndexError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise DuplicateEdgeError(f"edge {e} listed more than once")
            seen.add(e)
            normalized.append(e)
        normalized.sort()
        adjacency: list[list[int]] = [[] for _ in range(n)]
        masks = [0] * n
        for u, v in normalized:
            adjacency[u].append(v)
            adjacency[v].append(u)
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return cls(
            n=n,
            edges=tuple(normalized),
            adjacency=tuple(tuple(nbrs) for nbrs in adjacency),
            degrees=tuple(len(nbrs) for nbrs in adjacency),
            neighbor_masks=tuple(masks),
        )

    @cached_property
    def _vertex_pairs(self) -> tuple[tuple[int, int], ...]:
        """(1 << v, neighbor mask of v) for every vertex v: what the scalar
        dynamics walk on every step, built on first use and kept."""
        return tuple((1 << v, mask) for v, mask in enumerate(self.neighbor_masks))

    @cached_property
    def _arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """(tails, heads) of the 2m arcs v -> w, one per entry of adjacency[v]:
        what the vectorized op count gathers over, built on first use."""
        tails = np.repeat(np.arange(self.n, dtype=np.intp), self.degrees)
        heads = np.fromiter(chain.from_iterable(self.adjacency), np.intp, len(tails))
        return tails, heads

    @cached_property
    def _edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """(u, v) of every edge of the edge list as arrays, built on first use.
        Read off edges, not _arcs, so that the energy bookkeeping's edge
        classes and its op counts come from independent data."""
        ends = np.fromiter(chain.from_iterable(self.edges), np.intp, 2 * len(self.edges))
        return ends[0::2], ends[1::2]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def max_degree(self) -> int:
        return max(self.degrees)

    def is_connected(self) -> bool:
        return self._connected

    @cached_property
    def _connected(self) -> bool:
        """A walk over the neighbor masks from vertex 0, made once per graph."""
        if self.n == 1:
            return True
        seen = 1  # bitmask of visited vertices, start from 0
        frontier = [0]
        while frontier:
            v = frontier.pop()
            fresh = self.neighbor_masks[v] & ~seen
            seen |= fresh
            while fresh:
                w = (fresh & -fresh).bit_length() - 1
                frontier.append(w)
                fresh &= fresh - 1
        return seen == (1 << self.n) - 1


def is_tree(g: Graph) -> bool:
    """A tree is connected with exactly n - 1 edges."""
    return g.num_edges == g.n - 1 and g.is_connected()


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: a header line ``n=<int>`` followed by one
    ``u v`` pair per line, 1-based. ``#`` starts a comment; blank lines are
    ignored. Raises a distinct ParseError subclass per defect.
    """
    n: int | None = None
    listed: dict[Edge, int] = {}  # each edge, 0-based with u < v, and the line listing it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            if not line.startswith("n="):
                raise MalformedLineError(f"line {lineno}: expected 'n=<int>' header, got {line!r}")
            try:
                n = int(line[2:])
            except ValueError:
                raise MalformedLineError(f"line {lineno}: bad vertex count {line!r}") from None
            if n < 1:
                raise MalformedLineError(f"line {lineno}: vertex count must be positive")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedLineError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedLineError(f"line {lineno}: non-integer endpoint in {line!r}") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise VertexIndexError(f"line {lineno}: vertex out of range 1..{n} in {line!r}")
        if u == v:
            raise SelfLoopError(f"line {lineno}: self-loop at vertex {u}")
        edge = (min(u, v) - 1, max(u, v) - 1)
        if edge in listed:
            raise DuplicateEdgeError(
                f"line {lineno}: edge ({u}, {v}) already listed on line {listed[edge]}"
            )
        listed[edge] = lineno
    if n is None:
        raise MalformedLineError("missing 'n=<int>' header line")
    return Graph.from_edges(n, listed)
