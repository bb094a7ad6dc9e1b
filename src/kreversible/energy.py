"""Energy accounting: E, the auxiliary E', edge partitions, per-vertex
delta contributions, and the closed-form transient bounds.

E splits the vertices into S1 = {op >= k} (flipping this step) and
S2 = {op < k}, and charges each vertex its distance past/short of the
threshold. E never decreases along a trajectory, which is what turns it into
transient-length bounds. The auxiliary E' keeps the partition at time t but
measures op at t+1; it always equals E, and the per-vertex delta accounting
shows no vertex ever contributes negatively to E(t+1) - E(t). These
identities are re-checked at runtime and raise InternalInvariantError on
violation, since a failure is possible only through an implementation bug.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Configuration, TrajectoryResult, _check_k, op_counts
from .errors import InternalInvariantError
from .graphs import Graph, is_tree
from .tables import state_tables

VertexSet = frozenset[int]


def _split(ops, k: int) -> tuple[VertexSet, VertexSet]:
    s1 = frozenset(v for v, op in enumerate(ops) if op >= k)
    return s1, frozenset(range(len(ops))) - s1


def partition(g: Graph, x: Configuration, k: int) -> tuple[VertexSet, VertexSet]:
    """Split vertices into s1 = {op >= k} (about to flip) and s2 = the rest."""
    _check_k(k)
    return _split(op_counts(g, x), k)


def _partitioned_sum(ops, s1: VertexSet, n: int, k: int) -> int:
    return sum(ops[v] - k if v in s1 else k - ops[v] for v in range(n))


def _flipped(x: Configuration, s1: VertexSet) -> Configuration:
    # s1 is exactly the set of vertices the next step flips
    return Configuration(x.n, x.bits ^ sum(1 << v for v in s1))


def energy(g: Graph, x: Configuration, k: int) -> int:
    """E = sum_{s1}(op - k) + sum_{s2}(k - op); a nonnegative integer."""
    _check_k(k)
    ops = op_counts(g, x)
    s1, _ = _split(ops, k)
    return _partitioned_sum(ops, s1, g.n, k)


def energy_aux(g: Graph, x: Configuration, k: int) -> int:
    """E' = same sum with the partition taken at t but op measured at t+1.

    Always equals energy(g, x, k); the equality is what makes E monotone.
    """
    _check_k(k)
    s1, _ = partition(g, x, k)
    return _partitioned_sum(op_counts(g, _flipped(x, s1)), s1, g.n, k)


def _edge_partition(
    g: Graph, x: Configuration, ops, s1: VertexSet, s2: VertexSet
) -> tuple[int, int, int]:
    a = b = c = 0
    for u, v in g.edges:
        if x.state(u) == x.state(v):
            continue
        ends_in_s1 = (u in s1) + (v in s1)
        if ends_in_s1 == 2:
            a += 1
        elif ends_in_s1 == 0:
            b += 1
        else:
            c += 1
    if sum(ops[v] for v in s1) != 2 * a + c:
        raise InternalInvariantError("op sum over s1 differs from 2a + c")
    if sum(ops[v] for v in s2) != 2 * b + c:
        raise InternalInvariantError("op sum over s2 differs from 2b + c")
    return a, b, c


def edge_partition(g: Graph, x: Configuration, k: int) -> tuple[int, int, int]:
    """Sizes (a, b, c) of the discordant edges inside s1, inside s2, and
    crossing between them.

    Self-checks the handshake identities sum_{s1} op = 2a + c and
    sum_{s2} op = 2b + c before returning.
    """
    _check_k(k)
    ops = op_counts(g, x)
    return _edge_partition(g, x, ops, *_split(ops, k))


@dataclass(frozen=True)
class EnergyBreakdown:
    """Everything about one transition t -> t+1 of the energy bookkeeping."""

    op_now: tuple[int, ...]
    op_next: tuple[int, ...]
    s1: VertexSet
    s2: VertexSet
    energy: int
    energy_aux: int
    a_size: int
    b_size: int
    c_size: int
    per_vertex_delta: tuple[int, ...]

    def to_json_dict(self) -> dict:
        # external reports are 1-based
        return {
            "op_now": list(self.op_now),
            "op_next": list(self.op_next),
            "s1": sorted(v + 1 for v in self.s1),
            "s2": sorted(v + 1 for v in self.s2),
            "energy": self.energy,
            "energy_aux": self.energy_aux,
            "a_size": self.a_size,
            "b_size": self.b_size,
            "c_size": self.c_size,
            "per_vertex_delta": list(self.per_vertex_delta),
        }


def delta_energy_breakdown(g: Graph, x: Configuration, k: int) -> EnergyBreakdown:
    """Per-vertex contributions to E(t+1) - E(t).

    A vertex that stays on its side of the threshold contributes 0; moving
    s1 -> s2 contributes 2(k - op(t+1)); moving s2 -> s1 contributes
    2(op(t+1) - k). Every contribution is >= 0 and they sum exactly to the
    energy difference; both facts are checked here.
    """
    _check_k(k)
    ops = op_counts(g, x)
    s1, s2 = _split(ops, k)
    ops_next = op_counts(g, _flipped(x, s1))
    e_now = _partitioned_sum(ops, s1, g.n, k)
    e_aux = _partitioned_sum(ops_next, s1, g.n, k)
    if e_aux != e_now:
        raise InternalInvariantError(f"auxiliary energy {e_aux} differs from energy {e_now}")
    a, b, c = _edge_partition(g, x, ops, s1, s2)
    deltas = []
    for v in range(g.n):
        now_s1 = v in s1
        next_s1 = ops_next[v] >= k
        if now_s1 == next_s1:
            deltas.append(0)
        elif now_s1:
            deltas.append(2 * (k - ops_next[v]))
        else:
            deltas.append(2 * (ops_next[v] - k))
    e_next = _partitioned_sum(ops_next, frozenset(v for v in range(g.n) if ops_next[v] >= k), g.n, k)
    if sum(deltas) != e_next - e_now:
        raise InternalInvariantError("per-vertex deltas do not sum to the energy difference")
    if any(d < 0 for d in deltas):
        raise InternalInvariantError("negative per-vertex energy contribution")
    return EnergyBreakdown(
        op_now=tuple(ops),
        op_next=tuple(ops_next),
        s1=s1,
        s2=s2,
        energy=e_now,
        energy_aux=e_aux,
        a_size=a,
        b_size=b,
        c_size=c,
        per_vertex_delta=tuple(deltas),
    )


@dataclass(frozen=True)
class BoundReport:
    """Closed-form transient bounds for a graph/threshold pair.

    general_bound always applies; high_k_bound only when 2k exceeds the
    maximum degree; the tree fields only on trees; plateau_bound (final
    energy + n - 1) only when a trajectory was supplied.
    """

    n: int
    k: int
    max_degree: int
    general_bound: int
    high_k_bound: int | None
    tree_bound: int | None
    tree_max_energy: int | None
    plateau_bound: int | None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "max_degree": self.max_degree,
            "general_bound": self.general_bound,
            "high_k_bound": self.high_k_bound,
            "tree_bound": self.tree_bound,
            "tree_max_energy": self.tree_max_energy,
            "plateau_bound": self.plateau_bound,
        }


def bound_report(g: Graph, k: int, traj: TrajectoryResult | None = None) -> BoundReport:
    """Evaluate every applicable transient bound exactly."""
    _check_k(k)
    delta = g.max_degree()
    tree = is_tree(g)
    return BoundReport(
        n=g.n,
        k=k,
        max_degree=delta,
        general_bound=g.n * (delta + 1) - 1,
        high_k_bound=g.n * (k + 1) - 1 if 2 * k > delta else None,
        tree_bound=g.n * (k + 1) - 1 if tree else None,
        tree_max_energy=g.n * k if tree else None,
        plateau_bound=traj.plateau_energy + g.n - 1 if traj is not None else None,
    )


def max_tree_energy_check(tree: Graph, k: int) -> tuple[int, tuple[Configuration, ...]]:
    """Brute-force the energy over all 2^n configurations of a tree.

    Returns the maximum and every attaining configuration. On a tree the
    maximum is n*k, attained exactly by the two monochromatic states.
    """
    if not is_tree(tree):
        raise ValueError("max-energy check is scoped to trees")
    _, energy_table = state_tables(tree, k)
    best = int(energy_table.max())
    attain = tuple(
        Configuration(tree.n, int(bits)) for bits in np.flatnonzero(energy_table == best)
    )
    return best, attain
