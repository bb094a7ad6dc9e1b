"""Energy accounting: the per-transition bookkeeping of E and the
closed-form transient bounds.

E splits the vertices into S1 = {op >= k} (flipping this step) and
S2 = {op < k}, and charges each vertex its distance past/short of the
threshold. E never decreases along a trajectory, which is what turns it into
transient-length bounds. delta_energy_breakdown is the one bookkeeping of a
transition t -> t+1: E, the auxiliary E' (the partition at time t but op
measured at t+1), S1/S2, the discordant-edge classes a/b/c and the
per-vertex deltas are all read off the EnergyBreakdown it returns (S2, the
complement of S1, when it is read). It unpacks the state once and reads
op at t and at t+1 from the arc kernel of the dynamics at every n; E, E',
E(t+1), the op sums and the per-vertex deltas are array reductions over
them, at the threshold and offset that dynamics._cap_k gives for k >= n;
a/b/c are counted on the edge list. E' always equals E, and no vertex ever
contributes negatively to E(t+1) - E(t). These identities are re-checked at
runtime and raise InternalInvariantError on violation, since a failure is
possible only through an implementation bug.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import (
    Configuration,
    TrajectoryResult,
    _cap_k,
    _check_compatible,
    _check_k,
    _ops,
    _unpack,
)
from .errors import invariant_violation
from .graphs import Graph, is_tree

VertexSet = frozenset[int]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Everything about one transition t -> t+1 of the energy bookkeeping."""

    op_now: tuple[int, ...]
    op_next: tuple[int, ...]
    s1: VertexSet
    energy: int
    energy_aux: int
    a_size: int
    b_size: int
    c_size: int
    per_vertex_delta: tuple[int, ...]

    @property
    def s2(self) -> VertexSet:  # the complement of S1
        return frozenset(range(len(self.op_now))) - self.s1


def delta_energy_breakdown(g: Graph, x: Configuration, k: int) -> EnergyBreakdown:
    """The energy bookkeeping of the transition x -> x(t+1).

    S1 is the set of the vertices with op >= k, which is also the set
    the step flips. a, b and c count the discordant edges inside S1, inside
    S2 and between them from the edge list, not from op, so the handshake
    identities sum_{S1} op = 2a + c and sum_{S2} op = 2b + c are real checks.
    A vertex that stays on its side of the threshold contributes 0 to
    E(t+1) - E(t); moving S1 -> S2 contributes 2(k - op(t+1)); moving
    S2 -> S1 contributes 2(op(t+1) - k). E = E', both handshake identities,
    the sum of the contributions and their sign are checked on every call.
    """
    _check_compatible(g, x, k)
    top, above = _cap_k(k, g.n)  # S1 is empty from k = n on
    state = _unpack(x.bits, g.n)  # 1 where the vertex holds +1
    ops = _ops(g, state)
    in_s1 = ops >= top
    ops_next = _ops(g, state ^ in_s1)
    gap_next = ops_next - top
    dist_next = np.abs(gap_next)
    side = np.where(in_s1, 1, -1)  # a vertex's term is op - k in S1, k - op in S2
    e_now = int(side @ (ops - top)) + above
    e_aux = int(side @ gap_next) + above
    e_next = int(dist_next.sum()) + above
    op_sum_s1 = int(ops @ in_s1)
    op_sum_s2 = int(ops.sum()) - op_sum_s1
    # only a vertex that crosses the threshold contributes: 2|op(t+1) - k|
    deltas = np.where(in_s1 != (gap_next >= 0), 2 * dist_next, 0)

    # each end adds its state (0 or 1) and 3 if it is in S1: the edges whose
    # states differ sum to 1, 4 or 7 with 0, 1 or 2 ends in S1
    code = state + 3 * in_s1
    u, v = g._edge_ends
    b, c, a = np.bincount(code[u] + code[v], minlength=9)[1::3].tolist()

    if e_aux != e_now:
        raise invariant_violation(g, k, x, f"auxiliary energy {e_aux} differs from energy {e_now}")
    if op_sum_s1 != 2 * a + c:
        raise invariant_violation(g, k, x, "op sum over s1 differs from 2a + c")
    if op_sum_s2 != 2 * b + c:
        raise invariant_violation(g, k, x, "op sum over s2 differs from 2b + c")
    if int(deltas.sum()) != e_next - e_now:
        raise invariant_violation(g, k, x, "per-vertex deltas do not sum to the energy difference")
    if deltas.min() < 0:
        raise invariant_violation(g, k, x, "negative per-vertex energy contribution")
    return EnergyBreakdown(
        op_now=tuple(ops.tolist()),
        op_next=tuple(ops_next.tolist()),
        s1=frozenset(in_s1.nonzero()[0].tolist()),
        energy=e_now,
        energy_aux=e_aux,
        a_size=a,
        b_size=b,
        c_size=c,
        per_vertex_delta=tuple(deltas.tolist()),
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
        return asdict(self)


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
