"""Vectorized full-state-space engine.

For exhaustive work the 2^n configuration space of a small graph is
materialized as two flat arrays indexed by packed bits: the successor
configuration and the energy. A lockstep sweep then runs *every* initial
configuration to its cycle at once, using the fact that the period is at
most 2: the transient ends at the first t with x(t+2) = x(t).

Invariants are checked as the sweep runs — energy monotone over all 2^n
transitions, transient within the proven step budget, period 1 or 2, energy
constant for at most n consecutive steps before the transient ends — so a
buggy table cannot produce silently wrong exhaustive results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError
from .graphs import Graph

# 2^25 * (4 + 8) bytes per table is ~400 MB; refuse anything bigger.
MAX_TABLE_VERTICES = 25


def state_tables(g: Graph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(successor, energy) arrays over all 2^n packed configurations."""
    if g.n > MAX_TABLE_VERTICES:
        raise ValueError(f"state tables need n <= {MAX_TABLE_VERTICES}, got {g.n}")
    if k < 1:
        raise ValueError(f"threshold k must be >= 1, got {k}")
    size = 1 << g.n
    states = np.arange(size, dtype=np.uint32)
    full = np.uint32(size - 1)
    flip = np.zeros(size, dtype=np.uint32)
    energy = np.zeros(size, dtype=np.int64)
    for v, mask in enumerate(g.neighbor_masks):
        sign_v = (states >> np.uint32(v)) & np.uint32(1)
        # neighbors disagreeing with v: complement the state word where v is +1
        discord = (states ^ (sign_v * full)) & np.uint32(mask)
        op = np.bitwise_count(discord).astype(np.int64)
        flip |= (op >= k).astype(np.uint32) << np.uint32(v)
        energy += np.abs(op - k)
    return states ^ flip, energy


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Per-start-configuration outcome of an exhaustive sweep; starts increase."""

    n: int
    k: int
    start_bits: np.ndarray
    taus: np.ndarray
    periods: np.ndarray
    plateau_energies: np.ndarray


def sweep(g: Graph, k: int, *, half_space: bool = True) -> SweepResult:
    """Run every initial configuration to its cycle, in lockstep.

    With half_space=True only starts with vertex 0 at +1 are swept; global
    negation maps the other half pointwise onto these, step for step.
    """
    succ, energy = state_tables(g, k)
    if np.any(energy[succ] < energy):
        raise InternalInvariantError("energy decreased across a transition")
    size = 1 << g.n
    if half_space:
        start = (np.arange(size >> 1, dtype=np.uint32) << np.uint32(1)) | np.uint32(1)
    else:
        start = np.arange(size, dtype=np.uint32)

    m = len(start)
    taus = np.zeros(m, dtype=np.int64)
    periods = np.ones(m, dtype=np.int64)
    plateaus = np.zeros(m, dtype=np.int64)

    budget = g.n * (g.max_degree() + 1) + 1
    active = np.arange(m)
    x0 = start.copy()
    x1 = succ[x0]
    x2 = succ[x1]
    zero_run = np.zeros(m, dtype=np.int64)
    t = 0
    while True:
        closed = x0 == x2
        if np.any(closed):
            done = active[closed]
            taus[done] = t
            periods[done] = np.where(x0[closed] == x1[closed], 1, 2)
            plateaus[done] = energy[x0[closed]]
        keep = ~closed
        if not np.any(keep):
            return SweepResult(
                n=g.n, k=k, start_bits=start, taus=taus, periods=periods,
                plateau_energies=plateaus,
            )
        active = active[keep]
        prev_energy = energy[x0[keep]]
        x0, x1 = x1[keep], x2[keep]
        x2 = succ[x1]
        flat = energy[x0] == prev_energy
        zero_run = np.where(flat, zero_run[keep] + 1, 0)
        if np.any(zero_run > g.n):
            raise InternalInvariantError(
                "energy constant for more than n consecutive transient steps"
            )
        t += 1
        if t > budget:
            raise InternalInvariantError(
                f"sweep exceeded the proven {budget}-step transient budget"
            )
