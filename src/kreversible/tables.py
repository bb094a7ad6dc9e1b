"""Vectorized full-state-space engine.

For exhaustive work the 2^n configuration space of a small graph is
materialized as two flat arrays indexed by packed bits: the successor
configuration and the energy. A lockstep sweep then runs *every* initial
configuration to its cycle at once, using the fact that the period is at
most 2: the transient ends at the first t with x(t+2) = x(t).

The tables are built from neighbourhood tables. Vertex v's flip bit and its
energy term |op_v - k| depend only on the states of its closed neighbourhood
N[v]. The 2^n index space is viewed as an array of shape (2,)*(n-L) + (2^L,)
with L = n // 2: the low L bits form one contiguous trailing axis, and each
high bit has an axis of its own (axis a holds bit n-1-a). Each vertex's
formula is evaluated on every combination of the high bits in N[v] times all
2^L low states, a sample whose other high axes have length 1. That local
table broadcasts over the axes outside N[v], so the successor table (which
starts as the identity; flip bits of different vertices never overlap) takes
it with one in-place XOR and the energy table with one in-place add. The
energy is summed in int16 when its bound allows and widened to int64 once at
the end. No other temporary spans the whole space unless N[v] holds every
high bit.

Invariants are checked as the sweep runs — energy monotone over all 2^n
transitions, transient within the proven step budget, period 1 or 2, energy
constant for at most n consecutive steps before the transient ends — so a
buggy table cannot produce silently wrong exhaustive results. Each violation
names the edges, k and the first offending start configuration, which one
`kreversible simulate` call replays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Configuration, _check_k
from .errors import InternalInvariantError, invariant_violation
from .graphs import Graph

# The tables take 4 + 8 bytes per state, 2^25 * 12 B = 384 MiB at the cap.
# Building them allocates no other array that wide on sparse graphs, apart
# from a 2-byte energy partial sum for small k: the tables of a 22-vertex
# tree peak at 90 MiB RSS, 48 MiB of them the tables. Refuse anything bigger.
MAX_TABLE_VERTICES = 25


def state_tables(g: Graph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(successor, energy) arrays over all 2^n packed configurations."""
    n = g.n
    if n > MAX_TABLE_VERTICES:
        raise ValueError(f"state tables need n <= {MAX_TABLE_VERTICES}, got {n}")
    _check_k(k)
    if n * (k + 1) > np.iinfo(np.int64).max:
        # energies and the transient bound n*(k+1) - 1 are int64
        raise ValueError(f"n*(k+1) must fit in int64, got n={n} and k={k}")
    low = n // 2
    high = n - low
    shape = (2,) * high + (1 << low,)
    high_bits = np.arange(1 << high, dtype=np.uint32) << np.uint32(low)
    high_bits = high_bits.reshape((2,) * high + (1,))
    low_bits = np.arange(1 << low, dtype=np.uint32)
    full = np.uint32((1 << n) - 1)
    # each term |op_v - k| is at most max(k, n), so every partial sum of a
    # state's energy fits in int16 whenever n * max(k, n) does
    partial = np.int16 if n * max(k, n) <= np.iinfo(np.int16).max else np.int64
    succ = np.arange(1 << n, dtype=np.uint32)
    energy = np.zeros(1 << n, dtype=partial)
    succ_view, energy_view = succ.reshape(shape), energy.reshape(shape)
    for v, mask in enumerate(g.neighbor_masks):
        closed = mask | (1 << v)
        # high bits outside N[v] are held at 0: the formula does not read them
        sample = tuple(slice(None) if closed >> (n - 1 - a) & 1 else slice(1) for a in range(high))
        states = high_bits[sample] | low_bits
        sign_v = (states >> np.uint32(v)) & np.uint32(1)
        # neighbors disagreeing with v: complement the state word where v is +1
        discord = (states ^ (sign_v * full)) & np.uint32(mask)
        op = np.bitwise_count(discord).astype(np.int64)
        succ_view ^= (op >= k).astype(np.uint32) << np.uint32(v)
        energy_view += np.abs(op - k).astype(partial)
    return succ, energy.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Per-start-configuration outcome of an exhaustive sweep; starts increase."""

    n: int
    k: int
    start_bits: np.ndarray
    taus: np.ndarray
    periods: np.ndarray
    plateau_energies: np.ndarray


def sweep(g: Graph, k: int) -> SweepResult:
    """Run every initial configuration with vertex 0 at +1 to its cycle, in
    lockstep; global negation maps the other half pointwise onto these, step
    for step.
    """

    def violation(bits, what: str) -> InternalInvariantError:
        return invariant_violation(g, k, Configuration(g.n, int(bits)), what)

    succ, energy = state_tables(g, k)
    decreased = energy[succ] < energy
    if np.any(decreased):
        x = int(np.argmax(decreased))
        raise violation(
            x, f"energy decreased across a transition, {energy[x]} -> {energy[succ[x]]}"
        )
    start = (np.arange(1 << (g.n - 1), dtype=np.uint32) << np.uint32(1)) | np.uint32(1)

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
        long_run = zero_run > g.n
        if np.any(long_run):
            raise violation(
                start[active[np.argmax(long_run)]],
                "energy constant for more than n consecutive transient steps",
            )
        t += 1
        if t > budget:
            raise violation(
                start[active[0]], f"sweep exceeded the proven {budget}-step transient budget"
            )
