"""Synchronous k-reversible dynamics on +/-1 vertex states.

At every step each vertex counts its discordant neighbors (op); a vertex
flips its state iff op >= k, all vertices simultaneously. The process always
ends in a fixed point or a 2-cycle; run_trajectory finds the exact transient
length tau and period by hashing each configuration the first time it is
seen.

The flip rule and the energy sum |op - k| come from the same per-vertex
count, so one count per state yields both: step, config_energy and
run_trajectory all go through _flips_and_energy. The count has two kernels.
Below VECTOR_MIN_VERTICES it walks the vertices' neighbor masks on the
packed int; from there on the state is unpacked to one byte per vertex and
op is a bincount, by tail, of the graph's arcs whose ends differ (_ops), so
the per-vertex work runs in numpy. Every graph small enough for the state
tables stays on the walk. A trajectory is kept as packed states and their
energies; its trace of Configuration objects is built each time it is read.

op never reaches n, so from k = n on no vertex flips and every term is
k - op: E_k = E_n + n(k - n). _cap_k is the one statement of that rule; the
arc kernel, the energy bookkeeping and the state tables sum at min(k, n) and
add the offset as a Python int, so any k stays exact.

Configurations are bit-packed: bit i set means vertex i holds state +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParseError, invariant_violation
from .graphs import Graph

# binary digits, least significant first, to state characters and back
_TO_STATES = str.maketrans("10", "+-")
_TO_DIGITS = str.maketrans("+-", "10")
_DROP_LEGAL = str.maketrans(dict.fromkeys("+-10"))  # what is left of a string is illegal


@dataclass(frozen=True)
class Configuration:
    """A +/-1 state per vertex, packed into an int (bit set = +1)."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("configuration needs at least one vertex")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bits 0x{self.bits:x} out of range for n={self.n}")

    @classmethod
    def from_states(cls, states) -> Configuration:
        bits = 0
        for i, s in enumerate(states):
            if s == 1:
                bits |= 1 << i
            elif s != -1:
                raise ValueError(f"state must be +1 or -1, got {s!r}")
        return cls(n=len(states), bits=bits)

    @property
    def states(self) -> tuple[int, ...]:
        return tuple(1 if (self.bits >> i) & 1 else -1 for i in range(self.n))

    def negate(self) -> Configuration:
        """Flip every vertex state. Dynamics commute with global negation."""
        return Configuration(self.n, self.bits ^ ((1 << self.n) - 1))

    def to_string(self) -> str:
        return f"{self.bits:0{self.n}b}"[::-1].translate(_TO_STATES)

    def __str__(self) -> str:
        return self.to_string()


def parse_config(text: str, n: int) -> Configuration:
    """Parse a configuration string: one character per vertex, '+'/'1' for
    state +1 and '-'/'0' for -1."""
    s = text.strip()
    if len(s) != n:
        raise ParseError(f"configuration has {len(s)} characters, expected {n}")
    illegal = s.translate(_DROP_LEGAL)
    if illegal:  # the first illegal character occurs nowhere before its position
        c = illegal[0]
        raise ParseError(f"illegal configuration character {c!r} at position {s.index(c) + 1}")
    # a leading zero keeps n = 0 an error of Configuration, not of int
    return Configuration(n, int("0" + s[::-1].translate(_TO_DIGITS), 2))


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"threshold k must be >= 1, got {k}")


def _check_compatible(g: Graph, x: Configuration, k: int) -> None:
    """The checks of every per-state call: x fits g, then k >= 1."""
    if g.n != x.n:
        raise ValueError(f"graph has {g.n} vertices, configuration {x.n}")
    _check_k(k)


# The mask walk pays one Python-level step per vertex; the kernel pays a
# fixed dozen numpy calls and then little per arc. Below this many vertices
# the fixed cost is the larger, so every graph the tables cover keeps the walk.
VECTOR_MIN_VERTICES = 64


def _cap_k(k: int, n: int) -> tuple[int, int]:
    """(min(k, n), n * max(0, k - n)): the threshold an n-vertex energy is
    summed at, and what E_k adds to that sum. op < n, so from k = n on no
    vertex flips and each term grows by 1 with k."""
    return min(k, n), n * max(0, k - n)


def _flips_and_energy(g: Graph, bits: int, k: int) -> tuple[int, int]:
    """The mask of the vertices of state ``bits`` with op >= k (those that
    flip) and the energy sum of |op - k|: a walk over the vertex masks on
    small graphs, the arc kernel of _ops from VECTOR_MIN_VERTICES on."""
    if g.n >= VECTOR_MIN_VERTICES:
        ops = _ops(g, _unpack(bits, g.n))
        top, offset = _cap_k(k, g.n)  # the sum runs in int64, the offset as an int
        return _pack(ops >= top), int(np.abs(ops - top).sum()) + offset
    flip = energy = 0
    inverted = ~bits
    for bit, mask in g._vertex_pairs:
        # neighbors whose state differs from this vertex's
        op = (mask & (inverted if bits & bit else bits)).bit_count()
        if op >= k:
            flip |= bit
            energy += op - k
        else:
            energy += k - op
    return flip, energy


def _unpack(bits: int, n: int) -> np.ndarray:
    """State ``bits`` as one uint8 per vertex, 1 for state +1."""
    packed = np.frombuffer(bits.to_bytes(-(-n // 8), "little"), np.uint8)
    return np.unpackbits(packed, count=n, bitorder="little")


def _pack(members: np.ndarray) -> int:
    """The bit mask of the vertices where ``members`` is true."""
    return int.from_bytes(np.packbits(members, bitorder="little").tobytes(), "little")


def _ops(g: Graph, state: np.ndarray) -> np.ndarray:
    """op of every vertex as an int64 array, given the state unpacked to one
    value per vertex: its arcs whose head holds the other state, counted by
    tail."""
    tails, heads = g._arcs
    return np.bincount(tails, weights=state[tails] != state[heads], minlength=g.n).astype(np.int64)


def step(g: Graph, x: Configuration, k: int) -> Configuration:
    """One synchronous update: flip exactly the vertices with op >= k."""
    _check_compatible(g, x, k)
    flip, _ = _flips_and_energy(g, x.bits, k)
    return Configuration(x.n, x.bits ^ flip)


def config_energy(g: Graph, x: Configuration, k: int) -> int:
    """Energy of a configuration: sum over vertices of |op - k|."""
    _check_compatible(g, x, k)
    _, energy = _flips_and_energy(g, x.bits, k)
    return energy


class TraceStep(NamedTuple):
    t: int
    config: Configuration
    energy: int


@dataclass(frozen=True)
class TrajectoryResult:
    """Exact transient/period data for one trajectory.

    tau is the least t with x(t) on the cycle; period is the cycle length
    (always 1 or 2); plateau_energy is the energy at and after tau. states
    and energies hold x(t) packed into an int and E(x(t)) for t = 0 .. tau +
    period, so the last entry repeats the entry at tau; n is the vertex count.
    """

    tau: int
    period: int
    plateau_energy: int
    n: int
    states: tuple[int, ...]
    energies: tuple[int, ...]

    @property
    def trace(self) -> tuple[TraceStep, ...]:
        """(t, x(t), E(x(t))) for every step, built on each read."""
        return tuple(
            TraceStep(t, Configuration(self.n, bits), energy)
            for t, (bits, energy) in enumerate(zip(self.states, self.energies))
        )


def run_trajectory(g: Graph, x0: Configuration, k: int) -> TrajectoryResult:
    """Iterate until the first repeated configuration and report tau/period.

    The step budget is n*(max_degree+1) + 3: the proven transient bound plus
    one full revisit, and a little slack. A trajectory that fails to close
    within it, or closes with period above 2, is mathematically impossible
    and raises InternalInvariantError naming the edges, k and the start
    configuration.
    """
    _check_compatible(g, x0, k)
    max_steps = g.n * (g.max_degree() + 1) + 3
    seen: dict[int, int] = {}  # state -> first t; insertion order is the trajectory
    energies: list[int] = []
    bits = x0.bits
    for t in range(max_steps + 1):
        tau = seen.get(bits)
        if tau is not None:
            period = t - tau
            if period not in (1, 2):
                raise invariant_violation(g, k, x0, f"detected period {period}, expected 1 or 2")
            energies.append(energies[tau])
            return TrajectoryResult(
                tau=tau,
                period=period,
                plateau_energy=energies[tau],
                n=g.n,
                states=(*seen, bits),
                energies=tuple(energies),
            )
        seen[bits] = t
        flip, energy = _flips_and_energy(g, bits, k)
        energies.append(energy)
        bits ^= flip
    raise invariant_violation(
        g, k, x0, f"no repeat within {max_steps} steps; transient bound violated"
    )
