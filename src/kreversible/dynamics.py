"""Synchronous k-reversible dynamics on +/-1 vertex states.

At every step each vertex counts its discordant neighbors (op); a vertex
flips its state iff op >= k, all vertices simultaneously. The process always
ends in a fixed point or a 2-cycle; run_trajectory finds the exact transient
length tau and period by hashing each configuration the first time it is
seen.

The flip rule and the energy sum |op - k| come from the same per-vertex
count, so one pass over the vertices per state yields both: step,
config_energy and run_trajectory all go through that pass. A trajectory is
kept as packed states and their energies; its trace of Configuration
objects is built each time it is read.

Configurations are bit-packed: bit i set means vertex i holds state +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


def _check_compatible(g: Graph, x: Configuration) -> None:
    if g.n != x.n:
        raise ValueError(f"graph has {g.n} vertices, configuration {x.n}")


def _flips_and_energy(pairs: tuple[tuple[int, int], ...], bits: int, k: int) -> tuple[int, int]:
    """One pass over the vertices of state ``bits``: the mask of vertices with
    op >= k (those that flip) and the energy sum of |op - k|."""
    flip = energy = 0
    inverted = ~bits
    for bit, mask in pairs:
        # neighbors whose state differs from this vertex's
        op = (mask & (inverted if bits & bit else bits)).bit_count()
        if op >= k:
            flip |= bit
            energy += op - k
        else:
            energy += k - op
    return flip, energy


def _ops(pairs: tuple[tuple[int, int], ...], bits: int) -> list[int]:
    """op of every vertex of state ``bits``: its neighbors in the other state."""
    inverted = ~bits
    return [(mask & (inverted if bits & bit else bits)).bit_count() for bit, mask in pairs]


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"threshold k must be >= 1, got {k}")


def step(g: Graph, x: Configuration, k: int) -> Configuration:
    """One synchronous update: flip exactly the vertices with op >= k."""
    _check_compatible(g, x)
    _check_k(k)
    flip, _ = _flips_and_energy(g._vertex_pairs, x.bits, k)
    return Configuration(x.n, x.bits ^ flip)


def config_energy(g: Graph, x: Configuration, k: int) -> int:
    """Energy of a configuration: sum over vertices of |op - k|."""
    _check_compatible(g, x)
    _check_k(k)
    _, energy = _flips_and_energy(g._vertex_pairs, x.bits, k)
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
    _check_compatible(g, x0)
    _check_k(k)
    max_steps = g.n * (g.max_degree() + 1) + 3
    pairs = g._vertex_pairs
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
        flip, energy = _flips_and_energy(pairs, bits, k)
        energies.append(energy)
        bits ^= flip
    raise invariant_violation(
        g, k, x0, f"no repeat within {max_steps} steps; transient bound violated"
    )
