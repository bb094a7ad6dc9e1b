"""Vectorized full-state-space engine.

For exhaustive work the 2^n configuration space of a small graph is
materialized as two flat arrays indexed by packed bits: the successor
configuration and the energy. A lockstep sweep then runs *every* initial
configuration to its cycle at once, using the fact that the period is at
most 2: the transient ends at the first t with x(t+2) = x(t).

The tables of a chunk of graphs with one vertex count are built together,
state x of graph i becoming i << n | x, from neighbourhood tables: vertex v's
flip bit and its energy term |op_v - k| depend only on the states of its
closed neighbourhood N[v]. The chunk's index space is viewed as an array of
shape (T,) + (2,)*(n-L) + (2^L,) for T graphs, with L = n // 2: a leading
graph axis, the low L bits as one contiguous trailing axis, and an axis for
each high bit (axis 1 + a holds bit n-1-a). Vertex slot v's local table
evaluates the formula on every combination of the high bits in the union
over the chunk of N[v], times all 2^L low states, a sample whose other high
axes have length 1, with each graph's neighbour mask a column on the graph
axis; it broadcasts over the axes outside the union. The slots are walked
in order and grouped while the union of their high bits leaves at least
GROUP_SPARE_BITS of the n - L high bits out. Each slot's local table is
added into its group's accumulators, a uint32 flip table and an int16
energy table over the group's union, and each group then makes one
in-place XOR into the successor table (which starts as the identity; flip
bits of different vertices never overlap) and one in-place add into the
energy table: two full-width passes a group, not two a slot. A group of
one slot, as is every slot whose own union leaves fewer bits out, goes
straight into the tables. A slot of degree below k in every graph never
flips, since op_v <= deg(v), so there only the energy is added, and a group
none of whose slots flips has no flip accumulator. state_tables(g, k) is
the chunk of one, whose union is N[v]: no other temporary spans the whole
space unless N[v] holds every high bit.

For k >= n no vertex flips and each term is k - op_v, so E_k = E_n + n(k - n)
(dynamics._cap_k): the tables are summed at min(k, n), in int16 at every k,
and the offset is added only where energies leave this module (state_tables,
the plateau energies, the violation messages).

The sweep takes a chunk of graphs with one vertex count and runs them in
one loop over the chunk's tables, so numpy's per-call cost is paid once per
chunk, not once per graph. A chunk holds as many graphs as fit
CHUNK_TABLE_BYTES at a budget of 12 bytes per state, but at least one, so
from n = 16 on one graph alone passes that cap; sweep(g, k) is the chunk of
one graph.

The loop runs on the first step's image, not on the starts. A start x off
its cycle has tau(x) = 1 + tau(x(1)) and ends on x(1)'s cycle, with its
period and plateau energy. A start on its cycle, x(2) = x(0), has tau 0, and
x(1) is on the same cycle, a fixed point iff x is, and at the same energy,
since the monotonicity check (made first) holds energy constant on a cycle.
The x(1), read from succ[1::2], are marked in a boolean table and taken with
flatnonzero, and the loop runs on these distinct states: typically under
half the starts, and one a start only when no two starts share an x(1), as
when k > max degree makes succ the identity.

sweep(g, k) gives each start of its one graph its x(1)'s outcome, tau one
more, through one rank lookup; a start on its cycle gets tau 0 (_on_cycle:
such starts are the odd successors of the x(1) with tau 0, since succ is an
involution on a cycle). sweep_chunk, which the search calls, selects on the
loop's states instead: its only array over the starts is one int8 gather.
Per graph, let T be the largest tau of its loop states. If T > 0,
tau_max = T + 1, and the starts attaining it are those whose x(1) has tau
T: those states are marked with their period in an int8 table that holds 0
elsewhere, which is gathered at succ[1::2]. If T = 0, every x(1) is on its
cycle; the starts on their cycle have tau 0 and the others tau 1, and the
entries of those that do not attain are cleared to 0; identity tables take
this path with every start. A start attains iff its entry is nonzero, and
the entry is its period, its x(1)'s. Its Selection also keeps the loop
states' tau and plateau energy, for the search's bound check.

The loop reads the int16 energy table and keeps states in uint32, so a step
gathers 2 bytes of energy per state. It compacts nothing per step: each
state counts tau as its steps with x(t) != x(t+2), a count that stops once
x(t) = x(t+2) puts x(t) on the cycle for good. Closed states stay in the
active arrays until at most half of them are still open; then the closed
ones are written out, tau and x(tau), and dropped. Each such pass at least
halves the active set, so the compaction costs O(states) in all; it drops
the closed states' indices first and compacts one array at a time, so the
peak holds one array's copy, not all eight. The period (1 iff x(tau) is a
fixed point) and the plateau energy E(x(tau)) are read from x(tau) once the
loop is done, the period built in int8 and the energy widened to int64 as
it is read and offset for k > n; tau stays the loop's int16. A SweepResult
stores no starts: entry j of its arrays is start 2j + 1, which
SweepResult.start_bits derives.

Memory, in bytes per state of the chunk: 6 for the tables (4 successor, 2
energy), and while they are built at most 6/16 more for a group's
accumulators, which span at most 1/16 of the chunk's states at 6 bytes each
(GROUP_SPARE_BITS = 4); 1 for the mark table, freed before the loop; and
about 30 per loop state for the loop's arrays. There are at most as many
loop states as starts, half the chunk's states, so the loop takes at most 15
bytes a state, as on identity tables, and typically under half that. The energy table is
freed once the loop is done. Each loop state then keeps 15 bytes: the
state, tau, period and plateau energy, at most 7.5 bytes a state of the
chunk. The chunk budget of 12 bytes a state bounds what a chunk keeps once
its loop is done, the successor table and its loop states: at most 11.5
bytes a state. The selection adds 1 byte a state for its marks and 0.5 for
its gather at succ[1::2], and for a moment 4 more, since np.take copies its
indices to intp. With T = 0 it adds 2 bytes a state for each of the x(1)'s
successors, the starts on their cycle and their graphs, freed before the
attaining starts are picked. The successor table is freed then too; the
attaining starts' int64 indices and bits take 8 bytes a state when every
start attains, as on identity tables, and picking them 0.5 for a moment.
Each Selection keeps 10 bytes a loop state, its tau and plateau energy.
sweep(g, k) instead takes 8 bytes a start for the rank of each start's
x(1), and its SweepResult keeps 11 bytes a start (see SweepResult).

Invariants are checked as the sweep runs, for each graph of a chunk — energy
monotone over all 2^n transitions, transient within the graph's own proven
budget of n(max_degree+1)+1 steps, period 1 or 2, energy constant for at
most n consecutive steps before the transient ends — so a buggy table cannot
produce silently wrong exhaustive results. The loop over the distinct x(1)
checks limits one tighter: the budget less one, and at most n - 1 constant
steps. A start's transient is its first step, then x(1)'s transient, so it
passes the budget only if x(1)'s passes the budget less one; and a constant
run on its path is one on x(1)'s path, or that run with the start's own
first step in front. So every violation on a start's path shows in that
loop. The converse fails: x(1) may keep its energy for n steps, one more
than that loop allows, and x(1) need not be a start. So if that loop raises,
the loop runs on the starts with their own limits, and raises what a loop
over the starts alone raises, naming the same start, or nothing. If
nothing, the alarm was false, and the loop on the distinct x(1) runs again
with the starts' limits, which no x(1) passes: one with tau > 0 is the x(1)
of starts off their cycle only, each one step longer, and each of its
constant runs ends one of theirs. Each violation names the offending
graph's edges, k and its first offending start configuration, which one
`kreversible simulate` call replays.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import Configuration, _cap_k, _check_k
from .errors import InternalInvariantError, invariant_violation
from .graphs import Graph

# Every array of a sweep is a fixed number of bytes per state (see the module
# docstring), so memory doubles with each vertex. Building the tables
# allocates no other array that wide on sparse graphs. Refuse anything bigger.
MAX_TABLE_VERTICES = 25

# A chunk of graphs is swept as one lockstep loop over their concatenated
# tables, at the module docstring's budget per state. The cap keeps a
# chunk's tables, results and loop arrays within a core's L2 cache, so
# chunking adds little to a run's peak RSS.
CHUNK_TABLE_BYTES = 512 << 10

# The table build groups vertex slots while the union of their closed
# neighbourhoods leaves at least this many high bits out, so that a group's
# accumulators span at most 1/2^GROUP_SPARE_BITS of a chunk's states. Measured
# on a 2-vCPU VM with 2 MiB of L2 a core, best of 5, as the build time of
# the five search-large cases (random trees, n = 19..22, one a chunk) and
# per tree on 20 trees each of n = 17 and 18 at k = 2:
#   spare bits        2      3      4      5      6   (one pass a slot)
#   search-large  53.8   38.2   31.1   35.8   37.9 ms   (95.7 ms)
#   n = 17        0.73   0.69   0.68   0.71   0.77 ms   (0.99 ms)
#   n = 18        1.14   1.06   1.05   1.11   1.34 ms   (1.92 ms)
# At n = 13, whose chunks sit in L2, all of them took 0.13 ms a tree.
GROUP_SPARE_BITS = 4


def state_tables(g: Graph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(successor, energy) arrays over all 2^n packed configurations, the
    energy in int64."""
    succ, energy = chunk_tables([g], k)
    return succ, np.add(energy, _cap_k(k, g.n)[1], dtype=np.int64)


def chunk_tables(graphs: Sequence[Graph], k: int) -> tuple[np.ndarray, np.ndarray]:
    """(successor, energy) arrays of graphs with one vertex count, built
    together: state x of graph i is i << n | x, and its successor carries
    the same offset. The energy is int16, summed at the threshold _cap_k
    gives: E_k less its offset."""
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("a chunk takes graphs with one vertex count")
    if n > MAX_TABLE_VERTICES:
        raise ValueError(f"state tables need n <= {MAX_TABLE_VERTICES}, got {n}")
    _check_k(k)
    if n * (k + 1) > np.iinfo(np.int64).max:
        # energies and the transient bound n*(k+1) - 1 are int64
        raise ValueError(f"n*(k+1) must fit in int64, got n={n} and k={k}")
    k, _ = _cap_k(k, n)
    low = n // 2
    high = n - low
    count = len(graphs)
    shape = (count,) + (2,) * high + (1 << low,)
    high_bits = np.arange(1 << high, dtype=np.uint32) << np.uint32(low)
    high_bits = high_bits.reshape((2,) * high + (1,))
    low_bits = np.arange(1 << low, dtype=np.uint32)
    full = np.uint32((1 << n) - 1)
    succ = np.arange(count << n, dtype=np.uint32)
    energy = np.zeros(count << n, dtype=np.int16)  # each term |op_v - k| <= n
    succ_view, energy_view = succ.reshape(shape), energy.reshape(shape)
    slot_masks = np.array([g.neighbor_masks for g in graphs], dtype=np.uint32).T
    # per slot: the union over the chunk of N[v], and whether v can flip in
    # some graph (else op <= degree < k everywhere)
    closed = [int(np.bitwise_or.reduce(masks)) | (1 << v) for v, masks in enumerate(slot_masks)]
    flips = (np.bitwise_count(slot_masks).max(axis=1) >= k).tolist()

    def sample(bits: int) -> tuple[slice, ...]:
        # high bits outside `bits` are held at 0: no formula of these slots reads them
        return tuple(slice(None) if bits >> (n - 1 - a) & 1 else slice(1) for a in range(high))

    for group, union in _slot_groups(closed, low, high - GROUP_SPARE_BITS):
        if len(group) == 1:  # straight into the tables
            flip, terms = succ_view, energy_view
        else:
            part = (count,) + high_bits[sample(union)].shape[:-1] + (1 << low,)
            flip = np.zeros(part, dtype=np.uint32) if any(flips[v] for v in group) else None
            terms = np.zeros(part, dtype=np.int16)
        for v in group:
            states = high_bits[sample(closed[v])] | low_bits
            sign_v = (states >> np.uint32(v)) & np.uint32(1)
            # neighbors disagreeing with v: complement the state word where v is
            # +1; graph i's mask, a column on the graph axis, broadcasts over states
            discord = (states ^ (sign_v * full)) & slot_masks[v].reshape((-1,) + (1,) * (high + 1))
            op = np.bitwise_count(discord).astype(np.int16)
            if flips[v]:
                flip ^= (op >= k) * np.uint32(1 << v)
            terms += np.abs(op - k)
        if len(group) > 1:
            if flip is not None:
                succ_view ^= flip
            energy_view += terms
    return succ, energy


def _slot_groups(closed: list[int], low: int, cap: int) -> list[tuple[list[int], int]]:
    """The vertex slots, in order, in runs whose closed neighbourhoods hold at
    most cap high bits (bits low and up) together, each with the union of
    their closed neighbourhoods; a slot that holds more alone is a run of
    one."""
    groups: list[tuple[list[int], int]] = []
    for v, bits in enumerate(closed):
        if groups and ((groups[-1][1] | bits) >> low).bit_count() <= cap:
            slots, union = groups[-1]
            groups[-1] = (slots + [v], union | bits)
        else:
            groups.append(([v], bits))
    return groups


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Per-start outcome of an exhaustive sweep; entry j is start 2j + 1.

    taus is int16: tau is within the graph's budget n(max_degree+1)+1, at most
    25 * 25 + 1 = 626 up to MAX_TABLE_VERTICES. periods is int8: by the paper
    the period is 1 or 2. plateau_energies is int64: it carries n(k - n) for
    k > n. All three are signed, so arithmetic such as taus - 1 cannot wrap.
    """

    n: int
    k: int
    taus: np.ndarray
    periods: np.ndarray
    plateau_energies: np.ndarray

    @property
    def start_bits(self) -> np.ndarray:
        return np.arange(1, 1 << self.n, 2, dtype=np.uint32)


class Selection(NamedTuple):
    """What the search keeps of one graph's sweep: tau_max, the bits of the
    starts attaining it, increasing, and their int8 periods; and the tau and
    plateau energy of each state the loop ran on, tau counted from the starts
    that step to it. A start off its cycle has its x(1)'s pair, and one on
    its cycle tau 0 and its x(1)'s plateau energy: so each start has a
    pair's plateau energy and at most its tau."""

    tau_max: int
    attaining: np.ndarray
    attaining_periods: np.ndarray
    loop_taus: np.ndarray
    loop_plateaus: np.ndarray


def chunk_size(n: int) -> int:
    """How many n-vertex graphs one sweep_chunk call takes: as many as fit
    CHUNK_TABLE_BYTES at the module docstring's budget, at least one."""
    return max(1, CHUNK_TABLE_BYTES // (12 << n))


def sweep(g: Graph, k: int) -> SweepResult:
    """Run every initial configuration with vertex 0 at +1 to its cycle, in
    lockstep; global negation maps the other half pointwise onto these, step
    for step. The chunk of one graph, each start given its x(1)'s outcome.
    """
    succ, states, _, tau, periods, plateaus = _run_loop([g], k)
    rank = np.searchsorted(states, succ[1::2])  # each start's x(1), as an index into states
    taus = (tau + 1).take(rank)
    taus[_on_cycle(succ, states[tau == 0])] = 0
    return SweepResult(g.n, k, taus, periods.take(rank), plateaus.take(rank))


def sweep_chunk(graphs: Sequence[Graph], k: int) -> list[Selection]:
    """Sweep graphs with one vertex count in one lockstep loop over their
    concatenated tables; one Selection per graph, in order, each what the
    search would read off sweep of that graph alone. An invariant violation
    names the graph it occurs on and that graph's first offending start.
    """
    n = graphs[0].n
    succ, states, first, tau, periods, plateaus = _run_loop(graphs, k)
    half = 1 << (n - 1)
    top = np.maximum.reduceat(tau, first[:-1])  # T; each graph has a state
    counts = np.diff(first)
    # a start off its cycle has 1 + its x(1)'s tau and its x(1)'s period,
    # so for T > 0 the attaining starts are those whose x(1) is at T; the
    # states at T are marked with their period, 1 or 2, and others with 0
    marks = np.zeros(len(succ), dtype=np.int8)
    at_top = tau == top.repeat(counts)
    marks[states[at_top]] = periods[at_top]
    del at_top
    attain = marks.take(succ[1::2])  # start j of graph i is at i * half + j
    del marks
    tau_max = top + 1
    flat = top == 0
    if np.any(flat):
        # every x(1) is on its cycle: the starts on their cycle have tau 0,
        # the others tau 1. Identity tables take this path with all the starts.
        on_cycle = _on_cycle(succ, states[flat.repeat(counts)])
        graph = on_cycle >> (n - 1)
        moved = flat & (np.bincount(graph, minlength=len(top)) < half)
        attain[on_cycle[moved[graph]]] = 0
        del on_cycle, graph
        tau_max[flat] = moved[flat]
    del succ
    picked = np.flatnonzero(attain != 0)  # nonzero is ten times faster on bools
    cuts = np.searchsorted(picked, np.arange(1, len(top)) * half)
    bits = np.split(2 * (picked & (half - 1)) + 1, cuts)
    loop_taus, loop_plateaus = np.split(tau + 1, first[1:-1]), np.split(plateaus, first[1:-1])
    fields = zip(tau_max.tolist(), bits, np.split(attain[picked], cuts), loop_taus, loop_plateaus)
    return [Selection(*f) for f in fields]


def _on_cycle(succ: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """The starts on their cycle, x(2) = x(0), whose x(1) is one of x1, states
    with tau 0, as indices into succ[1::2]. Such a start is the successor of
    its x(1), and every odd successor of a state with tau 0 is such a start."""
    partners = succ.take(x1)
    return partners[partners & 1 == 1] >> 1


def _run_loop(graphs: Sequence[Graph], k: int) -> tuple[np.ndarray, ...]:
    """The chunk's successor table, whose odd entries succ[1::2] are the
    starts' x(1), and what the lockstep loop leaves: the states it ran on,
    the distinct x(1), increasing; first, graph i's states being at
    first[i]:first[i + 1]; and their tau, period and plateau energy. An
    invariant violation names the graph it occurs on and that graph's first
    offending start."""
    n = graphs[0].n
    succ, energy = chunk_tables(graphs, k)
    _, offset = _cap_k(k, n)  # for the energies that leave

    def violation(state, what: str) -> InternalInvariantError:
        g = graphs[int(state) >> n]
        return invariant_violation(g, k, Configuration(n, int(state) & ((1 << n) - 1)), what)

    # in blocks of 2^16 states: np.take copies its uint32 indices to intp, so
    # a block's copy is 512 KiB where the whole table's is 32 MiB at n = 22
    for lo in range(0, len(succ), 1 << 16):
        block = slice(lo, lo + (1 << 16))
        decreased = np.take(energy, succ[block]) < energy[block]
        if np.any(decreased):
            x = lo + int(np.argmax(decreased))
            raise violation(
                x,
                "energy decreased across a transition, "
                f"{int(energy[x]) + offset} -> {int(energy[succ[x]]) + offset}",
            )

    budgets = np.array([n * (g.max_degree() + 1) + 1 for g in graphs])
    # the distinct x(1); succ[1::2] holds the x(1) of start j of graph i,
    # i << n | j << 1 | 1, at i << (n - 1) | j
    image = np.zeros(len(succ), dtype=bool)
    image[succ[1::2]] = True
    states = np.flatnonzero(image).astype(np.uint32)
    del image
    try:  # limits one tighter, so that a violation on any start's path shows here
        tau, cycle = _lockstep(succ, energy, states, n, budgets - 1, n - 1, violation)
    except InternalInvariantError:  # or a false alarm: the starts' own limits decide
        tau = None
    if tau is None:  # outside the handler, whose traceback holds the loop's arrays
        starts = np.arange(1, len(succ), 2, dtype=np.uint32)
        _lockstep(succ, energy, starts, n, budgets, n, violation)
        del starts
        # a false alarm: no x(1) passes the starts' limits (module docstring)
        tau, cycle = _lockstep(succ, energy, states, n, budgets, n, violation)

    # per loop state: the period (1 iff x(tau) is a fixed point) and plateau energy
    periods = np.add(np.take(succ, cycle) != cycle, 1, dtype=np.int8)
    plateaus = np.take(energy, cycle).astype(np.int64)
    if offset:
        plateaus += offset
    del energy, cycle
    first = np.append(
        np.searchsorted(states, np.arange(len(graphs), dtype=np.uint32) << np.uint32(n)),
        len(states),
    )
    return succ, states, first, tau, periods, plateaus


def _lockstep(
    succ: np.ndarray,
    energy: np.ndarray,
    starts: np.ndarray,
    n: int,
    budgets: np.ndarray,
    run_limit: int,
    violation,
) -> tuple[np.ndarray, np.ndarray]:
    """tau and x(tau) of each start state, run in lockstep over a chunk's
    tables, state x being of graph x >> n. The first start, in order, whose
    energy stays constant for more than run_limit consecutive transient steps
    or whose transient passes budgets[x >> n] raises violation(start, what)."""
    m = len(starts)
    # tau <= budget <= 626 up to MAX_TABLE_VERTICES; the SweepResult keeps this width
    taus = np.empty(m, dtype=np.int16)
    cycle = np.empty(m, dtype=np.uint32)  # x(tau), where period and plateau are read
    least_budget = int(budgets.min())

    # per active start: its position, x(t), x(t+1), x(t+2), E(x(t)), the
    # steps t' < t with x(t') != x(t'+2), and the run of transient steps with
    # constant energy that ends at t
    pos = np.arange(m, dtype=np.uint32)  # m <= 2^24 at MAX_TABLE_VERTICES
    x0 = starts
    x1 = np.take(succ, x0)
    x2 = np.take(succ, x1)
    e0 = np.take(energy, x0)
    tau = np.zeros(m, dtype=np.int16)
    run = np.zeros(m, dtype=np.uint8)  # the loop stops once a run passes run_limit <= n
    t = 0
    while True:
        # x(t) = x(t+2) puts x(t) on the cycle for good: a closed start keeps
        # its tau, and x(t) stays on the cycle
        open_ = x0 != x2
        still_open = np.count_nonzero(open_)
        if not still_open:  # as at t = 0 when no vertex flips
            taus[pos], cycle[pos] = tau, x0
            return taus, cycle
        if 2 * still_open <= len(open_):  # retiring halves the active set at least
            closed = np.flatnonzero(~open_)
            done = pos.take(closed)
            taus[done] = tau.take(closed)
            cycle[done] = x0.take(closed)
            del closed, done
            kept = np.flatnonzero(open_)
            pos = pos.take(kept)
            x0 = x0.take(kept)
            x1 = x1.take(kept)
            x2 = x2.take(kept)
            e0 = e0.take(kept)
            tau = tau.take(kept)
            run = run.take(kept)
            open_ = open_.take(kept)
        tau += open_
        x0, x1 = x1, x2
        x2 = np.take(succ, x1)
        e1 = np.take(energy, x0)
        run += np.uint8(1)
        run *= open_ & (e1 == e0)
        e0 = e1
        if run.max() > run_limit:
            i = int(np.argmax(run > run_limit))
            raise violation(
                starts[pos[i]], "energy constant for more than n consecutive transient steps"
            )
        t += 1
        if t > least_budget:  # a start still open after t steps has tau >= t
            over = open_ & (budgets.take(x0 >> n) < t)
            if np.any(over):
                i = int(np.argmax(over))
                raise violation(
                    starts[pos[i]],
                    f"sweep exceeded the proven {budgets[x0[i] >> n]}-step transient budget",
                )
