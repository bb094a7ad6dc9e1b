from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from kreversible import (
    Configuration,
    Graph,
    InternalInvariantError,
    ParseError,
    TraceStep,
    config_energy,
    delta_energy_breakdown,
    parse_config,
    run_trajectory,
    step,
    enumerate_free_trees,
    max_transient_search,
    state_tables,
    sweep,
)
from kreversible import dynamics, tables
from conftest import (
    assert_selection_matches_sweep, random_connected_graph, random_tree, reference_chunk_tables,
    relabel,
)


def permute_config(x: Configuration, perm: list[int]) -> Configuration:
    bits = 0
    for i in range(x.n):
        if (x.bits >> i) & 1:
            bits |= 1 << perm[i]
    return Configuration(x.n, bits)


def test_parse_config_formats():
    assert parse_config("+-+", 3).states == (1, -1, 1)
    assert parse_config("101", 3).states == (1, -1, 1)
    assert parse_config("+0-1", 4).states == (1, -1, -1, 1)
    assert parse_config(" ++ \n", 2).states == (1, 1)


def test_parse_config_errors():
    with pytest.raises(ParseError):
        parse_config("+-", 3)
    with pytest.raises(ParseError):
        parse_config("+x+", 3)


def per_character_string(x: Configuration) -> str:
    """Configuration.to_string as a loop over the vertices."""
    return "".join("+" if (x.bits >> i) & 1 else "-" for i in range(x.n))


def per_character_parse(text: str, n: int) -> Configuration:
    """parse_config as a loop over the characters."""
    s = text.strip()
    if len(s) != n:
        raise ParseError(f"configuration has {len(s)} characters, expected {n}")
    bits = 0
    for i, c in enumerate(s):
        if c not in "+-10":
            raise ParseError(f"illegal configuration character {c!r} at position {i + 1}")
        bits |= (c in "+1") << i
    return Configuration(n, bits)


def parse_error(text: str, n: int, parse) -> str:
    with pytest.raises(ParseError) as exc:
        parse(text, n)
    return str(exc.value)


def test_config_strings_match_the_per_character_definition():
    digits = str.maketrans("+-", "10")
    for n in range(1, 13):
        for bits in range(1 << n):
            x = Configuration(n, bits)
            text = x.to_string()
            assert text == per_character_string(x)
            assert parse_config(text, n) == x
            assert parse_config(text.translate(digits), n) == x
    # an illegal character at every position, with a second one after it:
    # int() would take "_" between digits, and "٠" is a Unicode digit zero
    rng = random.Random(5)
    for n in range(1, 13):
        for position in range(n):
            for bad in ("x", "2", "_", " ", "\t", "٠", "−", "é"):
                chars = list(rng.choice("+-10") for _ in range(n))
                chars[position] = bad
                if position + 1 < n:
                    chars[rng.randrange(position + 1, n)] = "?"
                text = "".join(chars)
                expected = parse_error(text, n, per_character_parse)
                assert parse_error(text, n, parse_config) == expected
                if bad.strip():
                    assert expected.endswith(f"{bad!r} at position {position + 1}")


def test_configuration_round_trips():
    x = Configuration.from_states([1, -1, -1, 1])
    assert x.bits == 0b1001
    assert parse_config(x.to_string(), 4) == x
    assert str(x) == "+--+"
    assert x.negate().negate() == x
    assert x.negate().states == (-1, 1, 1, -1)
    with pytest.raises(ValueError):
        Configuration.from_states([1, 0, -1])
    with pytest.raises(ValueError):
        Configuration(3, 8)
    with pytest.raises(ValueError):
        Configuration(0, 0)


def op_counts(g: Graph, x: Configuration) -> tuple[int, ...]:
    """op of every vertex, as the energy bookkeeping reports it; op does not
    depend on k."""
    return delta_energy_breakdown(g, x, 1).op_now


def test_op_counts_examples(p3, top_tree_n8):
    assert op_counts(p3, parse_config("+-+", 3)) == (1, 2, 1)
    assert op_counts(p3, parse_config("+++", 3)) == (0, 0, 0)
    # alternating start on the n=8 top tree: vertex 6 disagrees with 5 and 7
    # but agrees with its third neighbor 8
    ops = op_counts(top_tree_n8, parse_config("+-+-+-+-", 8))
    assert ops[5] == 2
    assert ops == (1, 2, 2, 2, 2, 2, 1, 0)


def test_op_counts_sum_is_twice_discordant_edges():
    rng = random.Random(9)
    for _ in range(50):
        g = random_connected_graph(rng, rng.randint(2, 12))
        x = Configuration(g.n, rng.randrange(1 << g.n))
        discordant = sum(1 for u, v in g.edges if x.states[u] != x.states[v])
        assert sum(op_counts(g, x)) == 2 * discordant


def test_step_examples(p3):
    x = parse_config("+-+", 3)
    assert step(p3, x, 1) == parse_config("-+-", 3)  # everyone flips
    assert step(p3, x, 2) == parse_config("+++", 3)  # only the middle flips
    assert step(p3, parse_config("+++", 3), 2) == parse_config("+++", 3)
    with pytest.raises(ValueError):
        step(p3, x, 0)
    with pytest.raises(ValueError):
        step(p3, parse_config("++", 2), 1)


def test_low_degree_vertices_frozen():
    # a vertex of degree < k can never reach k discordant neighbors
    rng = random.Random(31)
    for _ in range(30):
        g = random_tree(rng, rng.randint(3, 12))
        x = Configuration(g.n, rng.randrange(1 << g.n))
        y = step(g, x, 2)
        for v in range(g.n):
            if g.degrees[v] < 2:
                assert x.states[v] == y.states[v]


def test_negation_equivariance():
    rng = random.Random(41)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(2, 12))
        k = rng.randint(1, g.max_degree())
        x = Configuration(g.n, rng.randrange(1 << g.n))
        assert step(g, x.negate(), k) == step(g, x, k).negate()
        a = run_trajectory(g, x, k)
        b = run_trajectory(g, x.negate(), k)
        assert (a.tau, a.period, a.plateau_energy) == (b.tau, b.period, b.plateau_energy)


def test_isomorphism_equivariance():
    rng = random.Random(43)
    for _ in range(60):
        g = random_tree(rng, rng.randint(2, 10))
        k = rng.randint(1, g.max_degree())
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        x = Configuration(g.n, rng.randrange(1 << g.n))
        assert step(h, permute_config(x, perm), k) == permute_config(step(g, x, k), perm)


def test_trajectory_p3_examples(p3):
    two_cycle = run_trajectory(p3, parse_config("+-+", 3), 1)
    assert (two_cycle.tau, two_cycle.period, two_cycle.plateau_energy) == (0, 2, 1)
    fixed = run_trajectory(p3, parse_config("+++", 3), 1)
    assert (fixed.tau, fixed.period, fixed.plateau_energy) == (0, 1, 3)
    absorbed = run_trajectory(p3, parse_config("+-+", 3), 2)
    assert (absorbed.tau, absorbed.period, absorbed.plateau_energy) == (1, 1, 6)


def test_trajectory_top_tree(top_tree_n8):
    r = run_trajectory(top_tree_n8, parse_config("+-+-+-+-", 8), 2)
    assert (r.tau, r.period) == (5, 1)
    assert r.trace[-1].config == parse_config("+++++++-", 8)


def test_trace_contract():
    rng = random.Random(47)
    for _ in range(80):
        g = random_connected_graph(rng, rng.randint(2, 10))
        k = rng.randint(1, g.max_degree())
        r = run_trajectory(g, Configuration(g.n, rng.randrange(1 << g.n)), k)
        assert len(r.trace) == r.tau + r.period + 1
        assert r.trace[-1].config == r.trace[r.tau].config
        seen = {s.config.bits for s in r.trace[:-1]}
        assert len(seen) == r.tau + r.period  # no earlier repeat
        assert r.plateau_energy == r.trace[r.tau].energy
        energies = [s.energy for s in r.trace]
        assert all(a <= b for a, b in zip(energies, energies[1:]))
        assert [s.t for s in r.trace] == list(range(len(r.trace)))


def test_trajectory_single_vertex():
    g = Graph.from_edges(1, [])
    r = run_trajectory(g, Configuration(1, 1), 1)
    assert (r.tau, r.period, r.plateau_energy) == (0, 1, 1)


def test_determinism(p3):
    a = run_trajectory(p3, parse_config("+-+", 3), 2)
    b = run_trajectory(p3, parse_config("+-+", 3), 2)
    assert a == b
    # the trace is built from the packed states on each read
    assert a.trace == b.trace
    assert all(type(s) is TraceStep and type(s.config) is Configuration for s in a.trace)
    assert [(s.config.bits, s.energy) for s in a.trace] == list(zip(a.states, a.energies))


def reference_ops(g: Graph, states: list[int]) -> list[int]:
    """op of each vertex of a +/-1 state list: neighbours in the other state."""
    return [sum(states[u] != states[v] for u in g.adjacency[v]) for v in range(g.n)]


def reference_step(g: Graph, states: list[int], k: int) -> list[int]:
    ops = reference_ops(g, states)
    return [-s if op >= k else s for s, op in zip(states, ops)]


def reference_energy(g: Graph, states: list[int], k: int) -> int:
    return sum(abs(op - k) for op in reference_ops(g, states))


def reference_bits(states: list[int]) -> int:
    return sum(1 << v for v, s in enumerate(states) if s == 1)


@pytest.fixture(scope="module")
def reference_walks() -> list:
    """(g, x, op of every vertex, [(k, tau, [(t, bits, energy) of the walk])])
    for every start of small stars, complete graphs and random graphs, at
    every k in 1..max_degree+1 and at 2^40, from a reference that works on
    +/-1 lists built from Graph.adjacency, not on bit masks."""
    rng = random.Random(67)
    graphs = [Graph.from_edges(1, [])]
    graphs += [Graph.from_edges(n, [(0, v) for v in range(1, n)]) for n in range(2, 9)]
    graphs += [Graph.from_edges(n, list(itertools.combinations(range(n), 2))) for n in range(2, 8)]
    graphs += [random_connected_graph(rng, n) for n in (2, 3, 4, 5, 6, 7, 8, 8)]
    cases = []
    for g in graphs:
        for start in itertools.product((-1, 1), repeat=g.n):
            x = Configuration(g.n, reference_bits(list(start)))
            assert x.states == start
            walks = []
            for k in [*range(1, g.max_degree() + 2), 1 << 40]:
                walk = [list(start)]
                while walk[-1] not in walk[:-1]:
                    walk.append(reference_step(g, walk[-1], k))
                steps = [
                    (t, reference_bits(s), reference_energy(g, s, k)) for t, s in enumerate(walk)
                ]
                walks.append((k, walk.index(walk[-1]), steps))
            cases.append((g, x, reference_ops(g, list(start)), walks))
    return cases


def check_scalar_engine(reference_walks: list) -> None:
    """op_counts, step, config_energy and run_trajectory against the walks."""
    for g, x, ops, walks in reference_walks:
        assert list(op_counts(g, x)) == ops  # the same at every k
        for k, tau, expected in walks:
            assert step(g, x, k).bits == expected[1][1]
            assert config_energy(g, x, k) == expected[0][2]
            r = run_trajectory(g, x, k)
            assert (r.tau, r.period) == (tau, len(expected) - 1 - tau)
            assert r.plateau_energy == expected[tau][2]
            assert [(s.t, s.config.bits, s.energy) for s in r.trace] == expected


def test_scalar_engine_matches_reference(reference_walks):
    check_scalar_engine(reference_walks)


def test_arc_kernel_matches_reference(monkeypatch, reference_walks):
    """The same graphs and starts with every step on the arc kernel."""
    monkeypatch.setattr(dynamics, "VECTOR_MIN_VERTICES", 1)
    check_scalar_engine(reference_walks)


def test_trajectory_invariant_errors_name_edges_k_and_start(monkeypatch):
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    cycle = {0: 1, 1: 2, 2: 0}
    maps = {
        "detected period 3, expected 1 or 2": lambda bits: cycle[bits],
        "no repeat within 15 steps; transient bound violated": lambda bits: bits + 1,
    }
    for what, successor in maps.items():
        monkeypatch.setattr(
            dynamics, "_flips_and_energy", lambda g, bits, k, f=successor: (bits ^ f(bits), 0)
        )
        with pytest.raises(InternalInvariantError) as caught:
            run_trajectory(p4, parse_config("----", 4), 1)
        assert str(caught.value) == f"edges=[[1, 2], [2, 3], [3, 4]] k=1 start ----: {what}"


def test_trajectory_invariant_errors_above_the_crossover(monkeypatch):
    """The same impossible trajectories on a path the arc kernel steps: only
    op is replaced, so the kernel's flip mask and the loop's checks run."""
    n = dynamics.VECTOR_MIN_VERTICES
    path = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    cycle = {0: 1, 1: 2, 2: 0}
    maps = {
        "detected period 3, expected 1 or 2": lambda bits: cycle[bits],
        f"no repeat within {3 * n + 3} steps; transient bound violated": lambda bits: bits + 1,
    }
    for what, successor in maps.items():
        # op = k = 1 exactly on the vertices that differ between x and its
        # successor; _ops is handed the state unpacked, one value per vertex
        def ops(g, state, f=successor):
            bits = dynamics._pack(state)
            return dynamics._unpack(bits ^ f(bits), g.n).astype(np.int64)

        monkeypatch.setattr(dynamics, "_ops", ops)
        with pytest.raises(InternalInvariantError) as caught:
            run_trajectory(path, Configuration(n, 0), 1)
        edges = [[v, v + 1] for v in range(1, n)]
        assert str(caught.value) == f"edges={edges} k=1 start {'-' * n}: {what}"


def crossing_path(n: int) -> Graph:
    """A path that alternates high and low vertices, so that every edge joins
    a bit below the engine's split L = n // 2 to a bit at or above it."""
    low = n // 2
    order = [v for pair in zip(range(low, n), range(low)) for v in pair]
    order += range(2 * low, n)  # the one high vertex left over when n is odd
    path = Graph.from_edges(n, list(zip(order, order[1:])))
    assert all((u < low) != (v < low) for u, v in path.edges)
    return path


def test_state_tables_match_scalar_path():
    rng = random.Random(53)
    graphs = [Graph.from_edges(1, [])]
    graphs += [Graph.from_edges(n, [(0, v) for v in range(1, n)]) for n in (2, 5, 8, 11)]
    graphs += [Graph.from_edges(4, [(3, v) for v in range(3)])]  # star centred on a high bit
    graphs += [Graph.from_edges(n, list(itertools.combinations(range(n), 2))) for n in range(2, 10)]
    graphs += [crossing_path(11), crossing_path(12)]
    graphs += [random_connected_graph(rng, n) for n in (2, 3, 5, 7, 9, 10, 11, 12, 12)]
    for g in graphs:
        # either side of k = n, where the engine stops summing at k and adds
        # n(k - n) instead; then far above every degree: the largest k with
        # n * k in int16, the next, where a sum at k would wrap int16, and
        # one whose energies need 64 bits
        top16 = np.iinfo(np.int16).max // g.n
        near_n = range(max(1, g.n - 1), g.n + 2)
        for k in [*range(1, g.max_degree() + 2), *near_n, top16, top16 + 1, 1 << 40]:
            succ, energy = state_tables(g, k)
            assert succ.dtype == np.uint32 and energy.dtype == np.int64
            assert succ.shape == energy.shape == (1 << g.n,)
            configs = [Configuration(g.n, bits) for bits in range(1 << g.n)]
            assert succ.tolist() == [step(g, x, k).bits for x in configs]
            assert energy.tolist() == [config_energy(g, x, k) for x in configs]




def test_sweep_across_the_int16_energy_boundary():
    # k = n - 1, n and n + 1, where the tables go from being summed at k to
    # being summed at n and the sweep starts adding n(k - n) to the plateau
    # energies; then the largest k with n * k in int16 and the next, whose
    # plateau energies pass the int16 range: results match the scalar engine
    # at every k, with int16 taus, int8 periods and int64 plateau energies
    rng = random.Random(73)
    graphs = [crossing_path(12), random_connected_graph(rng, 12), random_tree(rng, 12)]
    top16 = np.iinfo(np.int16).max // 12
    for k in (11, 12, 13, top16, top16 + 1):
        for g, chunked in zip(graphs, tables.sweep_chunk(graphs, k)):
            res = sweep(g, k)
            assert_selection_matches_sweep(chunked, res, k)
            for field, dtype in zip(("taus", "periods", "plateau_energies"),
                                    (np.int16, np.int8, np.int64)):
                assert getattr(res, field).dtype == dtype, field
            for i, bits in enumerate(res.start_bits.tolist()):
                r = run_trajectory(g, Configuration(g.n, bits), k)
                assert (r.tau, r.period, r.plateau_energy) == (
                    res.taus[i], res.periods[i], res.plateau_energies[i])
    # plateau + n - 1 passes the int16 range: the bound check must not wrap
    tree = graphs[2]
    assert max_transient_search(tree, top16).tau_max == 0
    assert int(sweep(tree, top16).plateau_energies.max()) + tree.n - 1 > np.iinfo(np.int16).max


def test_sweep_full_space_doubles_half_space():
    rng = random.Random(61)
    for _ in range(10):
        g = random_tree(rng, rng.randint(2, 9))
        k = rng.randint(1, g.max_degree())
        half = sweep(g, k)
        full = [run_trajectory(g, Configuration(g.n, bits), k) for bits in range(1 << g.n)]
        assert len(full) == 2 * len(half.taus)
        assert sorted(r.tau for r in full) == sorted(half.taus.tolist() * 2)
        assert sorted(r.period for r in full) == sorted(half.periods.tolist() * 2)
        assert max(r.tau for r in full) == half.taus.max()


def test_sweep_invariant_errors_name_edges_k_and_start(monkeypatch):
    import kreversible.tables as tables

    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    succ, energy = state_tables(p4, 1)
    alternating = parse_config("+-+-", 4).bits
    assert succ[alternating] != alternating
    bumped = energy.copy()
    bumped[alternating] += 100  # the one transition out of +-+- now loses energy
    # 0 -> 1 -> ... -> 15, fixed at 15: one long transient for start +---
    chain = np.minimum(np.arange(16, dtype=np.uint32) + 1, 15)
    corrupted = {
        "energy decreased across a transition, 102 -> 2": ((succ, bumped), "+-+-"),
        "energy constant for more than n consecutive transient steps": (
            (chain, np.zeros(16, dtype=np.int64)), "+---"),
        "sweep exceeded the proven 13-step transient budget": (
            (chain, np.arange(16, dtype=np.int64)), "+---"),
    }
    for what, (tables_, start) in corrupted.items():
        monkeypatch.setattr(tables, "chunk_tables", lambda graphs, k, t=tables_: t)
        with pytest.raises(InternalInvariantError) as caught:
            sweep(p4, 1)
        assert str(caught.value) == f"edges=[[1, 2], [2, 3], [3, 4]] k=1 start {start}: {what}"
    # at k = 6 > n the tables hold E_k less n(k - n) = 8, and the message E_k
    monkeypatch.setattr(tables, "chunk_tables", lambda graphs, k: (succ, bumped))
    with pytest.raises(InternalInvariantError) as caught:
        sweep(p4, 6)
    assert str(caught.value) == (
        "edges=[[1, 2], [2, 3], [3, 4]] k=6 start +-+-: "
        "energy decreased across a transition, 110 -> 10"
    )


def test_monotonicity_check_names_the_lowest_state_across_blocks(monkeypatch):
    # the 17-vertex path has 2^17 states, two of the check's blocks of 2^16:
    # one decrease past the first block, then one in each block
    g = Graph.from_edges(17, [(i, i + 1) for i in range(16)])
    succ, energy = tables.chunk_tables([g], 1)
    moving = np.flatnonzero(succ != np.arange(len(succ)))
    low, high = int(moving[moving < 1 << 16][-1]), int(moving[moving >= 1 << 16][1000])
    for decreasing in ([high], [low, high]):
        bumped = energy.copy()
        bumped[decreasing] += 100  # the one transition out of each now loses energy
        assert set(succ[decreasing].tolist()).isdisjoint(decreasing)
        monkeypatch.setattr(tables, "chunk_tables", lambda graphs, k, e=bumped: (succ, e))
        with pytest.raises(InternalInvariantError) as caught:
            sweep(g, 1)
        x = decreasing[0]
        assert str(caught.value) == (
            f"edges={[[i, i + 1] for i in range(1, 17)]} k=1 start {Configuration(17, x)}: "
            f"energy decreased across a transition, {energy[x] + 100} -> {energy[succ[x]]}"
        )


def test_sweep_chunk_matches_sweep_per_graph():
    # every free tree with n <= 10 at every k in 1..max degree + 1, swept in
    # chunks of 1, 2, 3, ... trees so chunk boundaries fall everywhere
    for n in range(1, 11):
        trees = list(enumerate_free_trees(n))
        for k in range(1, max(g.max_degree() for g in trees) + 2):
            chosen = [g for g in trees if k <= g.max_degree() + 1]
            sizes = itertools.cycle(range(1, 8))
            i = 0
            while i < len(chosen):
                chunk = chosen[i : i + next(sizes)]
                i += len(chunk)
                results = tables.sweep_chunk(chunk, k)
                assert len(results) == len(chunk)
                for g, res in zip(chunk, results):
                    assert_selection_matches_sweep(res, sweep(g, k), k)
    # graphs with different maximum degrees, so with different step budgets
    rng = random.Random(67)
    graphs = [random_connected_graph(rng, 9) for _ in range(6)] + [random_tree(rng, 9)]
    assert len({g.max_degree() for g in graphs}) > 2
    for k in (1, 2, 4):
        for g, res in zip(graphs, tables.sweep_chunk(graphs, k)):
            assert_selection_matches_sweep(res, sweep(g, k), k)
    with pytest.raises(ValueError):
        tables.sweep_chunk([graphs[0], random_tree(rng, 8)], 1)


def test_chunk_size_from_byte_cap():
    assert [tables.chunk_size(n) for n in (9, 13, 14, 15, 22)] == [85, 5, 2, 1, 1]
    for n in range(1, tables.MAX_TABLE_VERTICES + 1):
        size = tables.chunk_size(n)
        assert size == 1 or size * 12 << n <= tables.CHUNK_TABLE_BYTES < (size + 1) * 12 << n


def test_sweep_chunk_errors_name_the_offending_graph(monkeypatch):
    # the single-graph corruptions above, on the third graph of five
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    chunk = [
        Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
        Graph.from_edges(4, [(0, 2), (1, 2), (1, 3)]),
        p4,
        Graph.from_edges(4, [(0, 3), (1, 3), (2, 3)]),
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    ]
    succ, energy = state_tables(p4, 1)
    bumped = energy.copy()
    bumped[parse_config("+-+-", 4).bits] += 100
    chain = np.minimum(np.arange(16, dtype=np.uint32) + 1, 15)
    corrupted = {
        "energy decreased across a transition, 102 -> 2": ((succ, bumped), "+-+-"),
        "energy constant for more than n consecutive transient steps": (
            (chain, np.zeros(16, dtype=np.int64)), "+---"),
        # the star's budget is 17, P4's own is 13
        "sweep exceeded the proven 13-step transient budget": (
            (chain, np.arange(16, dtype=np.int64)), "+---"),
    }
    real = tables.chunk_tables

    def corrupt(i, succ_i, energy_i):
        """The chunk's real tables with graph i's slice replaced."""
        def build(graphs, k):
            succ, energy = real(graphs, k)
            part = slice(i << 4, (i + 1) << 4)
            succ[part], energy[part] = succ_i + np.uint32(i << 4), energy_i
            return succ, energy
        return build

    for what, (tables_, start) in corrupted.items():
        monkeypatch.setattr(tables, "chunk_tables", corrupt(chunk.index(p4), *tables_))
        with pytest.raises(InternalInvariantError) as caught:
            tables.sweep_chunk(chunk, 1)
        assert str(caught.value) == f"edges=[[1, 2], [2, 3], [3, 4]] k=1 start {start}: {what}"
    # the same chain within the star's budget of 17 steps is no violation
    monkeypatch.setattr(tables, "chunk_tables", corrupt(0, chain, np.arange(16, dtype=np.int64)))
    star = tables.sweep_chunk(chunk, 1)[0]
    assert (star.tau_max, star.attaining.tolist()) == (14, [1])
    assert star.attaining_periods.tolist() == [1]
    alone = sweep(chunk[0], 1)
    assert alone.taus[0] == 14
    assert_selection_matches_sweep(star, alone, 1)


def loop_runs(monkeypatch) -> list[tuple[int, int]]:
    """Record (start states, run limit) of each lockstep loop the sweep runs:
    the distinct x(1) at n - 1, and after an alarm the starts at n, then the
    distinct x(1) at n."""
    runs = []
    real = tables._lockstep

    def recording(succ, energy, states, n, budgets, run_limit, violation):
        runs.append((len(states), run_limit))
        return real(succ, energy, states, n, budgets, run_limit, violation)

    monkeypatch.setattr(tables, "_lockstep", recording)
    return runs


def test_sweep_matches_scalar_trajectories(monkeypatch):
    # every start of: every free tree with n <= 9 at every k in 1..max
    # degree + 1, each k's trees in one chunk; seeded random trees with
    # n <= 8, each alone; and seeded random connected graphs with n <= 10
    runs = loop_runs(monkeypatch)
    rng = random.Random(59)
    cases = []
    for _ in range(25):
        g = random_tree(rng, rng.randint(2, 8))
        cases.append(([g], rng.randint(1, g.max_degree())))
    for n in range(1, 10):
        trees = list(enumerate_free_trees(n))
        for k in range(1, max(g.max_degree() for g in trees) + 2):
            cases.append(([g for g in trees if k <= g.max_degree() + 1], k))
    for n in range(2, 11):
        graphs = [random_connected_graph(rng, n) for _ in range(3)]
        cases += [(graphs, k) for k in (1, 2, max(g.max_degree() for g in graphs) + 1)]
    every_x1_distinct = set()
    for graphs, k in cases:
        runs.clear()
        selections = tables.sweep_chunk(graphs, k)
        n = graphs[0].n
        [(states, limit)] = runs
        assert limit == n - 1, (k, [g.edges for g in graphs])
        every_x1_distinct.add(states == len(graphs) << (n - 1))
        for g, sel in zip(graphs, selections, strict=True):
            res = sweep(g, k)
            assert_selection_matches_sweep(sel, res, k)
            for bits, *swept in zip(
                res.start_bits.tolist(), res.taus.tolist(), res.periods.tolist(),
                res.plateau_energies.tolist(),
            ):
                r = run_trajectory(g, Configuration(g.n, bits), k)
                assert [r.tau, r.period, r.plateau_energy] == swept, (g.edges, k, bits)
    # the loop ran once on the distinct x(1) of each chunk: fewer than the
    # starts, and one a start, as when k > max degree leaves every start fixed
    assert every_x1_distinct == {True, False}


P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def funnel_tables(start_energy: int = 0):
    """P4 tables in which every start but ++++ steps to -+-- and climbs
    -+-- -> --+- -> -++- -> ---+ -> -+-+, fixed there, all at energy 1: a
    constant-energy run of exactly n = 4 steps from x(1). ++++ is fixed.
    Starts are at energy 0, and start +-+- at start_energy."""
    succ = np.arange(16, dtype=np.uint32)
    succ[1:15:2] = 2
    succ[[2, 4, 6, 8]] = [4, 6, 8, 10]
    energy = np.zeros(16, dtype=np.int16)
    energy[0::2] = 1
    energy[5] = start_energy  # start +-+-
    return succ, energy


def test_sweep_constant_run_of_n_from_x1_is_no_violation(monkeypatch):
    runs = loop_runs(monkeypatch)
    monkeypatch.setattr(tables, "chunk_tables", lambda graphs, k: funnel_tables())
    res = sweep(P4, 1)
    assert res.taus.tolist() == [5] * 7 + [0]
    assert res.periods.tolist() == [1] * 8
    assert res.plateau_energies.tolist() == [1] * 7 + [0]
    # the run of n steps from x(1) passes the distinct loop's limit of n - 1:
    # the starts are run with their own limit, which it does not pass, and
    # the distinct x(1) again with the starts' limits
    assert runs == [(2, 3), (8, 4), (2, 4)]


def test_sweep_constant_run_counting_the_starts_first_step_names_it(monkeypatch):
    runs = loop_runs(monkeypatch)
    monkeypatch.setattr(tables, "chunk_tables", lambda graphs, k: funnel_tables(start_energy=1))
    with pytest.raises(InternalInvariantError) as caught:
        sweep(P4, 1)
    assert str(caught.value) == (
        "edges=[[1, 2], [2, 3], [3, 4]] k=1 start +-+-: "
        "energy constant for more than n consecutive transient steps"
    )
    assert runs == [(2, 3), (8, 4)]


def test_sweep_false_alarm_in_a_chunk_gives_each_graph_its_own_result(monkeypatch):
    # the funnel tables beside a real P4's, first and last: the funnel's run
    # sets off the distinct loop's alarm for the whole chunk, and each graph
    # still gets what it gets swept alone, the real P4 the scalar engine's
    real = sweep(P4, 1)
    for bits, *swept in zip(real.start_bits.tolist(), real.taus.tolist(),
                            real.periods.tolist(), real.plateau_energies.tolist()):
        r = run_trajectory(P4, Configuration(4, bits), 1)
        assert [r.tau, r.period, r.plateau_energy] == swept, bits
    real_tables = tables.chunk_tables([P4], 1)
    runs = loop_runs(monkeypatch)
    monkeypatch.setattr(tables, "chunk_tables", lambda graphs, k: funnel_tables())
    funnel = sweep(P4, 1)
    for (succ_0, energy_0), (succ_1, energy_1), alone in (
        (funnel_tables(), real_tables, [funnel, real]),
        (real_tables, funnel_tables(), [real, funnel]),
    ):
        succ = np.concatenate([succ_0, succ_1 + np.uint32(16)])
        energy = np.concatenate([energy_0, energy_1])
        monkeypatch.setattr(tables, "chunk_tables", lambda graphs, k: (succ, energy))
        runs.clear()
        results = tables.sweep_chunk([P4, P4], 1)
        for res, res_alone in zip(results, alone, strict=True):
            assert_selection_matches_sweep(res, res_alone, 1)
        distinct = 2 + len(np.unique(real_tables[0][1::2]))
        assert runs == [(distinct, 3), (16, 4), (distinct, 4)]


def test_sweep_transient_of_exactly_the_budget_and_one_more(monkeypatch):
    # three P4s, whose budget is 13: the first climbs 0 -> 1 -> ... -> top,
    # fixed there, with energy rising by 1 a step; the other two send every
    # state but the fixed ++++ to their state 0
    runs = loop_runs(monkeypatch)
    funnel = (np.where(np.arange(16) == 15, 15, 0).astype(np.uint32), np.zeros(16, dtype=np.int16))

    def climb(top):
        return (np.minimum(np.arange(16, dtype=np.uint32) + 1, top),
                np.minimum(np.arange(16), top).astype(np.int16))

    def chunk_of(*parts):
        """chunk_tables for P4s with these tables, in order."""
        succ = np.concatenate([s + np.uint32(i << 4) for i, (s, _) in enumerate(parts)])
        energy = np.concatenate([e for _, e in parts])
        return lambda graphs, k: (succ, energy)

    monkeypatch.setattr(tables, "chunk_tables", chunk_of(climb(14), funnel, funnel))
    first, *rest = tables.sweep_chunk([P4] * 3, 1)  # start 1 reaches 14 at tau = 13
    assert runs == [(11, 3)]
    monkeypatch.setattr(tables, "chunk_tables", chunk_of(climb(14)))
    alone = sweep(P4, 1)
    assert alone.taus.tolist() == [13, 11, 9, 7, 5, 3, 1, 1]
    assert alone.periods.tolist() == [1] * 8 and alone.plateau_energies.tolist() == [14] * 8
    assert_selection_matches_sweep(first, alone, 1)
    monkeypatch.setattr(tables, "chunk_tables", chunk_of(funnel))
    alone = sweep(P4, 1)
    assert alone.taus.tolist() == [1] * 7 + [0] and alone.plateau_energies.tolist() == [0] * 8
    for res in rest:
        assert_selection_matches_sweep(res, alone, 1)
    runs.clear()
    monkeypatch.setattr(tables, "chunk_tables", chunk_of(climb(15), funnel, funnel))  # tau = 14
    with pytest.raises(InternalInvariantError) as caught:
        tables.sweep_chunk([P4] * 3, 1)
    assert str(caught.value) == (
        "edges=[[1, 2], [2, 3], [3, 4]] k=1 start +---: "
        "sweep exceeded the proven 13-step transient budget"
    )
    assert runs == [(12, 3), (24, 4)]


def test_sweep_results_are_signed(monkeypatch):
    # the 4-vertex star at k = 1 has starts of tau 0 and of period 1, and
    # fewer x(1) than starts; at k = 4 every start is fixed, and the loop
    # runs on all of them. Either way, results less a constant must not wrap.
    runs = loop_runs(monkeypatch)
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    for k in (1, 4):
        res = sweep(star, k)
        assert (res.taus - 1).min() == -1
        assert (res.periods - 2).min() == -1
    assert runs == [(2, 3), (8, 3)]


def assert_chunk_tables_split(graphs, k):
    """Graph i's slice of the chunk's tables, less its i << n offset, is its
    own tables bit for bit, and its int16 energies plus n(k - n) for k > n
    are its own int64 ones."""
    n = graphs[0].n
    succ, energy = tables.chunk_tables(graphs, k)
    assert succ.dtype == np.uint32 and energy.dtype == np.int16
    assert succ.shape == energy.shape == (len(graphs) << n,)
    for i, g in enumerate(graphs):
        part = slice(i << n, (i + 1) << n)
        alone_succ, alone_energy = state_tables(g, k)
        assert np.array_equal(succ[part] - np.uint32(i << n), alone_succ)
        assert np.array_equal(energy[part].astype(np.int64) + n * max(0, k - n), alone_energy)


def test_chunk_tables_match_each_graph_alone():
    # every free tree with n <= 10 at every k in 1..max degree + 1, in chunks
    # of 1, 2, 3, ... trees so chunk boundaries fall everywhere
    for n in range(1, 11):
        trees = list(enumerate_free_trees(n))
        sizes = itertools.cycle(range(1, 8))
        for k in range(1, max(g.max_degree() for g in trees) + 2):
            i = 0
            while i < len(trees):
                chunk = trees[i : i + next(sizes)]
                i += len(chunk)
                assert_chunk_tables_split(chunk, k)
    # graphs with different maximum degrees, whose closed neighbourhoods
    # together hold every high bit at some slot
    rng = random.Random(71)
    for n in range(9, 13):
        graphs = [random_connected_graph(rng, n) for _ in range(5)] + [random_tree(rng, n)]
        assert len({g.max_degree() for g in graphs}) > 1
        high = n - n // 2
        unions = np.bitwise_or.reduce([g.neighbor_masks for g in graphs]) | 1 << np.arange(n)
        assert np.any(unions >> (n - high) == (1 << high) - 1)
        for k in (1, 2, 3, max(g.max_degree() for g in graphs) + 1):
            assert_chunk_tables_split(graphs, k)
    # far above every degree: the largest k with n * k in int16, the next,
    # and one whose energies need 64 bits
    graphs = [crossing_path(12)] + [random_connected_graph(rng, 12) for _ in range(3)]
    top16 = np.iinfo(np.int16).max // 12
    for k in (top16, top16 + 1, 1 << 40):
        assert_chunk_tables_split(graphs, k)


def assert_tables_match_reference(graphs, k):
    """chunk_tables equals the per-slot build bit for bit, in value and dtype."""
    for got, want in zip(tables.chunk_tables(graphs, k), reference_chunk_tables(graphs, k)):
        assert got.dtype == want.dtype and np.array_equal(got, want), (graphs[0].n, k)


def slot_groups(graphs):
    """The groups of vertex slots chunk_tables forms for these graphs."""
    n = graphs[0].n
    closed = [
        int(np.bitwise_or.reduce([g.neighbor_masks[v] for g in graphs])) | 1 << v
        for v in range(n)
    ]
    cap = n - n // 2 - tables.GROUP_SPARE_BITS
    return [slots for slots, _ in tables._slot_groups(closed, n // 2, cap)]


def test_chunk_tables_match_per_slot_reference():
    # every free tree with n <= 11, alone and in chunks of several, at every
    # k from 1 to one above the largest degree and at k = n + 3
    for n in range(1, 12):
        trees = list(enumerate_free_trees(n))
        for size in (1, 6):
            for i in range(0, len(trees), size):
                chunk = trees[i : i + size]
                top = max(g.max_degree() for g in chunk)
                for k in [*range(1, top + 2), n + 3]:
                    assert_tables_match_reference(chunk, k)
    # dense graphs: a complete graph's slots each read every bit, so each
    # group has one slot and writes straight into the tables
    rng = random.Random(89)
    for n in range(2, 13):
        complete = Graph.from_edges(n, list(itertools.combinations(range(n), 2)))
        assert all(len(slots) == 1 for slots in slot_groups([complete]))
        graphs = [random_connected_graph(rng, n) for _ in range(3)]
        for k in [*range(1, max(g.max_degree() for g in graphs) + 2), n + 3]:
            assert_tables_match_reference([complete], k)
            assert_tables_match_reference(graphs[:1], k)
            assert_tables_match_reference(graphs, k)
    # on a path, the low slots read no high bit beyond the split, so they
    # share a group with the first slots across it; at k = 2 the end vertex
    # 0 never flips, and at k = 3 no slot of the group does
    path = Graph.from_edges(14, [(v, v + 1) for v in range(13)])
    group = slot_groups([path])[0]
    assert len(group) > 1 and 0 in group
    for k in (1, 2, 3):
        assert_tables_match_reference([path], k)
        assert_tables_match_reference([path, crossing_path(14)], k)


def test_state_tables_match_scalar_engine_on_sampled_large_graphs():
    # one graph's tables at n = 16..20, checked at seeded states
    rng = random.Random(97)
    graphs = [
        random_tree(rng, 20),
        Graph.from_edges(16, [(0, v) for v in range(1, 16)]),
        crossing_path(18),
    ]
    for g in graphs:
        for k in (1, 2, 3):
            succ, energy = state_tables(g, k)
            for bits in rng.sample(range(1 << g.n), 2000):
                x = Configuration(g.n, bits)
                assert int(succ[bits]) == step(g, x, k).bits, (g.n, k, bits)
                assert int(energy[bits]) == config_energy(g, x, k), (g.n, k, bits)


def test_sweep_rejects_oversized_graphs():
    g = Graph.from_edges(26, [(i, i + 1) for i in range(25)])
    with pytest.raises(ValueError):
        state_tables(g, 1)


def test_internal_invariant_error_is_runtime_error():
    assert issubclass(InternalInvariantError, RuntimeError)
    # np link sanity: bitwise_count must exist for the table engine
    assert hasattr(np, "bitwise_count")
