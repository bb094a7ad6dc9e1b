from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from kreversible import (
    Configuration,
    EnergyBreakdown,
    InternalInvariantError,
    bound_report,
    config_energy,
    delta_energy_breakdown,
    enumerate_free_trees,
    parse_config,
    run_trajectory,
    step,
)
from kreversible import dynamics
from kreversible.graphs import Graph, parse_edge_list

from conftest import max_energy, random_connected_graph, random_sparse_graph, random_tree


def split(g, x, k):
    b = delta_energy_breakdown(g, x, k)
    return b.s1, b.s2


def edge_classes(g, x, k):
    b = delta_energy_breakdown(g, x, k)
    return b.a_size, b.b_size, b.c_size


def test_partition_p3(p3):
    x = parse_config("+-+", 3)
    assert split(p3, x, 1) == (frozenset({0, 1, 2}), frozenset())
    assert split(p3, x, 2) == (frozenset({1}), frozenset({0, 2}))
    assert split(p3, parse_config("+++", 3), 1) == (frozenset(), frozenset({0, 1, 2}))


def test_energy_examples(p3):
    x = parse_config("+-+", 3)
    assert delta_energy_breakdown(p3, x, 1).energy == 1  # |1-1| + |2-1| + |1-1|
    assert delta_energy_breakdown(p3, x, 2).energy == 2  # middle 0, endpoints 1 each
    assert delta_energy_breakdown(p3, parse_config("+++", 3), 1).energy == 3
    assert delta_energy_breakdown(p3, parse_config("+++", 3), 2).energy == 6


def test_energy_matches_bit_route():
    rng = random.Random(71)
    for _ in range(80):
        g = random_connected_graph(rng, rng.randint(2, 12))
        k = rng.randint(1, g.max_degree())
        x = Configuration(g.n, rng.randrange(1 << g.n))
        assert delta_energy_breakdown(g, x, k).energy == config_energy(g, x, k)


def test_energy_aux_equals_energy():
    rng = random.Random(73)
    for _ in range(120):
        g = random_connected_graph(rng, rng.randint(2, 12))
        k = rng.randint(1, g.max_degree())
        x = Configuration(g.n, rng.randrange(1 << g.n))
        assert delta_energy_breakdown(g, x, k).energy_aux == config_energy(g, x, k)


def test_edge_partition_examples(p3):
    x = parse_config("+-+", 3)
    # k=1: everyone flips, so every discordant edge has both endpoints active
    assert edge_classes(p3, x, 1) == (2, 0, 0)
    # k=2: only the middle flips; both discordant edges straddle the split
    assert edge_classes(p3, x, 2) == (0, 0, 2)
    assert edge_classes(p3, parse_config("+++", 3), 2) == (0, 0, 0)


def test_edge_partition_counts_discordant_edges():
    rng = random.Random(79)
    for _ in range(80):
        g = random_connected_graph(rng, rng.randint(2, 12))
        k = rng.randint(1, g.max_degree())
        x = Configuration(g.n, rng.randrange(1 << g.n))
        b = delta_energy_breakdown(g, x, k)
        discordant = sum(1 for u, v in g.edges if x.states[u] != x.states[v])
        assert b.a_size + b.b_size + b.c_size == discordant
        assert sum(b.op_now[v] for v in b.s1) == 2 * b.a_size + b.c_size
        assert sum(b.op_now[v] for v in b.s2) == 2 * b.b_size + b.c_size


def test_breakdown_p3_example(p3):
    x = parse_config("+-+", 3)
    b = delta_energy_breakdown(p3, x, 2)
    assert b.energy == 2
    assert b.energy_aux == 2
    assert b.s1 == frozenset({1})
    assert b.s2 == frozenset({0, 2})
    assert (b.a_size, b.b_size, b.c_size) == (0, 0, 2)
    assert b.per_vertex_delta == (0, 4, 0)
    assert config_energy(p3, step(p3, x, 2), 2) == b.energy + sum(b.per_vertex_delta)


def test_breakdown_fixed_point_is_all_zero(p3):
    b = delta_energy_breakdown(p3, parse_config("+++", 3), 2)
    assert b.per_vertex_delta == (0, 0, 0)
    assert b.energy == b.energy_aux == 6


def test_breakdown_random_consistency():
    rng = random.Random(83)
    for _ in range(150):
        g = random_connected_graph(rng, rng.randint(2, 12))
        k = rng.randint(1, g.max_degree())
        x = Configuration(g.n, rng.randrange(1 << g.n))
        b = delta_energy_breakdown(g, x, k)
        assert b.energy_aux == b.energy
        assert all(d >= 0 for d in b.per_vertex_delta)
        assert sum(b.per_vertex_delta) == config_energy(g, step(g, x, k), k) - b.energy
        assert set(b.s1) | set(b.s2) == set(range(g.n))
        assert not set(b.s1) & set(b.s2)


def test_bound_report_top_tree(top_tree_n8):
    r = bound_report(top_tree_n8, 2)
    assert r.n == 8
    assert r.max_degree == 3
    assert r.general_bound == 31  # n(max_degree + 1) - 1
    assert r.high_k_bound == 23  # n(k + 1) - 1, valid since 2k > max_degree
    assert r.tree_bound == 23
    assert r.tree_max_energy == 16
    assert r.plateau_bound is None


def test_bound_report_with_trajectory(p3):
    traj = run_trajectory(p3, parse_config("+-+", 3), 1)
    r = bound_report(p3, 1, traj)
    assert r.plateau_bound == traj.plateau_energy + p3.n - 1 == 3
    assert traj.tau <= r.plateau_bound
    assert r.high_k_bound is None  # 2k = 2 = max_degree, condition fails


def test_bound_report_non_tree(triangle):
    r = bound_report(triangle, 1)
    assert r.tree_bound is None
    assert r.tree_max_energy is None
    assert r.general_bound == 3 * 3 - 1


def test_bounds_hold_on_random_trajectories():
    rng = random.Random(89)
    for _ in range(120):
        g = random_connected_graph(rng, rng.randint(2, 12))
        k = rng.randint(1, g.max_degree())
        traj = run_trajectory(g, Configuration(g.n, rng.randrange(1 << g.n)), k)
        r = bound_report(g, k, traj)
        assert traj.tau <= r.general_bound
        assert traj.tau <= r.plateau_bound
        if r.high_k_bound is not None:
            assert traj.tau <= r.high_k_bound
        if r.tree_bound is not None:
            assert traj.tau <= r.tree_bound
            assert r.tree_max_energy == g.n * k
            assert traj.plateau_energy <= r.tree_max_energy


def test_max_tree_energy_p3(p3):
    best, attaining = max_energy(p3, 1)
    assert best == 3
    assert {x.to_string() for x in attaining} == {"+++", "---"}


def test_max_tree_energy_star():
    star = parse_edge_list("n=5\n1 2\n1 3\n1 4\n1 5\n")
    best, attaining = max_energy(star, 1)
    assert best == 5
    assert len(attaining) == 2


def test_max_tree_energy_all_small_trees():
    for n in range(2, 8):
        for tree in enumerate_free_trees(n):
            for k in range(1, tree.max_degree() + 1):
                best, attaining = max_energy(tree, k)
                assert best == n * k
                assert len(attaining) == 2
                assert {x.bits for x in attaining} == {0, (1 << n) - 1}


def test_max_tree_energy_rejects_non_tree(triangle):
    with pytest.raises(ValueError):
        max_energy(triangle, 1)


def test_self_check_cannot_be_tripped_normally():
    # the breakdown's consistency checks should never fire on valid inputs;
    # exercise a broad sample to build confidence in the invariants
    rng = random.Random(97)
    for _ in range(200):
        g = random_tree(rng, rng.randint(2, 10))
        k = rng.randint(1, g.max_degree())
        x = Configuration(g.n, rng.randrange(1 << g.n))
        try:
            delta_energy_breakdown(g, x, k)
        except InternalInvariantError as exc:  # pragma: no cover
            pytest.fail(f"invariant tripped: {exc}")


def test_single_vertex_energy():
    g = Graph.from_edges(1, [])
    x = Configuration(1, 1)
    assert delta_energy_breakdown(g, x, 1).energy == 1
    assert split(g, x, 1) == (frozenset(), frozenset({0}))


def breakdown_fields(b: EnergyBreakdown) -> dict:
    """A breakdown's fields and its S2, as the plain lists and ints that
    reference_breakdown gives."""
    return {
        **dataclasses.asdict(b),
        "op_now": list(b.op_now),
        "op_next": list(b.op_next),
        "s1": sorted(b.s1),
        "s2": sorted(b.s2),
        "per_vertex_delta": list(b.per_vertex_delta),
    }


def reference_breakdown(n: int, edges, states: list[int], k: int) -> dict:
    """breakdown_fields of the breakdown, from the definitions: adjacency
    lists, +/-1 states and plain sets, with no bit masks."""
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)

    def ops_of(s):
        return [sum(1 for w in adjacency[v] if s[w] != s[v]) for v in range(n)]

    op_now = ops_of(states)
    s1 = {v for v in range(n) if op_now[v] >= k}
    s2 = set(range(n)) - s1
    op_next = ops_of([-s if v in s1 else s for v, s in enumerate(states)])

    def side_term(v, op):  # the vertex's term under the split at time t
        return op - k if v in s1 else k - op

    discordant = [(u, v) for u, v in edges if states[u] != states[v]]
    inside_s1 = sum(1 for u, v in discordant if {u, v} <= s1)
    inside_s2 = sum(1 for u, v in discordant if {u, v} <= s2)
    return {
        "op_now": op_now,
        "op_next": op_next,
        "s1": sorted(s1),
        "s2": sorted(s2),
        "energy": sum(side_term(v, op_now[v]) for v in range(n)),
        "energy_aux": sum(side_term(v, op_next[v]) for v in range(n)),
        "a_size": inside_s1,
        "b_size": inside_s2,
        "c_size": len(discordant) - inside_s1 - inside_s2,
        # E(t+1) - E' term by term: each vertex's term under the split at t+1
        # minus its term under the split at t, both with op at t+1
        "per_vertex_delta": [abs(op_next[v] - k) - side_term(v, op_next[v]) for v in range(n)],
    }


def test_breakdown_matches_reference():
    """Every field of the breakdown against the definitions, on every start
    of every tree with n <= 8, of K_n for n <= 6 and of 10 random connected
    graphs with n <= 9, at every k in 1..max_degree+1."""
    rng = random.Random(101)
    graphs = [tree for n in range(1, 9) for tree in enumerate_free_trees(n)]
    graphs += [Graph.from_edges(n, list(itertools.combinations(range(n), 2))) for n in range(1, 7)]
    graphs += [random_connected_graph(rng, rng.randint(2, 9)) for _ in range(10)]
    for g in graphs:
        for k in range(1, max(g.degrees) + 2):
            for start in itertools.product((-1, 1), repeat=g.n):
                x = Configuration.from_states(start)
                expected = reference_breakdown(g.n, g.edges, list(start), k)
                assert breakdown_fields(delta_energy_breakdown(g, x, k)) == expected


def test_kernels_agree_above_the_crossover(monkeypatch):
    """Seeded trees and sparse graphs with n = 64..300, at every k in
    1..max_degree+1 and at 2^70: run_trajectory gives the same result on the
    mask walk and on the arc kernel, and the breakdown of every state on the
    way matches the reference, field by field and in Python types."""
    rng = random.Random(131)
    graphs = [random_tree(rng, 64), random_sparse_graph(rng, 97)]
    graphs += [random_tree(rng, 180), random_sparse_graph(rng, 300)]
    for g in graphs:
        for k in [*range(1, g.max_degree() + 2), 1 << 70]:
            x = Configuration(g.n, rng.getrandbits(g.n))
            monkeypatch.setattr(dynamics, "VECTOR_MIN_VERTICES", g.n + 1)
            walked = run_trajectory(g, x, k)
            monkeypatch.setattr(dynamics, "VECTOR_MIN_VERTICES", g.n)
            assert run_trajectory(g, x, k) == walked
            for s in walked.trace:
                b = delta_energy_breakdown(g, s.config, k)
                expected = reference_breakdown(g.n, g.edges, list(s.config.states), k)
                assert breakdown_fields(b) == expected
                scalars = (b.energy, b.energy_aux, b.a_size, b.b_size, b.c_size)
                values = (*b.op_now, *b.op_next, *b.s1, *b.per_vertex_delta, *scalars)
                assert {type(v) for v in values} == {int} and type(b.s1) is frozenset


def test_energies_are_exact_at_a_threshold_beyond_int64(p3):
    """At k = 2^70 no vertex flips and every term is k - op, so the energy
    is n * k - 2 * (discordant edges): on a 3-vertex path (the mask walk), on
    a 100-vertex graph (the arc kernel) and in the breakdown of both."""
    rng = random.Random(71)
    k = 1 << 70
    for g in (p3, random_sparse_graph(rng, 100)):
        x = Configuration(g.n, rng.getrandbits(g.n))
        discordant = sum(1 for u, v in g.edges if x.states[u] != x.states[v])
        energy = g.n * k - 2 * discordant
        assert step(g, x, k) == x
        assert config_energy(g, x, k) == energy
        r = run_trajectory(g, x, k)
        assert (r.tau, r.period, r.energies) == (0, 1, (energy, energy))
        b = delta_energy_breakdown(g, x, k)
        assert (b.energy, b.energy_aux, b.s1) == (energy, energy, frozenset())
        assert (b.a_size, b.b_size, b.c_size) == (0, discordant, 0)
        assert b.per_vertex_delta == (0,) * g.n


def test_breakdown_invariant_errors_name_edges_k_and_start(monkeypatch, p3):
    import kreversible.energy as energy_module

    x = parse_config("+-+", 3)
    real = energy_module._ops
    calls = []

    def bumped_second_call(g, bits):  # the second call reads op at t+1
        ops = real(g, bits)
        calls.append(bits)
        if len(calls) == 2:
            ops[0] += 1
        return ops

    monkeypatch.setattr(energy_module, "_ops", bumped_second_call)
    with pytest.raises(InternalInvariantError) as caught:
        delta_energy_breakdown(p3, x, 2)
    assert str(caught.value) == (
        "edges=[[1, 2], [2, 3]] k=2 start +-+: auxiliary energy 1 differs from energy 2"
    )
    monkeypatch.undo()

    # a, b and c come from the edge list and op from the neighbour masks, so
    # an edge list that disagrees with the masks breaks a handshake identity
    doubled = dataclasses.replace(p3, edges=p3.edges + ((0, 1),))
    handshakes = {1: "op sum over s1 differs from 2a + c", 3: "op sum over s2 differs from 2b + c"}
    for k, what in handshakes.items():
        with pytest.raises(InternalInvariantError) as caught:
            delta_energy_breakdown(doubled, x, k)
        assert str(caught.value) == f"edges=[[1, 2], [2, 3], [1, 2]] k={k} start +-+: {what}"
