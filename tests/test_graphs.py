from __future__ import annotations

import random

import pytest

from kreversible import Graph, is_tree, parse_edge_list
from kreversible.cli import main
from kreversible.graphs import (
    DuplicateEdgeError,
    MalformedLineError,
    SelfLoopError,
    VertexIndexError,
)

from conftest import random_connected_graph, relabel, to_edge_list


def test_parse_basic(p3):
    assert p3.n == 3
    assert p3.edges == ((0, 1), (1, 2))
    assert p3.degrees == (1, 2, 1)
    assert p3.adjacency[1] == (0, 2)
    assert p3.neighbor_masks == (0b010, 0b101, 0b010)


def test_parse_comments_and_blanks():
    g = parse_edge_list("# a path\n\nn=3\n1 2  # first edge\n\n2 3\n")
    assert g.edges == ((0, 1), (1, 2))


def test_parse_normalizes_endpoint_order():
    g = parse_edge_list("n=3\n2 1\n3 2\n")
    assert g.edges == ((0, 1), (1, 2))


def test_parse_missing_header():
    with pytest.raises(MalformedLineError):
        parse_edge_list("1 2\n")
    for text in ("", "# only a comment\n\n"):  # nothing but comments and blank lines
        with pytest.raises(MalformedLineError, match="missing 'n=<int>' header line"):
            parse_edge_list(text)


def test_parse_bad_header():
    with pytest.raises(MalformedLineError):
        parse_edge_list("n=two\n1 2\n")


def test_parse_malformed_line():
    with pytest.raises(MalformedLineError):
        parse_edge_list("n=3\n1 2 3\n")
    with pytest.raises(MalformedLineError):
        parse_edge_list("n=3\n1 x\n")


def test_parse_vertex_out_of_range():
    with pytest.raises(VertexIndexError):
        parse_edge_list("n=3\n1 4\n")
    with pytest.raises(VertexIndexError):
        parse_edge_list("n=3\n0 2\n")


def test_parse_self_loop():
    with pytest.raises(SelfLoopError):
        parse_edge_list("n=3\n2 2\n")


def test_parse_duplicate_edge_even_reversed():
    with pytest.raises(DuplicateEdgeError):
        parse_edge_list("n=3\n1 2\n2 1\n")


def test_duplicate_edge_names_both_lines_and_the_file_vertices(tmp_path, capsys):
    # like every other edge-list error: line numbers and 1-based vertices
    with pytest.raises(DuplicateEdgeError) as caught:
        parse_edge_list("n=3\n1 2\n2 3\n2 1\n")
    assert str(caught.value) == "line 4: edge (2, 1) already listed on line 2"
    path = tmp_path / "dup.txt"
    path.write_text("n=3\n# a comment line\n2 3\n\n3 2\n")
    assert main(["simulate", "--graph", str(path), "--config", "+-+", "--k", "1"]) == 2
    assert capsys.readouterr() == ("", "error: line 5: edge (3, 2) already listed on line 3\n")


def test_empty_graph_needs_positive_n():
    with pytest.raises(MalformedLineError):
        parse_edge_list("n=0\n")
    with pytest.raises(ValueError):
        Graph.from_edges(0, [])


def test_round_trip(p3):
    assert parse_edge_list(to_edge_list(p3)) == p3
    rng = random.Random(3)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 12))
        assert parse_edge_list(to_edge_list(g)) == g


def test_is_tree(p3, triangle):
    assert is_tree(p3)
    assert not is_tree(triangle)
    # right edge count but disconnected
    assert not is_tree(Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)]))
    assert not is_tree(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert is_tree(Graph.from_edges(1, []))


def test_connectivity():
    assert Graph.from_edges(1, []).is_connected()
    assert not Graph.from_edges(2, []).is_connected()
    assert Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).is_connected()


def test_relabel_preserves_structure(p3):
    g = relabel(p3, [2, 1, 0])
    assert g.edges == ((0, 1), (1, 2))  # the reversed path is the same path
    assert sorted(g.degrees) == sorted(p3.degrees)
    with pytest.raises(ValueError):
        relabel(p3, [0, 0, 1])


def test_adjacency_consistency():
    rng = random.Random(11)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 10))
        for v in range(g.n):
            assert g.degrees[v] == len(g.adjacency[v]) == g.neighbor_masks[v].bit_count()
            for w in g.adjacency[v]:
                assert v in g.adjacency[w]
            # strictly increasing: _levels_from_graph reads adjacency[v][0]
            # as the smallest neighbour of v
            assert all(a < b for a, b in zip(g.adjacency[v], g.adjacency[v][1:]))
        assert sum(g.degrees) == 2 * g.num_edges
        # the same graph from its edges in any order and orientation
        listed = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
        rng.shuffle(listed)
        assert Graph.from_edges(g.n, listed) == g
