from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import pickle
import random

import numpy as np
import pytest

from kreversible import (
    Configuration,
    ConjectureReport,
    Graph,
    InternalInvariantError,
    ParseError,
    config_orbit_code,
    cross_validate_generator,
    enumerate_free_trees,
    expected_tree_count,
    generate_extremal_family,
    max_transient_search,
    parse_config,
    run_trajectory,
    verify_conjecture,
)
from kreversible import extremal, sweep, tables
from kreversible.cli import main
from kreversible.extremal import ExtremalRecord, SearchResult
from kreversible.serialize import CSV_COLUMNS, canonical_json, edges_to_text, records_to_csv
from kreversible.trees import (
    _graph_from_levels,
    _levels_from_graph,
    canonical_code,
    free_tree_levels,
)
from conftest import (
    assert_selection_matches_sweep, random_connected_graph, random_tree, reference_result,
)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_search_path5():
    found = max_transient_search(path_graph(5), 2)
    assert found.tau_max == 2
    assert found.mod_negation_count == 1
    assert found.raw_config_count == 2
    assert found.orbit_count == 1
    assert found.records[0].config == parse_config("+-+-+", 5)


def test_search_star_against_scalar_mini_oracle():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    found = max_transient_search(star, 2)
    taus = {
        bits: run_trajectory(star, Configuration(4, bits), 2).tau
        for bits in range(16)
        if bits & 1  # vertex 1 fixed at +1, matching the half-space sweep
    }
    tau_max = max(taus.values())
    assert found.tau_max == tau_max
    assert sorted(r.config.bits for r in found.records) == sorted(
        bits for bits, tau in taus.items() if tau == tau_max
    )


def test_search_top_tree(top_tree_n8):
    found = max_transient_search(top_tree_n8, 2)
    assert found.tau_max == 5
    assert [r.config.to_string() for r in found.records] == ["+-+-+-+-", "+-+-+--+"]
    assert found.raw_config_count == 4
    assert found.mod_negation_count == 2
    assert found.orbit_count == 1  # the two attaining starts are automorphic images


# sha256 of the canonical JSON of max_transient_search on random_tree(rng, n)
# for n = 17, then 18, from random.Random(17), captured before the sweep ran
# its loop on the distinct successors of the starts
SEARCH_N17_N18_SHA256 = {
    (17, 1): "7746b41f15c86fe84111ce702d8776b9fe658f6c4fe6a298e643159d4c130bc5",
    (17, 2): "4472a8afa20b6c5cd94e20614903a03a3027c3bab09c036e902cf186c81fd2dc",
    (18, 1): "7d34223629847dc1b71204729f20164987855a380b44599ec5cc3164018a1169",
    (18, 2): "e303582e3a8a92ba98321aaf5d3d16e46e1c93a81f9588492bf411d02d519fd6",
}


def test_search_golden_on_random_trees_n17_n18():
    rng = random.Random(17)
    trees = [random_tree(rng, n) for n in (17, 18)]
    digests = {
        (g.n, k): hashlib.sha256(
            canonical_json(max_transient_search(g, k, limit=18).to_json_dict()).encode()
        ).hexdigest()
        for g in trees
        for k in (1, 2)
    }
    assert digests == SEARCH_N17_N18_SHA256


def test_search_rejects_bad_input(triangle):
    with pytest.raises(ValueError):
        max_transient_search(triangle, 2)
    with pytest.raises(ValueError):
        max_transient_search(path_graph(6), 2, limit=5)


def test_expected_tree_count_values():
    assert [expected_tree_count(n) for n in range(5, 14)] == [1, 3, 2, 4, 3, 5, 4, 6, 5]


def test_conjecture_n5_is_honest():
    # exhaustive truth at n = 5: two extremal trees, not the predicted one
    report = verify_conjecture(5)
    assert report.tau_max == 2
    assert report.expected_tau_max == 2
    assert report.tree_count == 2
    assert report.expected_tree_count == 1
    assert report.verdict == "fail"
    assert sorted(report.configs_per_tree_mod_negation.values()) == [1, 3]
    assert sorted(report.configs_per_tree_mod_automorphism.values()) == [1, 2]


def test_conjecture_small_n_passes_and_records_replay():
    for n in (6, 7, 8):
        report = verify_conjecture(n)
        assert report.verdict == "pass"
        assert report.tau_max == n - 3
        assert report.tree_count == expected_tree_count(n)
        codes = set()
        for r in report.extremal_records:
            tree = Graph.from_edges(n, r.tree_edges)
            assert canonical_code(tree).hex() == r.tree_code
            traj = run_trajectory(tree, r.config, 2)
            assert (traj.tau, traj.period) == (r.tau, r.period) == (n - 3, r.period)
            codes.add(r.tree_code)
        assert codes == set(report.configs_per_tree_raw)
        for code in codes:
            assert report.configs_per_tree_raw[code] == 2 * report.configs_per_tree_mod_negation[code]


def test_conjecture_raw_counts_match_full_space_sweep():
    n = 6
    report = verify_conjecture(n)
    seen: dict[str, int] = {}
    for r in report.extremal_records:
        if r.tree_code in seen:
            continue
        tree = Graph.from_edges(n, r.tree_edges)
        taus = [run_trajectory(tree, Configuration(n, bits), 2).tau for bits in range(1 << n)]
        seen[r.tree_code] = taus.count(report.tau_max)
    assert seen == report.configs_per_tree_raw


def test_conjecture_domain_errors(tmp_path):
    with pytest.raises(ValueError):
        verify_conjecture(4)
    with pytest.raises(ValueError):
        verify_conjecture(17)
    with pytest.raises(ValueError):
        verify_conjecture(6, workers=0)


def test_checkpoint_resume_roundtrip(tmp_path):
    path = tmp_path / "ledger.jsonl"
    fresh = verify_conjecture(6, checkpoint_path=path)
    lines = path.read_text().splitlines()
    assert len(lines) == 6  # one per free tree on 6 vertices

    # a second run serves everything from the ledger and appends nothing
    resumed = verify_conjecture(6, checkpoint_path=path)
    assert path.read_text().splitlines() == lines
    assert resumed.to_json_dict() == fresh.to_json_dict()

    # prefix truncation: drop the last three lines, resume, same report
    path.write_text("\n".join(lines[:3]) + "\n")
    assert verify_conjecture(6, checkpoint_path=path).to_json_dict() == fresh.to_json_dict()
    assert len(path.read_text().splitlines()) == 6

    # torn final line (killed mid-write) is dropped, truncated away, and
    # recomputed; the healed ledger must stay parseable for a further run
    path.write_text("\n".join(lines[:3]) + "\n" + lines[3][: len(lines[3]) // 2])
    assert verify_conjecture(6, checkpoint_path=path).to_json_dict() == fresh.to_json_dict()
    healed = path.read_text()
    assert healed.endswith("\n")
    assert len(healed.splitlines()) == 6
    assert all(json.loads(line) for line in healed.splitlines())
    assert verify_conjecture(6, checkpoint_path=path).to_json_dict() == fresh.to_json_dict()

    # a blank line holds no tree: it is skipped and left in place, whether it
    # is whitespace in the middle or an empty last line
    for text in (
        "\n".join([*lines[:2], "   ", *lines[2:4]]) + "\n",
        "\n".join(lines[:3]) + "\n\n",
    ):
        path.write_text(text)
        assert verify_conjecture(6, checkpoint_path=path).to_json_dict() == fresh.to_json_dict()
        kept = path.read_text().splitlines()
        assert sorted(line for line in kept if line.strip()) == sorted(lines)
        assert len(kept) == 7


def test_checkpoint_rejects_foreign_and_corrupt_ledgers(tmp_path):
    path = tmp_path / "ledger.jsonl"
    verify_conjecture(6, checkpoint_path=path)
    with pytest.raises(ParseError):
        verify_conjecture(7, checkpoint_path=path)
    with pytest.raises(ParseError):
        verify_conjecture(6, k=1, checkpoint_path=path)

    lines = path.read_text().splitlines()
    # line 2 under line 3's code: a resume would skip line 3's tree and drop it
    entry = json.loads(lines[1])
    claims_other_tree = {**entry, "code": json.loads(lines[2])["code"]}
    no_configs = {**entry, "configs": []}
    # integer fields of the wrong JSON type: each equals, or int() turns it
    # into, the right value, so only a type check catches it
    float_n = {**entry, "n": 6.0}
    fractional_tau = {**entry, "tau_max": entry["tau_max"] + 0.5}
    string_tau = {**entry, "tau_max": str(entry["tau_max"])}
    string_period = {**entry, "configs": [[c, str(p)] for c, p in entry["configs"]]}
    assert [1, 2] in entry["edges"]
    bool_endpoint = {**entry, "edges": [[True if u == 1 else u, v] for u, v in entry["edges"]]}
    # starts that would inflate the counts: one start twice, or a negation (vertex 1 at -)
    first_config = entry["configs"][0]
    repeated_start = {**entry, "configs": [first_config, *entry["configs"]]}
    negated = "".join("-" if c == "+" else "+" for c in first_config[0])
    negated_start = {**entry, "configs": [*entry["configs"], [negated, first_config[1]]]}
    for bad in (
        "{ not json", '{"n": 6, "k": 2, "code": "ab"}', "[1, 2]", json.dumps(claims_other_tree),
        json.dumps(no_configs), json.dumps(float_n), json.dumps(fractional_tau),
        json.dumps(string_tau), json.dumps(string_period), json.dumps(bool_endpoint),
        json.dumps(repeated_start), json.dumps(negated_start),
        lines[0],  # line 1's tree again: the program writes each tree once
    ):
        lines[1] = bad
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="checkpoint line 2 "):
            verify_conjecture(6, checkpoint_path=path)

    # edges that do not form a tree on 6 vertices
    first, *rest = entry["edges"]
    for edges in (
        [[0, first[1]], *rest],  # endpoint below 1
        [[first[0], 7], *rest],  # endpoint above n
        [[first[0], first[0]], *rest],  # self-loop
        [first, *rest[:-1], first],  # repeated edge
        [[1, 2], [2, 3], [1, 3], [4, 5], [5, 6]],  # n - 1 edges with a cycle
    ):
        lines[1] = json.dumps({**entry, "edges": edges})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="checkpoint line 2 is malformed"):
            verify_conjecture(6, checkpoint_path=path)

    path.unlink()
    verify_conjecture(6, k=1, checkpoint_path=path)
    lines = path.read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), "k": True})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="checkpoint line 2 "):
        verify_conjecture(6, k=1, checkpoint_path=path)


def test_checkpoint_rejects_a_tree_labelled_unlike_the_enumeration(monkeypatch, capsys, tmp_path):
    # a resume skips a tree by the level sequence read off its line's edges;
    # each line below names its tree's code under a labelling the enumeration
    # never builds, and a skip by what it reads as would sweep a tree twice
    path = tmp_path / "ledger.jsonl"
    verify_conjecture(6, checkpoint_path=path)
    lines = path.read_text().splitlines(keepends=True)
    reversed_labels = [(6 - u, 6 - v) for u, v in json.loads(lines[1])["edges"]]  # v -> 7 - v
    # line 2's tree again, read as line 3's sequence: skipped by it, line 3's tree would be dropped
    reads_as_line_3 = [(0, 1), (0, 5), (1, 2), (1, 3), (4, 5)]
    assert _levels_from_graph(Graph.from_edges(6, reads_as_line_3)) == bytes(
        list(free_tree_levels(6))[2]
    )
    codes = [json.loads(line)["code"] for line in lines]
    p6 = codes.index(canonical_code(path_graph(6)).hex())  # rebuilt from a sequence never yielded
    cases = [(1, reversed_labels), (1, reads_as_line_3), (p6, [(i, i + 1) for i in range(5)])]

    def no_sweep(graphs, k):
        raise AssertionError("a rejected ledger started a sweep")

    results = [max_transient_search(Graph.from_edges(6, edges), 2) for _, edges in cases]
    monkeypatch.setattr(extremal, "sweep_chunk", no_sweep)
    for (index, _), result in zip(cases, results):
        edited = lines.copy()
        edited[index] = extremal._ledger_line(result) + "\n"
        assert json.loads(edited[index])["code"] == codes[index]
        text = "".join(edited) + lines[2][:40]  # and a torn tail, which stays
        path.write_text(text)
        message = f"checkpoint line {index + 1} labels its tree unlike the enumeration"
        with pytest.raises(ParseError, match=message):
            verify_conjecture(6, checkpoint_path=path)
        assert path.read_text() == text
        assert main(["conjecture", "--n", "6", "--checkpoint", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert path.read_text() == text


# sha256 of the n = 6 ledger's lines, sorted, each ending in a newline
LEDGER_N6_SHA256 = "69754efb824eba51cf6262e441b510dbc9ffbc0dddad3305dca1f001960f9c51"
LEDGER_N6_STAR = (
    '{"code": "020201020102010201020101", "configs": [["+-----", 1], ["++----", 1], '
    '["+-+---", 1], ["+--+--", 1], ["+---+-", 1], ["+----+", 1]], "edges": [[1, 2], '
    '[1, 3], [1, 4], [1, 5], [1, 6]], "k": 2, "n": 6, "tau_max": 1}\n'
)


def test_checkpoint_line_format_golden(tmp_path):
    # captured from an earlier writer: reader and writer drifting together
    # would still pass a write-then-read round trip, but not this
    path = tmp_path / "ledger.jsonl"
    verify_conjecture(6, checkpoint_path=path)
    lines = sorted(path.read_text().splitlines(keepends=True))
    assert lines[0] == LEDGER_N6_STAR
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == LEDGER_N6_SHA256


def test_worker_count_does_not_change_the_report(monkeypatch):
    monkeypatch.setattr(tables, "CHUNK_TABLE_BYTES", 5 * 12 << 9)  # 10 chunks, not 1
    single = verify_conjecture(9, workers=1)
    pooled = verify_conjecture(9, workers=3)
    assert pooled.to_json_dict() == single.to_json_dict()
    assert canonical_json(pooled.to_json_dict()) == canonical_json(single.to_json_dict())


def test_nested_search_leaves_the_outer_skip_set_alone(monkeypatch, tmp_path):
    # a second search in the same process, started here from inside the
    # first one's first sweep, must not change which trees the first skips
    monkeypatch.setattr(tables, "CHUNK_TABLE_BYTES", 5 * 12 << 9)
    path = tmp_path / "ledger.jsonl"
    fresh = verify_conjecture(9, checkpoint_path=path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[::2]))
    real = extremal.sweep_chunk
    inner = []

    def nesting(graphs, k):
        monkeypatch.setattr(extremal, "sweep_chunk", real)  # only the first call nests
        inner.append(verify_conjecture(6))
        return real(graphs, k)

    monkeypatch.setattr(extremal, "sweep_chunk", nesting)
    resumed = verify_conjecture(9, checkpoint_path=path)
    assert [report.verdict for report in inner] == ["pass"]
    assert canonical_json(resumed.to_json_dict()) == canonical_json(fresh.to_json_dict())
    assert sorted(path.read_text().splitlines(keepends=True)) == sorted(lines)


def test_resume_holds_no_loaded_tree_below_the_running_top(monkeypatch, tmp_path):
    # a loaded tree is kept or dropped by the same rule as a swept one: when
    # the search starts, the only results alive are the loaded trees at the
    # highest tau_max, not one per ledger line
    monkeypatch.setattr(tables, "CHUNK_TABLE_BYTES", 5 * 12 << 9)
    path = tmp_path / "ledger.jsonl"
    fresh = verify_conjecture(9, checkpoint_path=path)
    kept = path.read_text().splitlines(keepends=True)[::2]
    path.write_text("".join(kept))
    taus = [json.loads(line)["tau_max"] for line in kept]

    def live_results() -> int:
        gc.collect()
        return sum(isinstance(obj, SearchResult) for obj in gc.get_objects())

    real = extremal.sweep_chunk
    held = []

    def counting(graphs, k):
        monkeypatch.setattr(extremal, "sweep_chunk", real)  # only the first call counts
        held.append(live_results() - before)
        return real(graphs, k)

    monkeypatch.setattr(extremal, "sweep_chunk", counting)
    before = live_results()  # the fresh report's, and any other test's still alive
    resumed = verify_conjecture(9, checkpoint_path=path)
    assert held == [taus.count(max(taus))] == [1]
    assert canonical_json(resumed.to_json_dict()) == canonical_json(fresh.to_json_dict())


def test_family_n5_golden():
    family = generate_extremal_family(5)
    assert len(family) == 1
    tree, config = family[0]
    assert tree.edges == ((0, 1), (1, 2), (2, 3), (2, 4))
    assert config == parse_config("+-+-+", 5)


def test_family_structure_and_transients():
    for n in range(5, 17):
        family = generate_extremal_family(n)
        assert len(family) == expected_tree_count(n)
        codes = {canonical_code(tree).hex() for tree, _ in family}
        assert len(codes) == len(family)  # pairwise non-isomorphic
        for tree, config in family:
            assert tree.n == n
            assert tree.num_edges == n - 1
            assert config.states == tuple(1 if i % 2 == 0 else -1 for i in range(n))
            assert run_trajectory(tree, config, 2).tau == n - 3
    with pytest.raises(ValueError):
        generate_extremal_family(4)


def test_cross_validation_passes_for_small_n():
    for n in (6, 7, 8):
        report = verify_conjecture(n)
        cv = cross_validate_generator(report)
        assert cv.verdict == "pass"
        assert cv.all_reach_bound
        assert cv.codes_match
        assert cv.configs_match
        assert cv.mismatches == ()
        assert cv.family_codes == cv.extremal_codes
        assert cv.n == n
    with pytest.raises(ValueError):
        cross_validate_generator(verify_conjecture(6, k=3))


def test_cross_validation_reports_the_n5_gap():
    cv = cross_validate_generator(verify_conjecture(5))
    assert cv.verdict == "fail"
    assert cv.all_reach_bound  # the generated tree itself is fine
    assert not cv.codes_match
    assert len(cv.family_codes) == 1
    assert len(cv.extremal_codes) == 2
    # the family emits the spider; the tree it misses is the 5-path
    assert set(cv.extremal_codes) - set(cv.family_codes) == {canonical_code(path_graph(5)).hex()}
    kinds = sorted(m.split(" ")[0] for m in cv.mismatches)
    assert any(m.startswith("extremal trees not generated:") for m in cv.mismatches)
    assert any("outside the family orbit" in m for m in cv.mismatches)
    assert len(cv.mismatches) == 2
    assert kinds == ["extremal", "tree"]


def test_report_counts_and_verdict_follow_its_extremal_trees():
    report = verify_conjecture(8)
    assert [f.name for f in dataclasses.fields(report)] == ["n", "k", "extremal"]
    assert (report.tree_count, report.verdict) == (4, "pass")
    fewer = dataclasses.replace(report, extremal=report.extremal[1:])
    assert (fewer.tau_max, fewer.tree_count, fewer.verdict) == (5, 3, "fail")
    assert fewer.to_json_dict()["tree_count"] == 3


def test_cross_validation_reports_each_kind_of_failure(monkeypatch):
    report8 = verify_conjecture(8)
    cv = cross_validate_generator(dataclasses.replace(report8, extremal=report8.extremal[1:]))
    assert cv.verdict == "fail"
    assert not cv.codes_match and not cv.configs_match
    assert any(m.startswith("generated trees not extremal:") for m in cv.mismatches)

    real_family = extremal.generate_extremal_family
    monkeypatch.setattr(
        extremal, "generate_extremal_family", lambda n: [*real_family(n), real_family(n)[0]]
    )
    cv = cross_validate_generator(report8)
    assert cv.verdict == "fail"
    assert any(m.startswith("family emits isomorphic duplicates") for m in cv.mismatches)
    monkeypatch.setattr(extremal, "generate_extremal_family", real_family)

    real_run = extremal.run_trajectory

    def one_step_long(g, x, k):
        run = real_run(g, x, k)
        return dataclasses.replace(run, tau=run.tau + 1)

    monkeypatch.setattr(extremal, "run_trajectory", one_step_long)
    cv = cross_validate_generator(report8)
    assert cv.verdict == "fail"
    assert not cv.all_reach_bound
    assert "family tree 1 reaches tau=6, expected 5" in cv.mismatches


def test_orbit_code_collapses_negation_and_relabeling(p3):
    x = parse_config("+-+", 3)
    assert config_orbit_code(p3, x) == config_orbit_code(p3, parse_config("-+-", 3))
    assert config_orbit_code(p3, parse_config("++-", 3)) == config_orbit_code(
        p3, parse_config("-++", 3)
    )
    assert config_orbit_code(p3, x) != config_orbit_code(p3, parse_config("++-", 3))


def test_records_to_csv_golden():
    record = ExtremalRecord("ab", ((0, 1), (1, 2)), parse_config("+-+", 3), 1, 1)
    text = records_to_csv([record])
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "ab,1-2;2-3,+-+,1,1"
    assert edges_to_text(((0, 1), (1, 2))) == "1-2;2-3"


def test_canonical_json_is_deterministic():
    a = canonical_json({"b": 1, "a": [2, 1]})
    b = canonical_json({"a": [2, 1], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')
    assert json.loads(a) == {"a": [2, 1], "b": 1}


def test_report_json_shape():
    report = verify_conjecture(6)
    d = report.to_json_dict()
    assert list(d) == [
        "n",
        "k",
        "tau_max",
        "expected_tau_max",
        "tree_count",
        "expected_tree_count",
        "extremal_records",
        "configs_per_tree_raw",
        "configs_per_tree_mod_negation",
        "configs_per_tree_mod_automorphism",
        "verdict",
    ]
    assert isinstance(report, ConjectureReport)
    for entry in d["extremal_records"]:
        assert set(entry) == {"tree_code", "edges", "config", "tau", "period"}
        assert min(min(e) for e in entry["edges"]) >= 1  # 1-based on the wire
    json.dumps(d)  # fully serializable


def test_pool_worker_entrypoint_is_importable():
    # the pool path pickles its entry point by qualified name; a task is a
    # chunk of level sequences as bytes, k, and whether to return ledger lines
    from kreversible.extremal import _search

    assert pickle.loads(pickle.dumps(_search)) is _search
    chunk = (bytes(range(5)), *map(bytes, free_tree_levels(5)))  # a 5-path rooted at an end first
    trees = [_graph_from_levels(levels) for levels in chunk]
    assert trees[0] == path_graph(5)
    for write_lines in (False, True):
        out = _search(pickle.loads(pickle.dumps((chunk, 2, write_lines))))
        assert all(isinstance(r, SearchResult) for r, _ in out)
        assert [(r.tree, r.tree_code) for r, _ in out] == [
            (tree, canonical_code(tree).hex()) for tree in trees
        ]
        lines = [extremal._ledger_line(r) if write_lines else None for r, _ in out]
        assert [line for _, line in out] == lines
    assert out[0][0].tau_max == 2


def test_canonical_code_once_per_enumerated_tree(monkeypatch, tmp_path):
    # a tree is coded where its code is read: a reported tree, a ledger line
    # and a loaded line's check; a resume skips by level sequence, uncoded
    calls = []
    real = extremal.canonical_code

    def counting(g, colors=None):
        calls.append(colors)
        return real(g, colors)

    def tree_codes(**kwargs) -> int:  # uncolored codes of one run and its rendered report
        calls.clear()
        report = verify_conjecture(9, **kwargs)
        report.to_json_dict()
        # config_orbit_code codes each reported configuration and its negation
        assert len(calls) - calls.count(None) == 2 * len(report.extremal_records)
        return calls.count(None)

    monkeypatch.setattr(extremal, "canonical_code", counting)
    trees = sum(1 for _ in enumerate_free_trees(9))
    path = tmp_path / "ledger.jsonl"
    assert tree_codes() == expected_tree_count(9) == 3
    assert tree_codes(checkpoint_path=path) == trees == 47
    kept = path.read_text().splitlines(keepends=True)[::2]
    path.write_text("".join(kept))
    # each loaded line once, and each swept tree once for its ledger line
    assert tree_codes(checkpoint_path=path) == trees == 47


def test_resume_builds_one_graph_per_loaded_line(monkeypatch, tmp_path):
    # each line of a finished ledger is parsed into its Graph; the labelling
    # check compares the line's edges with the edge builder's and builds none
    path = tmp_path / "ledger.jsonl"
    fresh = verify_conjecture(9, checkpoint_path=path).to_json_dict()
    calls = []
    real = Graph.from_edges.__func__

    def counting(cls, n, edges):
        calls.append(n)
        return real(cls, n, edges)

    monkeypatch.setattr(Graph, "from_edges", classmethod(counting))
    resumed = verify_conjecture(9, checkpoint_path=path).to_json_dict()
    assert resumed == fresh
    assert len(calls) == path.read_text().count("\n") == 47


# sha256 of the n = 9 ledger's lines, sorted, each ending in a newline; captured from an
# earlier writer that swept one tree at a time
LEDGER_N9_SHA256 = "740cd74cc95c29a2ee31cc3b4c003021de402a0bceec2deb1c5b0e45726aff13"


def test_resume_from_a_ledger_cut_inside_a_chunk(monkeypatch, tmp_path):
    # chunks of 5 trees: 12 whole lines end two trees into the third chunk,
    # and part of the 13th line follows, as a kill mid-write leaves it
    monkeypatch.setattr(tables, "CHUNK_TABLE_BYTES", 5 * 12 << 9)
    path = tmp_path / "ledger.jsonl"
    fresh = verify_conjecture(9, checkpoint_path=path)
    lines = path.read_text().splitlines(keepends=True)
    assert hashlib.sha256("".join(sorted(lines)).encode()).hexdigest() == LEDGER_N9_SHA256
    for workers in (1, 2):
        path.write_text("".join(lines[:12]) + lines[12][: len(lines[12]) // 2])
        resumed = verify_conjecture(9, workers=workers, checkpoint_path=path)
        assert canonical_json(resumed.to_json_dict()) == canonical_json(fresh.to_json_dict())
        healed = path.read_text().splitlines(keepends=True)
        assert sorted(healed) == sorted(lines)
        if workers == 1:  # the same trees in the same order
            assert healed == lines


def test_resume_sweeps_exactly_the_trees_missing_from_the_ledger(monkeypatch, tmp_path):
    path = tmp_path / "ledger.jsonl"
    verify_conjecture(9, checkpoint_path=path)
    lines = path.read_text().splitlines(keepends=True)
    kept = lines[1::3]  # not a prefix of the enumeration order
    path.write_text("".join(kept))
    swept = []
    real = extremal.sweep_chunk

    def recording(graphs, k):
        swept.extend(canonical_code(g).hex() for g in graphs)
        return real(graphs, k)

    monkeypatch.setattr(extremal, "sweep_chunk", recording)
    verify_conjecture(9, checkpoint_path=path)
    codes = {json.loads(line)["code"] for line in lines}
    held = {json.loads(line)["code"] for line in kept}
    assert len(swept) == len(set(swept)) == len(codes) - len(held)
    assert set(swept) == codes - held
    assert sorted(path.read_text().splitlines(keepends=True)) == sorted(lines)


def test_orbit_codes_only_for_reported_configurations(monkeypatch):
    calls = []
    real = extremal.config_orbit_code

    def counting(g, x):
        calls.append(x)
        return real(g, x)

    monkeypatch.setattr(extremal, "config_orbit_code", counting)
    report = verify_conjecture(8)
    assert not calls  # the orbit counts are computed when the report is read
    payload = report.to_json_dict()
    assert len(calls) == len(report.extremal_records) == 9
    assert report.to_json_dict() == payload
    assert len(calls) == 9  # cached on each result


def counting_replays(monkeypatch) -> list:
    """Route extremal's run_trajectory through a counter; returns the calls."""
    calls = []
    real = extremal.run_trajectory

    def counting(g, x, k):
        calls.append(x)
        return real(g, x, k)

    monkeypatch.setattr(extremal, "run_trajectory", counting)
    return calls


def test_replay_only_for_reported_configurations(monkeypatch):
    calls = counting_replays(monkeypatch)
    report = verify_conjecture(9)
    assert len(calls) == 2 * len(report.extremal_records)  # each start and its negation


def test_replay_on_resume_adds_one_run_per_ledger_line(monkeypatch, tmp_path):
    path = tmp_path / "ledger.jsonl"
    fresh = verify_conjecture(9, checkpoint_path=path)
    lines = path.read_text().splitlines(keepends=True)
    kept = lines[: len(lines) // 2]
    path.write_text("".join(kept))
    calls = counting_replays(monkeypatch)
    resumed = verify_conjecture(9, checkpoint_path=path)
    assert resumed.to_json_dict() == fresh.to_json_dict()
    assert len(calls) == 2 * len(resumed.extremal_records) + len(kept)


def test_every_attaining_start_replays_for_n_up_to_11():
    # the sweep's results, checked start by start against the scalar engine
    # and for both signs; conjecture runs replay only the reported trees
    replays = 0
    for n in range(1, 12):
        for k in (1, 2, 3):
            chunk = tuple(map(bytes, free_tree_levels(n)))
            for found, _ in extremal._search((chunk, k, False)):
                for bits, period in found.starts:
                    x = Configuration(n, bits)
                    for probe in (x, x.negate()):
                        run = run_trajectory(found.tree, probe, k)
                        assert (run.tau, run.period) == (found.tau_max, period), (n, k, probe)
                        replays += 1
    assert replays == 168_346


def test_conjecture_replay_mismatch_names_tree_k_and_start(monkeypatch):
    first = verify_conjecture(8).extremal[0]  # the report's trees replay in code order
    start = Configuration(8, first.starts[0][0])
    real = extremal.run_trajectory

    def off_by_one(g, x, k):
        run = real(g, x, k)
        return dataclasses.replace(run, tau=run.tau + 1)

    monkeypatch.setattr(extremal, "run_trajectory", off_by_one)
    with pytest.raises(InternalInvariantError) as exc:
        verify_conjecture(8)
    message = str(exc.value)
    assert f"tree {first.tree_code} " in message
    assert "edges=[[1, 2], " in message  # 1-based edges
    assert "k=2" in message
    assert f"start {start}:" in message
    assert f"expected (tau, period) = (5, {first.starts[0][1]})" in message


def test_replay_mismatch_names_tree_k_and_start(monkeypatch, top_tree_n8):
    real = extremal.run_trajectory

    def off_by_one(g, x, k):
        run = real(g, x, k)
        return dataclasses.replace(run, tau=run.tau + 1)

    monkeypatch.setattr(extremal, "run_trajectory", off_by_one)
    with pytest.raises(InternalInvariantError) as exc:
        max_transient_search(top_tree_n8, 2)
    message = str(exc.value)
    assert canonical_code(top_tree_n8).hex() in message
    assert "[[1, 2], [2, 3]," in message  # 1-based edges
    assert "k=2" in message
    assert "start +-+-+-+-:" in message
    assert "expected (tau, period) = (5, 1)" in message
    assert "observed (6, 1)" in message


def low_plateau_tables():
    """P5 tables in which every state below 16 climbs by 2 to the fixed
    point 15 and every other state steps to 15, energies rising on the way
    to a plateau of -5: start +---- takes 7 steps, above its bound of
    -5 + n - 1 = -1."""
    succ = np.array([min(x + 2, 15) if x < 16 else 15 for x in range(32)], dtype=np.uint32)
    energy = np.array([x - 20 if x < 16 else -30 for x in range(32)], dtype=np.int16)
    return succ, energy


LOW_PLATEAU_VIOLATION = (
    "k=2 start +----: expected tau <= -1 by the transient bounds, "
    "observed (tau, period) = (7, 1)"
)


def test_bound_violation_names_tree_k_and_start(monkeypatch):
    # the starts' x(1) are 7 states, so the loop runs on them
    monkeypatch.setattr(tables, "chunk_tables", lambda graphs, k: low_plateau_tables())
    with pytest.raises(InternalInvariantError) as exc:
        max_transient_search(path_graph(5), 2)
    assert str(exc.value) == (
        "tree 02020201010202010101 edges=[[1, 2], [2, 3], [3, 4], [4, 5]] "
        + LOW_PLATEAU_VIOLATION
    )


def test_bound_violation_in_a_chunk_names_its_tree(monkeypatch):
    # the same tables for the path among the n = 5 trees, the others' real;
    # the conjecture search names the path as it labels it
    real = tables.chunk_tables
    path_code = canonical_code(path_graph(5)).hex()

    def corrupt_path(graphs, k):
        succ, energy = real(graphs, k)
        i = [canonical_code(g).hex() for g in graphs].index(path_code)
        part = slice(i << 5, (i + 1) << 5)
        path_succ, energy[part] = low_plateau_tables()
        succ[part] = path_succ + np.uint32(i << 5)
        return succ, energy

    monkeypatch.setattr(tables, "chunk_tables", corrupt_path)
    expected = (
        "tree 02020201010202010101 edges=[[1, 2], [1, 4], [2, 3], [4, 5]] "
        + LOW_PLATEAU_VIOLATION
    )
    chunk = tuple(map(bytes, free_tree_levels(5)))
    for levels in (chunk, chunk[::-1]):  # the path first, then last
        with pytest.raises(InternalInvariantError) as exc:
            extremal._search((levels, 2, False))
        assert str(exc.value) == expected
    with pytest.raises(InternalInvariantError) as exc:
        verify_conjecture(5)
    assert str(exc.value) == expected


def outcome(tree, k, res, result):
    """result(tree, k, res), or the message of the invariant error it raises."""
    try:
        return result(tree, k, res)
    except InternalInvariantError as exc:
        return str(exc)


def test_search_selects_as_expand_then_select(monkeypatch):
    # every free tree with n <= 10 at every k in 1..max degree + 1 and at
    # k = n + 3, in chunks of one tree and in chunks of several: the search's
    # step 1 gives what checking and selecting on every start gives
    shapes = set()
    for n in range(1, 11):
        trees = list(enumerate_free_trees(n))
        tops = range(1, max(g.max_degree() for g in trees) + 2)
        for k in (*tops, n + 3):
            chosen = [g for g in trees if k <= g.max_degree() + 1 or k == n + 3]
            levels = tuple(_levels_from_graph(g) for g in chosen)
            for cap in (0, 5 * 12 << 9):  # chunks of 1, and of 5 << (9 - n) trees (2 at n = 10)
                monkeypatch.setattr(tables, "CHUNK_TABLE_BYTES", cap)
                size = tables.chunk_size(n)
                for i in range(0, len(levels), size):
                    part = levels[i : i + size]
                    found = [r for r, _ in extremal._search((part, k, False))]
                    for r in found:
                        g = r.tree
                        assert r == reference_result(g, k, sweep(g, k)), (g.edges, k)
                        shapes.add((len(part) > 1, min(r.tau_max, 2)))
    # chunks of one tree and of several, each with trees where some x(1) is
    # off its cycle (tau_max >= 2), where every x(1) is on its cycle but
    # some start is not (T = 0, tau_max = 1), and where every start is on
    # its cycle (tau_max = 0), as on the identity tables of k = n + 3
    assert shapes == {(multi, top) for multi in (False, True) for top in (0, 1, 2)}


def test_selection_when_every_x1_is_on_its_cycle(monkeypatch):
    # four P4s whose x(1) are all on their cycle (T = 0), 14 of the 32
    # starts: in the first three every start but the fixed ++++ steps to
    # the fixed point ----, so tau_max = 1; the fourth is the identity, where
    # every start is on its cycle and tau_max = 0
    p4 = path_graph(4)
    funnel = np.where(np.arange(16) == 15, 15, 0).astype(np.uint32)
    parts = [funnel] * 3 + [np.arange(16, dtype=np.uint32)]
    succ = np.concatenate([part + np.uint32(i << 4) for i, part in enumerate(parts)])
    monkeypatch.setattr(tables, "chunk_tables", lambda graphs, k: (
        succ, np.zeros(64, dtype=np.int16)))
    real, ran = tables._lockstep, []

    def recording(succ, energy, states, *rest):
        ran.append(states.tolist())
        return real(succ, energy, states, *rest)

    monkeypatch.setattr(tables, "_lockstep", recording)
    results = tables.sweep_chunk([p4] * 4, 1)
    assert ran == [[0, 15, 16, 31, 32, 47, *range(49, 64, 2)]]
    for res in results[:3]:
        assert (res.tau_max, res.attaining.tolist()) == (1, [1, 3, 5, 7, 9, 11, 13])
    assert (results[3].tau_max, results[3].attaining.tolist()) == (0, list(range(1, 16, 2)))
    for res, part in zip(results, parts, strict=True):
        monkeypatch.setattr(tables, "chunk_tables", lambda graphs, k, s=part: (
            s, np.zeros(16, dtype=np.int16)))
        alone = sweep(p4, 1)
        assert_selection_matches_sweep(res, alone, 1)
        assert extremal._result(p4, 1, res) == reference_result(p4, 1, alone)


def test_loop_state_selection_on_random_graphs():
    # seeded random connected graphs: the selection, and whether some start
    # passes the bounds, match the per-start arrays of each graph's own sweep
    rng = random.Random(83)
    for n in range(2, 11):
        graphs = [random_connected_graph(rng, n) for _ in range(4)]
        for k in range(1, max(g.max_degree() for g in graphs) + 2):
            for g, sel in zip(graphs, tables.sweep_chunk(graphs, k), strict=True):
                assert_selection_matches_sweep(sel, sweep(g, k), k)


def test_selection_on_tables_with_negative_energies(monkeypatch):
    # real tables shifted down, so that plateau + n - 1 falls to 1, 0 and
    # below on some cycle: the check on the loop's states may then flag a
    # start on its cycle that meets its bound, and the per-start check
    # decides; both ways give the same result or the same message
    real = tables.chunk_tables

    def shifted(down):
        def build(graphs, k):
            succ, energy = real(graphs, k)
            return succ, energy - np.int16(down)
        return build

    flagged = set()
    for n in range(2, 8):
        trees = list(enumerate_free_trees(n))
        for k in (1, 2, n + 3):
            for down in range(n - 2, n + 2):
                monkeypatch.setattr(tables, "chunk_tables", shifted(down))
                for g, sel in zip(trees, tables.sweep_chunk(trees, k)):
                    found = outcome(g, k, sel, extremal._result)
                    expected = outcome(g, k, sweep(g, k), reference_result)
                    assert found == expected, (g.edges, k, down)
                    bound = np.minimum(sel.loop_plateaus + n - 1, n * (k + 1) - 1)
                    flag = np.any(sel.loop_taus > bound)
                    flagged.add((bool(flag), isinstance(found, str)))
    # the loop's states flag no start, a start over its bound, or only starts
    # that meet theirs
    assert flagged == {(False, False), (True, True), (True, False)}


def test_search_on_one_and_two_vertices():
    for n in (1, 2):
        g = next(iter(enumerate_free_trees(n)))
        for k in (1, 2, n + 3):
            assert max_transient_search(g, k) == reference_result(g, k, sweep(g, k))
