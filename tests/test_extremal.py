from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import pickle

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
from kreversible import extremal, tables
from kreversible.extremal import ExtremalRecord, SearchResult
from kreversible.serialize import CSV_COLUMNS, canonical_json, edges_to_text, records_to_csv
from kreversible.trees import _graph_from_levels, canonical_code, free_tree_levels


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
    for bad in (
        "{ not json", '{"n": 6, "k": 2, "code": "ab"}', "[1, 2]", json.dumps(claims_other_tree),
        json.dumps(no_configs), json.dumps(float_n), json.dumps(fractional_tau),
        json.dumps(string_tau), json.dumps(string_period), json.dumps(bool_endpoint),
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
    from kreversible.extremal import _pool_search

    assert pickle.loads(pickle.dumps(_pool_search)) is _pool_search
    chunk = (bytes(range(5)), *map(bytes, free_tree_levels(5)))  # a 5-path rooted at an end first
    trees = [_graph_from_levels(levels) for levels in chunk]
    assert trees[0] == path_graph(5)
    for write_lines in (False, True):
        out = _pool_search(pickle.loads(pickle.dumps((chunk, 2, write_lines))))
        assert all(isinstance(r, SearchResult) for r, _ in out)
        assert [(r.tree, r.tree_code) for r, _ in out] == [
            (tree, canonical_code(tree).hex()) for tree in trees
        ]
        lines = [extremal._ledger_line(r) if write_lines else None for r, _ in out]
        assert [line for _, line in out] == lines
    assert out[0][0].tau_max == 2
    # outside a pool worker the skip set is an argument
    skip = frozenset({out[-1][0].tree_code})
    kept = [r for r, _ in extremal._search((chunk, 2, False), skip)]
    assert kept == [r for r, _ in out if r.tree_code not in skip]


def test_canonical_code_once_per_enumerated_tree(monkeypatch):
    calls = []
    real = extremal.canonical_code

    def counting(g, colors=None):
        calls.append(colors)
        return real(g, colors)

    monkeypatch.setattr(extremal, "canonical_code", counting)
    report = verify_conjecture(9)
    trees = sum(1 for _ in enumerate_free_trees(9))
    assert sum(colors is None for colors in calls) == trees
    # config_orbit_code codes each reported configuration and its negation
    assert len(calls) == trees + 2 * len(report.extremal_records)


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
    assert len(calls) == len(report.extremal_records)


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


def test_bound_violation_names_tree_k_and_start(monkeypatch):
    real = extremal.sweep

    def inflated(g, k):
        res = real(g, k)
        return dataclasses.replace(res, taus=res.taus + 100)

    monkeypatch.setattr(extremal, "sweep", inflated)
    with pytest.raises(InternalInvariantError) as exc:
        max_transient_search(path_graph(5), 2)
    message = str(exc.value)
    assert canonical_code(path_graph(5)).hex() in message
    assert "k=2 start +----:" in message  # the first swept start
    assert "expected tau <= " in message
    assert "observed (tau, period) = (100, 1)" in message
