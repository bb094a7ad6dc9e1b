"""Acceptance gate: one test per criterion, each printing a pass/fail line
in the terminal summary (see conftest.pytest_terminal_summary).

1. exact energy identity E = E' and per-step monotonicity on >= 10^4
   randomized instances, every step of every trajectory
2. period <= 2 everywhere (random suite, exhaustive sweeps, extremal records)
3. all closed-form transient bounds hold on every trajectory
4. tree maximum energy is n*k, attained exactly by the two monochromatic
   configurations, for every tree class n <= 10 and every k
5. exhaustive verification of the tau_max = n - 3 pattern for n = 5..13
6. the direct generator reproduces the known extremal families bit-exactly
   and cross-validates against the exhaustive search
7. the level-sequence enumerator matches the independent Prüfer oracle
8. reports are byte-identical across worker counts and kill/resume

Criteria stated over predictions that exhaustive search contradicts at n = 5
(one extremal tree predicted, two exist; the generated family misses one)
are split out as strict xfails so the gate stays honest.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from kreversible import (
    canonical_code,
    cross_validate_generator,
    delta_energy_breakdown,
    enumerate_free_trees,
    expected_tree_count,
    generate_extremal_family,
    is_tree,
    sweep,
)

from conftest import degree_ordered_sequences, max_energy, prufer_oracle_trees, record_acceptance


@contextmanager
def criterion(number: int):
    info = {"detail": "ok"}
    try:
        yield info
    except BaseException as exc:
        first_line = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        record_acceptance(number, "FAIL", first_line[:200])
        raise
    record_acceptance(number, "PASS", info["detail"])


@pytest.fixture(scope="module")
def small_trees():
    """Every isomorphism class of trees on 2..10 vertices."""
    trees = []
    for n in range(2, 11):
        trees.extend(enumerate_free_trees(n))
    return trees


@pytest.fixture(scope="module")
def tree_sweeps(small_trees):
    """Exhaustive half-space sweeps of every small tree at every k."""
    return [
        (g, k, sweep(g, k)) for g in small_trees for k in range(1, g.max_degree() + 1)
    ]


def test_criterion_1_energy_identity_and_monotonicity(random_suite):
    instances, build_elapsed = random_suite
    with criterion(1) as info:
        start = time.perf_counter()
        steps = 0
        for g, k, traj in instances:
            for now, nxt in zip(traj.trace, traj.trace[1:]):
                b = delta_energy_breakdown(g, now.config, k)
                assert b.energy_aux == b.energy == now.energy
                delta = sum(b.per_vertex_delta)
                assert delta >= 0
                assert now.energy + delta == nxt.energy
                steps += 1
        elapsed = build_elapsed + time.perf_counter() - start
        assert len(instances) >= 10_000
        assert elapsed < 60.0
        info["detail"] = (
            f"E = E' and dE >= 0 exact at {steps} steps across "
            f"{len(instances)} random instances in {elapsed:.1f}s"
        )


def test_criterion_2_period_at_most_two(random_suite, tree_sweeps, conjecture_reports):
    instances, _ = random_suite
    reports, _, _ = conjecture_reports
    with criterion(2) as info:
        assert all(traj.period in (1, 2) for _, _, traj in instances)
        swept = 0
        for _, _, res in tree_sweeps:
            assert np.isin(res.periods, (1, 2)).all()
            swept += len(res.periods)
        records = [r for report in reports.values() for r in report.extremal_records]
        assert all(r.period in (1, 2) for r in records)
        info["detail"] = (
            f"period in {{1,2}} for {len(instances)} random trajectories, "
            f"{swept} exhaustively swept starts (all trees n<=10, all k), "
            f"and {len(records)} extremal records"
        )


def test_criterion_3_transient_bounds(random_suite, tree_sweeps):
    instances, _ = random_suite
    with criterion(3) as info:
        for g, k, traj in instances:
            n, dmax = g.n, g.max_degree()
            assert traj.tau <= traj.plateau_energy + n - 1
            assert traj.tau <= n * (dmax + 1) - 1
            if 2 * k > dmax:
                assert traj.tau <= n * (k + 1) - 1
            if is_tree(g):
                assert traj.tau <= n * (k + 1) - 1
                assert traj.plateau_energy <= n * k
        for g, k, res in tree_sweeps:
            n, dmax = g.n, g.max_degree()
            assert (res.taus <= res.plateau_energies + n - 1).all()
            assert (res.taus <= n * (dmax + 1) - 1).all()
            assert (res.taus <= n * (k + 1) - 1).all()
            assert (res.plateau_energies <= n * k).all()
        info["detail"] = (
            f"plateau+n-1, n(max_degree+1)-1, conditional n(k+1)-1, and tree "
            f"bounds hold on {len(instances)} random trajectories and "
            f"{len(tree_sweeps)} exhaustive (tree, k) sweeps"
        )


def test_criterion_4_tree_max_energy(small_trees):
    with criterion(4) as info:
        start = time.perf_counter()
        cases = 0
        for tree in small_trees:
            full = (1 << tree.n) - 1
            for k in range(1, tree.max_degree() + 1):
                best, attaining = max_energy(tree, k)
                assert best == tree.n * k
                assert sorted(x.bits for x in attaining) == [0, full]
                cases += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        info["detail"] = (
            f"max energy n*k attained exactly by the 2 monochromatic "
            f"configurations in all {cases} (tree, k) cases "
            f"({len(small_trees)} classes, n=2..10; n=1 has no valid k) "
            f"in {elapsed:.1f}s"
        )


def test_criterion_5_max_transient_pattern(conjecture_reports):
    reports, elapsed, workers = conjecture_reports
    with criterion(5) as info:
        for n, report in reports.items():
            assert report.k == 2
            assert report.tau_max == n - 3
        for n in range(6, 14):
            report = reports[n]
            assert report.verdict == "pass"
            assert report.tree_count == expected_tree_count(n)
            assert all(
                v == 1 for v in report.configs_per_tree_mod_automorphism.values()
            )
        # exhaustive truth at n = 5, pinned: two extremal trees (a path and a
        # spider), not the predicted one; the spider carries two config orbits
        five = reports[5]
        assert five.verdict == "fail"
        assert five.tree_count == 2
        assert sorted(five.configs_per_tree_mod_automorphism.values()) == [1, 2]
        # the literal "unique modulo negation" reading is contradicted by the
        # oracle; uniqueness holds modulo negation + automorphism (n >= 6)
        contradicted = sorted(
            n
            for n, report in reports.items()
            if any(v != 1 for v in report.configs_per_tree_mod_negation.values())
        )
        assert contradicted
        budget = 120.0 if workers >= 8 else 600.0
        assert elapsed < budget
        info["detail"] = (
            f"tau_max = n-3 for all n=5..13 in {elapsed:.1f}s with {workers} "
            f"worker(s); tree counts match the prediction for n>=6, n=5 truth "
            f"is 2 trees (predicted 1: strict xfail); config uniqueness holds "
            f"modulo negation+automorphism for n>=6, while the literal "
            f"modulo-negation reading is contradicted at n={contradicted}"
        )


@pytest.mark.xfail(
    strict=True,
    reason="exhaustive truth at n=5 is two extremal trees; the predicted count is 1",
)
def test_criterion_5_predicted_n5_tree_count(conjecture_reports):
    reports, _, _ = conjecture_reports
    assert reports[5].tree_count == expected_tree_count(5) == 1


# extremal families drawn with 1-based labels; shaded/odd vertices are +1
FAMILY_N8_EDGES = [
    ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 8)),
    ((1, 2), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (6, 8)),
    ((1, 2), (2, 4), (3, 4), (4, 6), (5, 6), (6, 7), (6, 8)),
    ((1, 2), (2, 4), (3, 4), (4, 6), (5, 6), (5, 8), (6, 7)),
]
FAMILY_N9_EDGES = [
    ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (7, 9)),
    ((1, 2), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (7, 9)),
    ((1, 2), (2, 4), (3, 4), (4, 6), (5, 6), (6, 7), (7, 8), (7, 9)),
]


def one_based(g) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((u + 1, v + 1) for u, v in g.edges))


def test_criterion_6_generator_goldens_and_cross_validation(conjecture_reports):
    reports, _, _ = conjecture_reports
    with criterion(6) as info:
        fam8 = generate_extremal_family(8)
        assert [one_based(g) for g, _ in fam8] == FAMILY_N8_EDGES
        assert [x.to_string() for _, x in fam8] == ["+-+-+-+-"] * 4
        fam9 = generate_extremal_family(9)
        assert [one_based(g) for g, _ in fam9] == FAMILY_N9_EDGES
        assert [x.to_string() for _, x in fam9] == ["+-+-+-+-+"] * 3
        for n in range(6, 14):
            cv = cross_validate_generator(reports[n])
            assert cv.verdict == "pass", cv.mismatches
        cv5 = cross_validate_generator(reports[5])
        assert cv5.verdict == "fail"
        assert cv5.all_reach_bound
        assert len(cv5.mismatches) == 2
        info["detail"] = (
            "n=8 and n=9 families reproduced bit-exactly (4 and 3 trees, "
            "alternating configuration); cross-validation passes for n=6..13; "
            "n=5 honestly fails (the family emits the spider but misses the "
            "5-path and the spider's second orbit: strict xfail)"
        )


@pytest.mark.xfail(
    strict=True,
    reason="the direct family misses the second extremal tree that exists at n=5",
)
def test_criterion_6_predicted_n5_cross_validation(conjecture_reports):
    reports, _, _ = conjecture_reports
    assert cross_validate_generator(reports[5]).verdict == "pass"


def test_criterion_7_enumeration_matches_prufer_oracle():
    with criterion(7) as info:
        start = time.perf_counter()
        counts = [sum(1 for _ in enumerate_free_trees(1))]
        for n in range(2, 10):
            oracle_codes = {canonical_code(t) for t in prufer_oracle_trees(n)}
            enum_codes = {canonical_code(t) for t in enumerate_free_trees(n)}
            assert enum_codes == oracle_codes
            counts.append(len(oracle_codes))
        decoded = sum(1 for n in range(2, 10) for _ in degree_ordered_sequences(n))
        elapsed = time.perf_counter() - start
        info["detail"] = (
            f"canonical-code sets equal for n=2..9; oracle-derived class "
            f"counts n=1..9: {counts} (n=1 by direct enumeration) "
            f"in {elapsed:.1f}s from {decoded} decoded Prüfer sequences"
        )


def test_criterion_8_determinism_and_resumability(tmp_path):
    with criterion(8) as info:
        base = [
            sys.executable, "-m", "kreversible",
            "conjecture", "--n", "10", "--format", "json",
        ]
        single = subprocess.run(
            base + ["--workers", "1"], capture_output=True, text=True, timeout=300
        )
        assert single.returncode == 0
        assert single.stdout
        pooled = subprocess.run(
            base + ["--workers", "8"], capture_output=True, text=True, timeout=300
        )
        assert pooled.returncode == 0
        assert pooled.stdout == single.stdout

        # kill a checkpointed run mid-flight (or, if it finishes first,
        # truncate its ledger to a partial prefix), tear the next line in
        # half as a mid-write kill would, then resume
        ledger = tmp_path / "ledger.jsonl"
        argv = base + ["--workers", "1", "--checkpoint", str(ledger)]
        proc = subprocess.Popen(
            argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        deadline = time.time() + 60
        while time.time() < deadline and proc.poll() is None:
            if ledger.exists() and ledger.read_text().count("\n") >= 20:
                break
            time.sleep(0.002)
        killed = proc.poll() is None
        if killed:
            proc.kill()
        proc.wait()

        lines = ledger.read_text().splitlines()
        assert lines, "the checkpointed run wrote no ledger lines"
        keep = min(20, len(lines) - 1)
        torn = lines[keep][: max(1, len(lines[keep]) // 2)]
        ledger.write_text("".join(line + "\n" for line in lines[:keep]) + torn)

        resumed = subprocess.run(argv, capture_output=True, text=True, timeout=300)
        assert resumed.returncode == 0
        assert resumed.stdout == single.stdout
        healed = ledger.read_text().splitlines()
        assert len(healed) == sum(1 for _ in enumerate_free_trees(10))
        assert all(json.loads(line) for line in healed)
        info["detail"] = (
            f"n=10 reports byte-identical ({len(single.stdout)} bytes) for 1 "
            f"worker, 8 workers, and kill/resume (mid-run kill "
            f"{'landed' if killed else 'raced; ledger truncated instead'}, "
            f"resumed from {keep} whole lines plus a torn line)"
        )
