"""Exhaustive maximum-transient search over unlabeled trees at k = 2.

For each tree every initial configuration with vertex 1 fixed at +1 is swept
(global negation covers the other half) and checked against the transient
bounds. verify_conjecture reports the trees attaining the global maximum
transient, with all attaining configurations as ExtremalRecords, against the
expected pattern: tau_max = n - 3 and n/2 extremal trees for even n,
(n-1)/2 - 1 for odd n. Only then are the reported trees' attaining starts,
and their negations, replayed through run_trajectory; for one tree,
max_transient_search replays every start it returns.

Trees are swept in chunks of same-size trees (tables.sweep_chunk). The main
process hands out chunks of canonical level sequences; the process that
searches a chunk (_search, in a pool worker or in-process for one worker)
builds each tree and its canonical code, sweeps the trees the ledger does
not hold and makes their ledger lines. A one-worker search changes no module
state, so searches in separate threads of one process do not interfere. The
main process keeps the trees at the highest tau_max and writes the lines it
receives; results are merged by canonical code, so reports are
byte-identical regardless of worker count.
An append-only JSONL checkpoint ledger makes long runs resumable. A resume
reads it a line at a time and keeps a loaded tree by the same rule as a swept
one, so the main process holds only the loaded codes, which the search skips,
and the trees at the highest tau_max. A final line torn by a kill mid-write
is dropped and truncated away before new results are appended.

generate_extremal_family builds the known extremal family directly, without
searching; cross_validate_generator checks it against the search's report.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import chain, islice
from multiprocessing import Pool
from typing import BinaryIO

import numpy as np

from .dynamics import Configuration, parse_config, run_trajectory
from .errors import ParseError, invariant_violation
from .graphs import Edge, Graph, is_tree
from .tables import SweepResult, chunk_size, sweep, sweep_chunk
from .trees import _graph_from_levels, canonical_code, free_tree_levels

DEFAULT_EXHAUSTIVE_LIMIT = 16
# chunks per pool message; a chunk's tables fill CHUNK_TABLE_BYTES at any n,
# so this is a near-constant amount of work per message
CHUNKS_PER_MESSAGE = 8


@dataclass(frozen=True)
class ExtremalRecord:
    """One (tree, initial configuration) pair attaining the maximum transient."""

    tree_code: str  # canonical code, lowercase hex
    tree_edges: tuple[Edge, ...]  # 0-based, normalized
    config: Configuration
    tau: int
    period: int

    def to_json_dict(self) -> dict:
        return {
            "tree_code": self.tree_code,
            "edges": [[u + 1, v + 1] for u, v in self.tree_edges],
            "config": self.config.to_string(),
            "tau": self.tau,
            "period": self.period,
        }


def config_orbit_code(g: Graph, x: Configuration) -> bytes:
    """Canonical code of a colored tree modulo relabeling AND global negation;
    equal codes mean the configurations are the same up to symmetry."""
    colors = [(x.bits >> v) & 1 for v in range(g.n)]
    inverted = [1 - c for c in colors]
    return min(canonical_code(g, colors), canonical_code(g, inverted))


@dataclass(frozen=True)
class SearchResult:
    """Maximum transient of one tree with every attaining configuration; the
    per-tree result that workers return, the ledger stores and reports read."""

    tree: Graph
    tree_code: str
    k: int
    tau_max: int
    starts: tuple[tuple[int, int], ...]  # (bits, period), vertex 1 at +1, bits increasing

    @property
    def records(self) -> tuple[ExtremalRecord, ...]:
        n, edges = self.tree.n, self.tree.edges
        return tuple(
            ExtremalRecord(self.tree_code, edges, Configuration(n, b), self.tau_max, p)
            for b, p in self.starts
        )

    @property
    def raw_config_count(self) -> int:  # both half-spaces
        return 2 * len(self.starts)

    @property
    def mod_negation_count(self) -> int:  # representatives with vertex 1 at +1
        return len(self.starts)

    @cached_property
    def orbit_codes(self) -> frozenset[bytes]:  # one per class modulo negation + automorphism
        return frozenset(config_orbit_code(self.tree, r.config) for r in self.records)

    @property
    def orbit_count(self) -> int:
        return len(self.orbit_codes)

    def to_json_dict(self) -> dict:
        return {
            "tree_code": self.tree_code,
            "k": self.k,
            "tau_max": self.tau_max,
            "records": [r.to_json_dict() for r in self.records],
            "raw_config_count": self.raw_config_count,
            "mod_negation_count": self.mod_negation_count,
            "orbit_count": self.orbit_count,
        }


def _result(tree: Graph, code: str, k: int, res: SweepResult) -> SearchResult:
    """Step 1 for one tree, given its sweep: every start is checked against
    the transient bounds, and the starts attaining the maximum are kept."""
    bound = np.minimum(res.plateau_energies + tree.n - 1, tree.n * (k + 1) - 1)
    over = np.flatnonzero(res.taus > bound)
    if over.size:
        i = over[0]
        raise invariant_violation(
            tree, k, Configuration(tree.n, int(res.start_bits[i])),
            f"expected tau <= {bound[i]} by the transient bounds, "
            f"observed (tau, period) = ({res.taus[i]}, {res.periods[i]})",
            tree=code,
        )
    tau_max = int(res.taus.max())
    attaining = res.taus == tau_max
    starts = tuple(zip(res.start_bits[attaining].tolist(), res.periods[attaining].tolist()))
    return SearchResult(tree, code, k, tau_max, starts)


_skip: frozenset[str] = frozenset()  # a pool worker's copy of the loaded ledger's codes


def _start_worker(codes: frozenset[str]) -> None:
    """Pool initializer. Besides the codes to skip, it frees one 16 MiB
    array, never touched: glibc raises its mmap threshold to the size of a
    freed mapped block, and its heap-trim threshold to twice that, so the
    sweep's arrays are then reused from the heap. Without it, each message
    boundary lets the heap be trimmed, and at n = 16 the next sweeps fault
    their pages in again (about 400 page faults a tree, a quarter of the
    worker's time)."""
    global _skip
    _skip = codes
    np.empty(16 << 20, dtype=np.uint8)


def _search(
    task: tuple[tuple[bytes, ...], int, bool], skip: frozenset[str] = frozenset()
) -> list[tuple[SearchResult, str | None]]:
    """Step 1 for a chunk of same-n trees, given as level sequences: each
    tree's Graph and canonical code, one sweep for the trees whose codes are
    not in `skip`, then each result, in order, with its ledger line if lines
    are written (else None). The trees are in scope by construction."""
    chunk, k, write_lines = task
    pending = []
    for levels in chunk:
        tree = _graph_from_levels(levels)
        code = canonical_code(tree).hex()
        if code not in skip:
            pending.append((tree, code))
    if not pending:
        return []
    sweeps = sweep_chunk([tree for tree, _ in pending], k)
    results = [_result(tree, code, k, res) for (tree, code), res in zip(pending, sweeps)]
    return [(r, _ledger_line(r) if write_lines else None) for r in results]


def _pool_search(
    task: tuple[tuple[bytes, ...], int, bool],
) -> list[tuple[SearchResult, str | None]]:
    """The pool's entry point: _search, skipping the codes _start_worker set."""
    return _search(task, _skip)


def _replay(result: SearchResult, runs: int | None = None, ledger: bool = False) -> None:
    """Step 2: each stored start, then its negation, must run to (tau_max,
    period) on the scalar engine; `runs` caps the number of runs. A miss
    raises ParseError for a ledger result, else InternalInvariantError."""
    n, negate = result.tree.n, (1 << result.tree.n) - 1  # xor with every bit set
    probes = ((Configuration(n, b ^ flip), p) for b, p in result.starts for flip in (0, negate))
    for x, period in islice(probes, runs):
        run = run_trajectory(result.tree, x, result.k)
        stored, seen = (result.tau_max, period), (run.tau, run.period)
        if seen != stored and ledger:
            raise ParseError(
                f"checkpoint entry for tree {result.tree_code}, start {x}, stores "
                f"(tau, period) = {stored}, but it replays to {seen}"
            )
        if seen != stored:
            raise invariant_violation(
                result.tree, result.k, x,
                f"expected (tau, period) = {stored} from the sweep, observed {seen} from the "
                "scalar run", tree=result.tree_code,
            )


def max_transient_search(
    tree: Graph, k: int, limit: int = DEFAULT_EXHAUSTIVE_LIMIT
) -> SearchResult:
    """Sweep every configuration of a tree (vertex 1 fixed at +1) and report
    the maximum transient with all attaining configurations.

    Every start is checked against the transient bounds, and every returned
    start is replayed through the scalar trajectory path, together with its
    global negation — the raw count being twice the modulo-negation count is
    checked, not assumed. Each error names the tree, k and the start, which
    `kreversible simulate` replays.
    """
    if not is_tree(tree):
        raise ValueError("extremal search is scoped to trees")
    if tree.n > limit:
        raise ValueError(f"n={tree.n} above the exhaustive limit {limit}")
    _replay(result := _result(tree, canonical_code(tree).hex(), k, sweep(tree, k)))
    return result


def expected_tree_count(n: int) -> int:
    """The claimed number of extremal trees: n/2 (n even), (n-1)/2 - 1 (n odd)."""
    return n // 2 if n % 2 == 0 else (n - 1) // 2 - 1


@dataclass(frozen=True)
class ConjectureReport:
    """Aggregate result of the exhaustive search over all trees for one n.

    extremal holds the result of every tree attaining tau_max, by tree code.
    verdict is "pass" iff tau_max = n - 3 and the extremal tree count matches
    expected_tree_count. Configuration counts per extremal tree are reported
    raw, modulo negation, and modulo negation + automorphism, so the counting
    claim can be audited under each reading.
    """

    n: int
    k: int
    tau_max: int
    expected_tau_max: int
    tree_count: int
    expected_tree_count: int
    extremal: tuple[SearchResult, ...]
    configs_per_tree_mod_automorphism: dict[str, int]
    verdict: str

    @property
    def extremal_records(self) -> tuple[ExtremalRecord, ...]:
        """Every extremal record, by tree code and then configuration string."""
        return tuple(
            r for s in self.extremal for r in sorted(s.records, key=lambda r: r.config.to_string())
        )

    @property
    def configs_per_tree_raw(self) -> dict[str, int]:
        return {s.tree_code: s.raw_config_count for s in self.extremal}

    @property
    def configs_per_tree_mod_negation(self) -> dict[str, int]:
        return {s.tree_code: s.mod_negation_count for s in self.extremal}

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "tau_max": self.tau_max,
            "expected_tau_max": self.expected_tau_max,
            "tree_count": self.tree_count,
            "expected_tree_count": self.expected_tree_count,
            "extremal_records": [r.to_json_dict() for r in self.extremal_records],
            "configs_per_tree_raw": self.configs_per_tree_raw,
            "configs_per_tree_mod_negation": self.configs_per_tree_mod_negation,
            "configs_per_tree_mod_automorphism": self.configs_per_tree_mod_automorphism,
            "verdict": self.verdict,
        }


def _ledger_line(result: SearchResult) -> str:
    return json.dumps(
        {
            "n": result.tree.n,
            "k": result.k,
            "code": result.tree_code,
            "edges": [[u + 1, v + 1] for u, v in result.tree.edges],
            "tau_max": result.tau_max,
            "configs": [[Configuration(result.tree.n, b).to_string(), p] for b, p in result.starts],
        },
        sort_keys=True,
    )


def _json_int(value) -> int:
    """A ledger integer field, which must be a JSON integer: no float, bool or
    string stands in for one."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _load_checkpoint(
    ledger: BinaryIO, n: int, k: int, keep: Callable[[SearchResult], None]
) -> frozenset[str]:
    """Read a ledger opened for appending, a line at a time, hand each loaded
    result to `keep` and return the loaded codes, the trees a resume skips.

    A final line without its terminating newline is a mid-write kill: it is
    dropped (that tree is recomputed) and truncated away, so appended lines
    never concatenate onto the torn fragment. Corruption anywhere else raises
    ParseError, and so does a line whose code is not the canonical code of its
    edges, repeats an earlier line's code, or whose first start does not
    replay to its stored (tau_max, period).
    """
    codes: set[str] = set()
    valid_end = ledger.seek(0)  # "a+b" opens at the end of the file
    for index, line_bytes in enumerate(ledger):
        if not line_bytes.endswith(b"\n"):
            break  # the torn tail: nothing follows it
        valid_end += len(line_bytes)
        if not line_bytes.strip():
            continue
        try:
            entry = json.loads(line_bytes.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise ParseError(f"checkpoint line {index + 1} is corrupt") from None
        if not isinstance(entry, dict) or (entry.get("n"), entry.get("k")) != (n, k):
            raise ParseError(f"checkpoint line {index + 1} is not from the run n={n}, k={k}")
        try:  # the inverse of _ledger_line
            for field in ("n", "k"):  # 7.0 and true equal 7 and 1 in the check above
                _json_int(entry[field])
            code, tau_max = entry["code"], _json_int(entry["tau_max"])
            edges = [(_json_int(u) - 1, _json_int(v) - 1) for u, v in entry["edges"]]
            tree = Graph.from_edges(n, edges)
            starts = tuple((parse_config(c, n).bits, _json_int(p)) for c, p in entry["configs"])
            if not starts:  # every tree attains its own maximum somewhere
                raise ValueError("no attaining configuration")
            actual = canonical_code(tree).hex()
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"checkpoint line {index + 1} is malformed ({exc!r})") from None
        if code != actual:  # a wrong code would skip, and so drop, another tree
            raise ParseError(
                f"checkpoint line {index + 1} has code {code}, but its edges have code {actual}"
            )
        if code in codes:  # the program writes each tree once
            raise ParseError(f"checkpoint line {index + 1} repeats tree {code} of an earlier line")
        codes.add(code)
        result = SearchResult(tree, code, k, tau_max, starts)
        _replay(result, runs=1, ledger=True)  # a line that over- or understates its tree
        keep(result)
    ledger.truncate(valid_end)
    return frozenset(codes)


def verify_conjecture(
    n: int,
    k: int = 2,
    workers: int = 1,
    checkpoint_path: str | os.PathLike | None = None,
    limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
) -> ConjectureReport:
    """Exhaustively search every tree on n vertices and build the report.

    Trees are swept in chunks; the scalar replay runs once the search is
    done, on the reported trees only. The verdict compares against the k = 2
    pattern (tau_max = n - 3 and the expected extremal tree count); other k
    values run fine, the verdict then records whether the k = 2 pattern holds.
    """
    if n < 5:
        raise ValueError(f"the transient pattern is scoped to n >= 5, got n={n}")
    if n > limit:
        raise ValueError(f"n={n} above the exhaustive limit {limit}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    extremal: list[SearchResult] = []  # the trees at the highest tau_max so far, no others

    def keep(result: SearchResult) -> None:
        top = extremal[0].tau_max if extremal else -1
        if result.tau_max > top:
            extremal.clear()
        if result.tau_max >= top:
            extremal.append(result)

    with nullcontext() if checkpoint_path is None else open(checkpoint_path, "a+b") as ledger:
        skip = frozenset() if ledger is None else _load_checkpoint(ledger, n, k, keep)
        # level sequences are taken from the generator as chunks are handed
        # out, and the workers build the trees, their codes and ledger lines
        levels = map(bytes, free_tree_levels(n))
        size = chunk_size(n)
        chunks = iter(lambda: tuple(islice(levels, size)), ())
        tasks = ((chunk, k, ledger is not None) for chunk in chunks)

        def collect(batches) -> None:
            for result, line in chain.from_iterable(batches):
                keep(result)
                if ledger is not None:
                    ledger.write(line.encode() + b"\n")
                    ledger.flush()

        if workers == 1:
            collect(_search(task, skip) for task in tasks)
        else:
            with Pool(workers, initializer=_start_worker, initargs=(skip,)) as pool:
                # a message per chunk would cost more than a small chunk's
                # sweep, so each worker takes a batch of chunks at a time
                collect(pool.imap_unordered(_pool_search, tasks, chunksize=CHUNKS_PER_MESSAGE))

    extremal.sort(key=lambda s: s.tree_code)
    for result in extremal:  # only the reported trees meet the scalar engine
        _replay(result, ledger=result.tree_code in skip)
    tau_max = extremal[0].tau_max
    verdict = "pass" if tau_max == n - 3 and len(extremal) == expected_tree_count(n) else "fail"
    return ConjectureReport(
        n=n,
        k=k,
        tau_max=tau_max,
        expected_tau_max=n - 3,
        tree_count=len(extremal),
        expected_tree_count=expected_tree_count(n),
        extremal=tuple(extremal),
        configs_per_tree_mod_automorphism={s.tree_code: s.orbit_count for s in extremal},
        verdict=verdict,
    )


def _ordered_pair(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


def generate_extremal_family(n: int) -> list[tuple[Graph, Configuration]]:
    """Build the extremal family directly, without searching.

    Tree 1 is the path v_1..v_{n-1} with the extra leaf v_n attached at
    v_{n-2}; each odd position i = 3, 5, ... up to n - 3 swaps the edge
    (v_i, v_{i-1}) for (v_{i-1}, v_{i+1}) and emits the tree; for even n one
    final swap replaces (v_{n-2}, v_n) with (v_{n-3}, v_n). Every tree is
    paired with the alternating configuration (+1 at odd positions).
    """
    if n < 5:
        raise ValueError(f"the extremal family is defined for n >= 5, got n={n}")
    current: set[Edge] = {(i, i + 1) for i in range(n - 2)}
    current.add((n - 3, n - 1))
    config = Configuration.from_states([1 if i % 2 == 0 else -1 for i in range(n)])
    family = [(Graph.from_edges(n, sorted(current)), config)]
    for i in range(3, n - 2):  # positions are 1-based in the construction
        if i % 2 == 1:
            current.remove(_ordered_pair(i - 1, i - 2))
            current.add(_ordered_pair(i - 2, i))
            family.append((Graph.from_edges(n, sorted(current)), config))
        if i == n - 3 and n % 2 == 0:
            current.remove(_ordered_pair(i, i + 2))
            current.add(_ordered_pair(i - 1, i + 2))
            family.append((Graph.from_edges(n, sorted(current)), config))
    return family


@dataclass(frozen=True)
class CrossValidation:
    """Comparison of the direct family against the brute-force search.

    Checks: (a) every family pair simulates to tau = n - 3 at k = 2;
    (b) the family's canonical codes equal the extremal tree codes;
    (c) per tree, the family configuration is itself extremal and every
    extremal configuration is equivalent to it modulo negation + automorphism.
    """

    n: int
    expected_tau: int
    all_reach_bound: bool
    family_codes: tuple[str, ...]
    extremal_codes: tuple[str, ...]
    codes_match: bool
    configs_match: bool
    mismatches: tuple[str, ...]
    verdict: str

    def to_json_dict(self) -> dict:
        return asdict(self)


def cross_validate_generator(report: ConjectureReport) -> CrossValidation:
    """Validate generate_extremal_family against the exhaustive search
    report of its n at k = 2. Failures land in the verdict, not in
    exceptions."""
    if report.k != 2:
        raise ValueError(f"the extremal family is claimed for k = 2, the report has k={report.k}")
    n = report.n
    family = generate_extremal_family(n)
    mismatches: list[str] = []

    for index, (tree, x) in enumerate(family, start=1):
        tau = run_trajectory(tree, x, 2).tau
        if tau != n - 3:
            mismatches.append(f"family tree {index} reaches tau={tau}, expected {n - 3}")
    all_reach = not mismatches

    family_by_code: dict[str, tuple[Graph, Configuration]] = {}
    for tree, x in family:
        code = canonical_code(tree).hex()
        if code in family_by_code:
            mismatches.append(f"family emits isomorphic duplicates ({code})")
        family_by_code[code] = (tree, x)
    extremal = {found.tree_code: found for found in report.extremal}
    family_codes = tuple(sorted(family_by_code))
    extremal_codes = tuple(sorted(extremal))
    codes_match = family_codes == extremal_codes and len(family_by_code) == len(family)
    missing = set(extremal_codes) - set(family_codes)
    extra = set(family_codes) - set(extremal_codes)
    if missing:
        mismatches.append(f"extremal trees not generated: {sorted(missing)}")
    if extra:
        mismatches.append(f"generated trees not extremal: {sorted(extra)}")

    configs_match = True
    for code, (tree, x) in sorted(family_by_code.items()):
        found = extremal.get(code)
        if found is None:
            configs_match = False
            continue  # already reported as a code mismatch
        # records live on the enumeration labeling, the family tree on its
        # own; orbit codes are the labeling-invariant comparison
        if found.orbit_codes != {config_orbit_code(tree, x)}:
            configs_match = False
            mismatches.append(
                f"tree {code} has extremal configurations outside the family orbit"
            )

    verdict = "pass" if all_reach and codes_match and configs_match else "fail"
    return CrossValidation(
        n=n,
        expected_tau=n - 3,
        all_reach_bound=all_reach,
        family_codes=family_codes,
        extremal_codes=extremal_codes,
        codes_match=codes_match,
        configs_match=configs_match,
        mismatches=tuple(mismatches),
        verdict=verdict,
    )
