from __future__ import annotations

import csv
import hashlib
import importlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from kreversible import (
    canonical_code,
    extremal,
    generate_extremal_family,
    parse_edge_list,
    verify_conjecture,
)
from kreversible.cli import main
from kreversible.serialize import CSV_COLUMNS, canonical_json

from conftest import FIG_TOP_TREE_TEXT, P3_TEXT

P5_TEXT = "n=5\n1 2\n2 3\n3 4\n4 5\n"


@pytest.fixture()
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text(P3_TEXT)
    return str(path)


@pytest.fixture()
def p5_file(tmp_path):
    path = tmp_path / "p5.txt"
    path.write_text(P5_TEXT)
    return str(path)


@pytest.fixture()
def top_tree_file(tmp_path):
    path = tmp_path / "top.txt"
    path.write_text(FIG_TOP_TREE_TEXT)
    return str(path)


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_text(capsys, p3_file):
    code, out, err = run_cli(capsys, "simulate", "--graph", p3_file, "--config", "+-+", "--k", "1")
    assert code == 0
    assert out == "tau=0 period=2 E_final=1\n"
    assert err == ""


def test_simulate_default_k_is_two(capsys, p3_file):
    code, out, _ = run_cli(capsys, "simulate", "--graph", p3_file, "--config", "+-+")
    assert code == 0
    assert out == "tau=1 period=1 E_final=6\n"


def test_simulate_trace_text(capsys, p3_file):
    code, out, _ = run_cli(
        capsys, "simulate", "--graph", p3_file, "--config", "+-+", "--k", "1", "--trace"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "tau=0 period=2 E_final=1"
    trace = [json.loads(line) for line in lines[:-1]]
    assert [list(entry) for entry in trace] == [["t", "x", "E"]] * 3
    assert [entry["x"] for entry in trace] == ["+-+", "-+-", "+-+"]
    assert [entry["E"] for entry in trace] == [1, 1, 1]


def test_simulate_json(capsys, top_tree_file):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--graph", top_tree_file, "--config", "+-+-+-+-", "--format", "json",
        "--trace",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"] == 5
    assert payload["period"] == 1
    assert len(payload["trace"]) == payload["tau"] + payload["period"] + 1
    assert payload["trace"][-1]["x"] == "+++++++-"


def test_bounds_text(capsys, top_tree_file):
    code, out, _ = run_cli(capsys, "bounds", "--graph", top_tree_file)
    assert code == 0
    assert out == (
        "n=8 k=2 max_degree=3 general_bound=31 high_k_bound=23 "
        "tree_bound=23 tree_max_energy=16\n"
    )


def test_bounds_text_with_config(capsys, top_tree_file):
    code, out, _ = run_cli(
        capsys, "bounds", "--graph", top_tree_file, "--config", "+-+-+-+-"
    )
    assert code == 0
    assert out.endswith("plateau_bound=21\n")


def test_bounds_skips_inapplicable_fields(capsys, tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text("n=3\n1 2\n1 3\n2 3\n")
    code, out, _ = run_cli(capsys, "bounds", "--graph", str(path), "--k", "1")
    assert code == 0
    assert out == "n=3 k=1 max_degree=2 general_bound=8\n"


def test_bounds_json(capsys, top_tree_file):
    code, out, _ = run_cli(capsys, "bounds", "--graph", top_tree_file, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["general_bound"] == 31
    assert payload["plateau_bound"] is None


def test_energy_trace_lines(capsys, p3_file):
    code, out, _ = run_cli(capsys, "energy-trace", "--graph", p3_file, "--config", "+-+")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    keys = ["t", "x", "E", "E_aux", "s1", "a_size", "b_size", "c_size", "delta"]
    assert all(list(entry) == keys for entry in lines)
    assert [entry["E"] for entry in lines] == [2, 6, 6]
    assert lines[0]["s1"] == [2]
    assert lines[0]["c_size"] == 2
    for entry in lines:
        assert entry["E_aux"] == entry["E"]
    for now, nxt in zip(lines, lines[1:]):
        assert now["E"] + now["delta"] == nxt["E"]


# sha256 of stdout and the exit code, captured from an earlier release, for
# every command and format: energy-trace reads every field of the energy
# bookkeeping, simulate --trace the scalar engine's trace, and the n = 5
# conjecture and validate-generator runs exit 3 with their mismatch lines
STDOUT_SHA256 = [
    ("p3", ["energy-trace", "--config", "+-+", "--k", "1"], 0,
     "e828f50ea191eae514f6764c844b740ad8ce3ded2c190e5166d7e8921ffeb481"),
    ("p3", ["energy-trace", "--config", "+-+", "--k", "2"], 0,
     "5aabf5a2a7f4aafa88960ab624d3b975aa5decaf184e33f639ddde46ad854033"),
    ("p3", ["energy-trace", "--config", "+-+", "--k", "3"], 0,
     "827f9fcf8eae899c90fe9deddf3aaf441592b40a43ede194930b89ab6af8ce3f"),
    ("top", ["energy-trace", "--config", "+-+-+-+-", "--k", "1"], 0,
     "95c65fcb7028a5dfe1c487fd8b3974e4eea8394159575f04bf259787ce8f50e0"),
    ("top", ["energy-trace", "--config", "+-+-+-+-", "--k", "2"], 0,
     "6998b75de757d8902e6dbcdd7a161b58355136220377fac13aa04fa4ee7800c5"),
    ("top", ["energy-trace", "--config", "+-+-+-+-", "--k", "3"], 0,
     "9cbd377098dddd3619a3721302e2dd24b6d4dfeaa860450bb5ff9b79a5e8810f"),
    ("top", ["simulate", "--config", "+-+-+-+-", "--trace", "--format", "json"], 0,
     "71c062b26436ae0cdcb76043a93625ac7020249abede61a1a754da664d8017f6"),
    ("top", ["simulate", "--config", "+-+-+-+-", "--trace"], 0,
     "b7680307881c65cc0be713ce6f15e67083a4abda4b20b5ce33db14398a5d2203"),
    ("p3", ["simulate", "--config", "+-+", "--k", "1", "--trace"], 0,
     "bec5e0bdee9d7563e992b70ca6031b51c162ebad081f2926baa4c6ab7de38902"),
    ("top", ["bounds", "--format", "json", "--config", "+-+-+-+-"], 0,
     "8987917a77c9f2dbfeefda0c9550396e047f2c804a946f4628c86d8cb282ed53"),
    ("top", ["simulate", "--config", "+-+-+-+-"], 0,
     "68e7994e9904ffc7451a41b4f00460ffccd4d6f59806a8628766c55cfc3f841a"),
    ("top", ["simulate", "--config", "+-+-+-+-", "--format", "json"], 0,
     "f0b30ce09b8cd7216364190c8f9014b9db2f57c8bc1cb21454c5cc261d7fe273"),
    ("pendant", ["bounds", "--k", "1"], 0,
     "35c02d72d0bc89402762993fa1c7b31e9ce731735e4467ffe89981627398c09e"),
    ("top", ["search"], 0,
     "ea350f7dbeae00ac245f0704025c701976b9e1311c2609e8cb77fe7ed73b67e1"),
    ("top", ["search", "--format", "json"], 0,
     "46620bd01b2c36d3da8cd37e68cef6d74083b1d7f570bf5599f4766ac7fd8abc"),
    ("top", ["search", "--format", "csv"], 0,
     "ce4fa449cbf43c3859e2dc067427d09a303f0ef5a9b411c75ce46f6dcc7ddc70"),
    (None, ["conjecture", "--n", "8"], 0,
     "44d6e62f38f09f25a52b1f1bc4a09de8d63bef61b517f9295a3cba39e575bd1e"),
    (None, ["conjecture", "--n", "8", "--format", "json"], 0,
     "6aaca0f1f39a693828fb057df16bc1092585e8e5f2660cd769050da6299d6994"),
    (None, ["conjecture", "--n", "8", "--format", "csv"], 0,
     "90dea01b7c6776d02210825750e63c16b20358c4626e671ec4169435bffef870"),
    (None, ["conjecture", "--n", "5"], 3,
     "db0c5d60e7c5d532816604bc1ffaae10da3aa97db8280072545c1c0516584975"),
    (None, ["generate", "--n", "9"], 0,
     "f068158cef0b80c9f3122289b6afa293c1c90b995efddabbc1141b564eaf4efa"),
    (None, ["generate", "--n", "9", "--format", "json"], 0,
     "99c61d69fbcccdf049f293ba19c64f10e86aaec99b0df47d0c4aef1fa550d83b"),
    (None, ["generate", "--n", "9", "--format", "csv"], 0,
     "dbc2e6f657b72f3907b2187bdce2a1f2507857a778dcdce8e6682f95797f997d"),
    (None, ["generate", "--n", "9", "--verify"], 0,
     "6386b314edf5fcbaed5c4e039ee94550922d7bdee1579ba773ecfa4bda323b3a"),
    (None, ["validate-generator", "--n", "5"], 3,
     "b468cfa498bb4cc113cf4dc1550c6d89c583da475a74eb9c3ce5c4398f02c564"),
    (None, ["validate-generator", "--n", "5", "--format", "json"], 3,
     "e810bf5f27c6afd8dbe890565065b9786a0cef3bea2da334fd007a65ba1af6ff"),
]


def test_outputs_match_goldens(capsys, tmp_path, p3_file, top_tree_file):
    pendant = tmp_path / "pendant.txt"  # a triangle with a pendant vertex: not a tree
    pendant.write_text("n=4\n1 2\n2 3\n1 3\n3 4\n")
    files = {"p3": p3_file, "top": top_tree_file, "pendant": str(pendant)}
    for graph, (command, *options), exit_code, digest in STDOUT_SHA256:
        graph_args = [] if graph is None else ["--graph", files[graph]]
        code, out, err = run_cli(capsys, command, *graph_args, *options)
        assert (code, err) == (exit_code, ""), [command, *options]
        assert hashlib.sha256(out.encode()).hexdigest() == digest, [command, *options]


def test_search_text(capsys, top_tree_file):
    code, out, _ = run_cli(capsys, "search", "--graph", top_tree_file)
    assert code == 0
    lines = out.splitlines()
    assert "tau_max=5" in lines[0]
    assert "raw_configs=4" in lines[0]
    assert "mod_negation=2" in lines[0]
    assert "orbits=1" in lines[0]
    assert lines[1:] == ["config=+-+-+-+- period=1", "config=+-+-+--+ period=1"]


def test_search_csv(capsys, p5_file):
    code, out, _ = run_cli(capsys, "search", "--graph", p5_file, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 2
    tree_code = canonical_code(parse_edge_list(P5_TEXT)).hex()
    assert rows[1][0] == tree_code
    assert rows[1][1] == "1-2;2-3;3-4;4-5"
    assert rows[1][2] == "+-+-+"
    assert rows[1][3] == "2"
    assert rows[1][4] in {"1", "2"}


def test_search_json(capsys, p5_file):
    code, out, _ = run_cli(capsys, "search", "--graph", p5_file, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["tau_max"] == 2
    assert payload["mod_negation_count"] == 1
    assert payload["records"][0]["edges"] == [[1, 2], [2, 3], [3, 4], [4, 5]]


def test_conjecture_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--n", "6")
    assert code == 0
    assert "verdict=pass" in out.splitlines()[0]

    code, out, _ = run_cli(capsys, "conjecture", "--n", "5")
    assert code == 3
    assert "verdict=fail" in out.splitlines()[0]

    code, _, err = run_cli(capsys, "conjecture", "--n", "4")
    assert code == 2
    assert err.startswith("error:")


def test_conjecture_json_matches_library_and_is_deterministic(capsys):
    code, first, _ = run_cli(capsys, "conjecture", "--n", "6", "--format", "json")
    assert code == 0
    code, second, _ = run_cli(capsys, "conjecture", "--n", "6", "--format", "json")
    assert code == 0
    assert first == second
    assert first == canonical_json(verify_conjecture(6).to_json_dict()) + "\n"


def test_conjecture_csv(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--n", "6", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) - 1 == len(verify_conjecture(6).extremal_records)
    assert all(row[3] == "3" for row in rows[1:])  # tau = n - 3


def test_conjecture_checkpoint_flag(capsys, tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    code, first, _ = run_cli(
        capsys, "conjecture", "--n", "6", "--checkpoint", str(ledger), "--format", "json"
    )
    assert code == 0
    assert ledger.exists()
    code, second, _ = run_cli(
        capsys, "conjecture", "--n", "6", "--checkpoint", str(ledger), "--format", "json"
    )
    assert code == 0
    assert first == second


def test_generate_verify(capsys):
    code, out, _ = run_cli(capsys, "generate", "--n", "8", "--verify")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(line.endswith("tau=5 period=1") for line in lines)
    assert lines[0].startswith("tree 1: edges=1-2;2-3;3-4;4-5;5-6;6-7;6-8 config=+-+-+-+-")


def test_generate_json(capsys):
    code, out, _ = run_cli(capsys, "generate", "--n", "5", "--format", "json", "--verify")
    assert code == 0
    items = json.loads(out)
    assert len(items) == 1
    assert items[0]["edges"] == [[1, 2], [2, 3], [3, 4], [3, 5]]
    assert items[0]["config"] == "+-+-+"
    assert items[0]["tau"] == 2


def test_generate_csv_always_simulates(capsys):
    code, out, _ = run_cli(capsys, "generate", "--n", "6", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 4
    assert all(row[3] == "3" for row in rows[1:])


def test_validate_generator_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "validate-generator", "--n", "6")
    assert code == 0
    assert out.splitlines()[0].endswith(
        "all_reach_bound=true codes_match=true configs_match=true verdict=pass"
    )

    code, out, _ = run_cli(capsys, "validate-generator", "--n", "5")
    assert code == 3
    lines = out.splitlines()
    assert lines[0].endswith("verdict=fail")
    assert sum(1 for line in lines if line.startswith("mismatch: ")) == 2


def test_validate_generator_json(capsys):
    code, out, _ = run_cli(capsys, "validate-generator", "--n", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["family_codes"] == payload["extremal_codes"]


def test_orbit_codes_computed_once_per_record(capsys, monkeypatch, top_tree_file):
    # the header's orbit count, the payload and the cross-validation all
    # read one cached set of orbit codes per result
    records = len(verify_conjecture(8).extremal_records)
    calls = []
    real = extremal.config_orbit_code
    monkeypatch.setattr(extremal, "config_orbit_code", lambda g, x: calls.append(x) or real(g, x))
    code, out, _ = run_cli(capsys, "search", "--graph", top_tree_file, "--format", "json")
    assert code == 0
    assert len(calls) == json.loads(out)["mod_negation_count"] == 2
    calls.clear()
    code, _, _ = run_cli(capsys, "validate-generator", "--n", "8")
    assert code == 0
    assert len(calls) == records + len(generate_extremal_family(8))


def test_usage_errors_exit_two(capsys, p3_file):
    code, _, err = run_cli(capsys, "simulate", "--graph", "/nonexistent/file", "--config", "+-+")
    assert code == 2 and "error:" in err

    code, _, err = run_cli(capsys, "simulate", "--graph", p3_file, "--config", "+x+")
    assert code == 2 and "error:" in err

    code, _, err = run_cli(capsys, "simulate", "--graph", p3_file, "--config", "+-+", "--k", "0")
    assert code == 2

    path_err = run_cli(capsys, "energy-trace", "--graph", p3_file, "--config", "++++")
    assert path_err[0] == 2

    code, _, err = run_cli(capsys, "search", "--graph", p3_file.replace("p3", "missing"))
    assert code == 2


def test_k_beyond_int64_tables_exits_two(capsys, p5_file):
    huge = 1 << 62
    largest = (2**63 - 1) // 5 - 1  # the largest k with 5 * (k + 1) in the int64 range
    for k in (huge, largest + 1):
        code, out, err = run_cli(capsys, "search", "--graph", p5_file, "--k", str(k))
        assert (code, out) == (2, "")
        assert err == f"error: n*(k+1) must fit in int64, got n=5 and k={k}\n"

    code, out, err = run_cli(capsys, "search", "--graph", p5_file, "--k", str(largest))
    assert (code, err) == (0, "")
    assert out.startswith(f"tree_code=02020201010202010101 k={largest} tau_max=0 ")

    # the scalar engine has no fixed-width arithmetic: the same k simulates
    code, out, err = run_cli(
        capsys, "simulate", "--graph", p5_file, "--config", "+-+-+", "--k", str(huge)
    )
    assert (code, err) == (0, "")
    assert out == f"tau=0 period=1 E_final={5 * huge - 8}\n"


def test_argparse_rejections(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["conjecture"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--graph", "x", "--config", "+", "--format", "xml"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_entrypoint(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text(P3_TEXT)
    proc = subprocess.run(
        [sys.executable, "-m", "kreversible", "simulate", "--graph", str(path),
         "--config", "+-+", "--k", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "tau=0 period=2 E_final=1\n"


SUBCOMMANDS = (
    "simulate", "bounds", "energy-trace", "search", "conjecture", "generate", "validate-generator",
)


def test_console_script_installed(capsys):
    # the entry point declared in pyproject.toml resolves to a callable that
    # handles --help, whether or not the package is installed
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    section = pyproject.read_text().split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    scripts = dict(line.split(" = ", 1) for line in section.strip().splitlines())
    assert scripts == {"kreversible": '"kreversible.cli:main"'}
    module, _, name = scripts["kreversible"].strip('"').partition(":")
    entry = getattr(importlib.import_module(module), name)
    with pytest.raises(SystemExit) as exc:
        entry(["--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert all(command in usage for command in SUBCOMMANDS)

    # an installed executable, when there is one, behaves the same
    exe = shutil.which("kreversible")
    if exe is not None:
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert all(command in proc.stdout for command in SUBCOMMANDS)


def test_malformed_ledger_line_exits_two(capsys, tmp_path):
    ledger = tmp_path / "bad.jsonl"
    for bad in ('{"n": 6, "k": 2, "code": "ab"}', "[1, 2]"):
        ledger.write_text(bad + "\n")
        code, out, err = run_cli(capsys, "conjecture", "--n", "6", "--checkpoint", str(ledger))
        assert code == 2
        assert out == ""
        assert err.startswith("error: checkpoint line 1 ")


def test_edited_ledger_tau_max_exits_two(capsys, tmp_path):
    # a ledger line that claims more than its tree reaches would otherwise
    # become the report's only extremal tree, with verdict=fail and exit 3
    ledger = tmp_path / "ledger.jsonl"
    code, _, _ = run_cli(capsys, "conjecture", "--n", "7", "--checkpoint", str(ledger))
    assert code == 0
    lines = ledger.read_text().splitlines(keepends=True)
    entry = json.loads(lines[0])
    assert entry["tau_max"] == 3
    lines[0] = json.dumps({**entry, "tau_max": 9}, sort_keys=True) + "\n"
    ledger.write_text("".join(lines))

    code, out, err = run_cli(capsys, "conjecture", "--n", "7", "--checkpoint", str(ledger))
    assert code == 2
    assert out == ""
    config, period = entry["configs"][0]
    assert err == (
        f"error: checkpoint entry for tree {entry['code']}, start {config}, stores "
        f"(tau, period) = (9, {period}), but it replays to (3, {period})\n"
    )



def test_understated_ledger_tau_max_exits_two(capsys, tmp_path):
    # a ledger line that claims less than its tree reaches would otherwise
    # drop that tree from the report, with verdict=fail and exit 3
    ledger = tmp_path / "ledger.jsonl"
    code, _, _ = run_cli(capsys, "conjecture", "--n", "7", "--checkpoint", str(ledger))
    assert code == 0
    lines = ledger.read_text().splitlines(keepends=True)
    entry = json.loads(lines[1])
    assert entry["tau_max"] == 4
    lines[1] = json.dumps({**entry, "tau_max": 3}, sort_keys=True) + "\n"
    ledger.write_text("".join(lines))

    code, out, err = run_cli(capsys, "conjecture", "--n", "7", "--checkpoint", str(ledger))
    assert code == 2
    assert out == ""
    config, period = entry["configs"][0]
    assert err == (
        f"error: checkpoint entry for tree {entry['code']}, start {config}, stores "
        f"(tau, period) = (3, {period}), but it replays to (4, {period})\n"
    )

PUBLIC_NAMES = [
    "BoundReport", "Configuration", "ConjectureReport", "CrossValidation", "EnergyBreakdown",
    "ExtremalRecord", "Graph", "InternalInvariantError", "ParseError", "SearchResult",
    "SweepResult", "TraceStep", "TrajectoryResult", "bound_report", "canonical_code",
    "config_energy", "config_orbit_code", "cross_validate_generator", "delta_energy_breakdown",
    "enumerate_free_trees", "expected_tree_count", "generate_extremal_family", "is_tree",
    "max_transient_search", "parse_config", "parse_edge_list", "run_trajectory",
    "state_tables", "step", "sweep", "verify_conjecture",
]


def test_public_names():
    # helpers that only tests use live in tests/, not in the package
    import kreversible

    assert sorted(kreversible.__all__) == PUBLIC_NAMES
    assert all(hasattr(kreversible, name) for name in PUBLIC_NAMES)
