#!/usr/bin/env python3
"""Negative test of the benchmark's output checks.

    python3 perfbench/selfcheck.py

Produces real outputs of each workload (one conjecture --n 13 run, the
smallest search-large case, and a few trajectories), confirms the checks
accept them, then corrupts reports and traces and confirms that every
corrupted output counts as a failed operation, so failed_frac is above 0.
Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run
from workloads import TREES_ON_13


def corrupt_trace_energy(op):
    inst, traj, breakdowns, bounds = op
    trace = list(traj.trace)
    trace[-1] = trace[-1]._replace(energy=trace[-1].energy + 1)
    return inst, dataclasses.replace(traj, trace=tuple(trace)), breakdowns, bounds


def corrupt_trace_step(op):
    inst, traj, breakdowns, bounds = op
    trace = list(traj.trace)
    trace[1] = trace[1]._replace(config=trace[1].config.negate())
    return inst, dataclasses.replace(traj, trace=tuple(trace)), breakdowns, bounds


def corrupt_trace_tau(op):
    inst, traj, breakdowns, bounds = op
    return inst, dataclasses.replace(traj, tau=traj.tau + 1), breakdowns, bounds


def main() -> int:
    goldens = json.loads((run.HERE / "goldens.json").read_text())
    program = run.load_program()

    def build(name):
        return run.WORKLOADS[name](program, run.DEFAULT_SEED, run.WORKDIR, goldens)

    cases = []  # (label, workload, op, should fail)

    conjecture = build("conjecture-n13")
    clean = conjecture.run_pass().ops[0]
    label, code, stdout, _ = clean
    cases += [
        ("conjecture report", conjecture, clean, False),
        ("conjecture report, one field changed", conjecture,
         (label, code, stdout.replace('"verdict": "pass"', '"verdict": "fail"'), None), True),
        ("conjecture report, truncated", conjecture, (label, code, stdout[:-2], None), True),
        ("conjecture exit code 3", conjecture, (label, 3, stdout, None), True),
    ]
    lines = [json.dumps({"code": f"{i:x}"}).encode() + b"\n" for i in range(TREES_ON_13)]
    cases += [
        ("ledger, one line per tree", conjecture, ("fresh", code, stdout, b"".join(lines)), False),
        ("ledger, a line missing", conjecture, ("fresh", code, stdout, b"".join(lines[1:])), True),
        ("ledger, a tree twice", conjecture,
         ("fresh", code, stdout, b"".join(lines[:-1] + lines[:1])), True),
        ("ledger, a torn last line", conjecture,
         ("fresh", code, stdout, b"".join(lines)[:-5]), True),
    ]

    search = build("search-large")
    search.cases = search.cases[:1]
    found = search.run_pass().ops[0]
    index, tree, k, result = found
    cases += [
        ("search result", search, found, False),
        ("search result, tau_max raised", search,
         (index, tree, k, dataclasses.replace(result, tau_max=result.tau_max + 1)), True),
        ("search result, a record dropped", search,
         (index, tree, k, dataclasses.replace(result, records=result.records[1:])), True),
    ]

    trajectories = build("trajectories")
    trajectories.instances = [i for i in trajectories.instances if i.graph.n == 64][3:5]
    for op in trajectories.run_pass().ops:
        what = "with energy accounting" if op[2] is not None else "plain"
        cases += [
            (f"trajectory {what}", trajectories, op, False),
            (f"trajectory {what}, an energy changed", trajectories, corrupt_trace_energy(op), True),
            (f"trajectory {what}, a step changed", trajectories, corrupt_trace_step(op), True),
            (f"trajectory {what}, tau changed", trajectories, corrupt_trace_tau(op), True),
            (f"trajectory {what}, the program raised", trajectories,
             (op[0], RuntimeError("injected"), None, None), True),
        ]

    wrong = total_failed = 0
    for label, workload, op, should_fail in cases:
        failed = run.count_failures(workload, [op], set())
        total_failed += failed
        ok = failed == int(should_fail)
        wrong += not ok
        print(f"{'ok ' if ok else 'BAD'} {label}: {'failed' if failed else 'passed'}")
    print(f"failed_frac over these outputs = {total_failed}/{len(cases)} "
          f"= {total_failed / len(cases):g}; {wrong} outcomes not as expected")
    return 1 if wrong or total_failed == 0 else 0


if __name__ == "__main__":
    sys.exit(main())
