"""Deterministic report emission, in every output format of the CLI.

JSON reports use sorted keys and a fixed indent so identical inputs produce
byte-identical output regardless of worker count or resume history; the CSV
schema for extremal records is tree_code, edges, config, tau, period with
edges rendered 1-based as dash pairs joined by semicolons. Text output is
the lines each command builds; `render` picks the format, and `text_header`
writes a report's scalar fields as key=value.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable

import json

from .extremal import ExtremalRecord
from .graphs import _one_based

CSV_COLUMNS = ("tree_code", "edges", "config", "tau", "period")


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def edges_to_text(edges: Iterable[tuple[int, int]]) -> str:
    return ";".join(f"{u}-{v}" for u, v in _one_based(edges))


def records_to_csv(records: Iterable[ExtremalRecord]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow(
            [r.tree_code, edges_to_text(r.tree_edges), r.config.to_string(), r.tau, r.period]
        )
    return out.getvalue()


def text_header(fields: dict) -> str:
    """key=value over the scalar fields of a JSON dict, in order: booleans
    as true/false, None and list, tuple or dict values skipped."""
    return " ".join(
        f"{key}={str(value).lower() if isinstance(value, bool) else value}"
        for key, value in fields.items()
        if value is not None and not isinstance(value, (list, tuple, dict))
    )


def render(fmt: str, payload, lines: Iterable[str], records: Iterable[ExtremalRecord]) -> str:
    """One command's output in the chosen format: the canonical JSON of its
    payload, the CSV of its extremal records, or its text lines."""
    if fmt == "json":
        return canonical_json(payload) + "\n"
    if fmt == "csv":
        return records_to_csv(records)
    return "".join(f"{line}\n" for line in lines)
