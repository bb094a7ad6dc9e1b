"""Exception types shared across the package, and the message format of
an invariant violation.

ParseError covers anything wrong with user-supplied text (edge lists,
configuration strings); the CLI maps it to exit code 2.
InternalInvariantError marks conditions that are mathematically impossible
for a correct implementation (e.g. a detected period above 2, or an energy
decrease); the CLI maps it to exit code 1.
"""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed user input (file contents or configuration strings)."""


class InternalInvariantError(RuntimeError):
    """A provably-impossible condition was observed; indicates a bug."""


def invariant_violation(
    g, k: int, start, what: str, tree: str | None = None
) -> InternalInvariantError:
    """The error for an impossible condition reached from configuration
    ``start`` on graph g at threshold k. It names the tree code (when given),
    the 1-based edges, k and the start, which one `kreversible simulate` or
    `kreversible energy-trace` call replays."""
    from .graphs import _one_based  # graphs imports this module

    where = f"tree {tree} " if tree is not None else ""
    return InternalInvariantError(f"{where}edges={_one_based(g.edges)} k={k} start {start}: {what}")
