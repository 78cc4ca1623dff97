"""Shared exception types, the one size-cap check, and the one JSON parser.

Input and precondition problems raise ValueError; check_cap raises its
BudgetExceeded subclass for a size above a cap, and load_json turns every
way JSON input can fail to parse into a ValueError.  InvariantBreach marks a
condition that the underlying mathematics guarantees can never happen;
reaching one means the library itself is wrong, and the CLI turns it into
its own exit code.
"""

from __future__ import annotations

import json

__all__ = ["BudgetExceeded", "InvariantBreach"]


class BudgetExceeded(ValueError):
    """A configured enumeration or size budget was exceeded."""


class InvariantBreach(RuntimeError):
    """A mathematically guaranteed invariant failed; this is a library bug."""


def check_cap(kind: str, n: int, cap: int, units: str = "vertices") -> None:
    """BudgetExceeded "<kind> has <n> <units>, above the cap <cap>" if n > cap;
    callers check before they allocate or walk anything that grows with n."""
    if n > cap:
        raise BudgetExceeded(f"{kind} has {n} {units}, above the cap {cap}")


def load_json(text: str, kind: str):
    """The value of JSON `text`; ValueError naming `kind` if it does not parse."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: deep nesting
        raise ValueError(f"malformed {kind} JSON: {exc}") from exc
