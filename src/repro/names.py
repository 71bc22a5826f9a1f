"""The one check every name table runs on a name it is handed.

Samplers, execution algorithms, datasets, convolutions, activations,
routers and cache policies are each looked up by a string key in a plain
dict (or, for cache policies, a tuple of names).  A key the table lacks is
refused here, with one message that lists the known names sorted, so a
typo or a plugin that was never imported names what would have worked.
This module imports nothing from the package, so every layer can use it.
"""

from __future__ import annotations

from typing import Collection

__all__ = ["check_name"]


def check_name(kind: str, name: object, table: Collection[str]) -> str:
    """``name`` if ``table`` has it; otherwise a ``ValueError`` reading
    ``unknown <kind> <name!r>; known <kinds>: a, b, c``."""
    if not isinstance(name, str) or name not in table:
        plural = kind[:-1] + "ies" if kind.endswith("y") else kind + "s"
        raise ValueError(
            f"unknown {kind} {name!r}; known {plural}: "
            f"{', '.join(sorted(table))}"
        )
    return name
