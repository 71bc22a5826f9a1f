"""Schema-versioned benchmark artifacts: the committed perf trajectory.

Benchmarks historically printed tables and persisted nothing, so there was
no machine-readable perf history to diff a PR against.  Every
``benchmarks/bench_*.py`` now funnels its headline numbers through
:func:`write_bench_artifact`, producing ``BENCH_<name>.json`` files under
``benchmarks/results/`` that are committed per PR:

.. code-block:: json

    {
      "schema_version": 1,
      "bench": "serving",
      "params": {"dataset": "products", "scale": 0.1},
      "metrics": {"peak_req_per_s": 10512.3},
      "rows": [{"clients": 1, "p50_ms": 0.41}, ...]
    }

``schema_version`` guards future readers: bump it when a field changes
meaning, and keep :func:`load_bench_artifact` refusing versions it does not
understand rather than silently misreading a trajectory point.

*Simulated* artifacts deliberately carry no timestamps or host info —
simulated metrics are deterministic, and a byte-stable file makes
regressions show up as a git diff.  *Wall-clock* artifacts are
machine-dependent, so they attach an optional ``"env"`` key
(:func:`env_fingerprint`: cpu count, python/numpy versions, platform) and
the regression gate refuses to compare artifacts from different
environments — a speedup measured on 16 cores says nothing about a 1-core
box, and that incomparability must fail loudly, not drift by.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, Sequence

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "bench_artifact",
    "write_bench_artifact",
    "load_bench_artifact",
    "default_artifact_path",
    "env_fingerprint",
]

#: Current artifact schema.  Version 1: ``schema_version`` / ``bench`` /
#: ``params`` / ``metrics`` / ``rows`` keys, JSON-native values only.
BENCH_SCHEMA_VERSION = 1


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars and tuples so artifacts stay plain JSON."""
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()
        except (TypeError, ValueError):
            pass
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float):
        # Round so re-runs differing only in 1e-15 noise don't churn git.
        return round(value, 9)
    return value


def env_fingerprint() -> dict[str, Any]:
    """The environment facts that make wall-clock numbers comparable.

    Attach this (via ``bench_artifact(..., env=...)``) to any benchmark
    whose metrics depend on the machine: core count, interpreter and numpy
    versions, platform.
    """
    import os
    import platform

    import numpy

    return {
        "cpu_count": int(os.cpu_count() or 1),
        "python": platform.python_version(),
        "numpy": str(numpy.__version__),
        "platform": f"{platform.system()}-{platform.machine()}",
    }


def bench_artifact(
    name: str,
    *,
    params: Mapping[str, Any] | None = None,
    metrics: Mapping[str, Any] | None = None,
    rows: Sequence[Mapping[str, Any]] | None = None,
    env: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble one schema-versioned artifact payload.

    ``params`` records the knobs the run used (so a trajectory point is
    self-describing), ``metrics`` the headline scalars a regression gate
    would compare, ``rows`` the full sweep table.  ``env`` (only present
    when given — simulated benches stay byte-stable) carries the
    :func:`env_fingerprint` of machine-dependent runs; the regression
    gate refuses cross-environment comparisons unless overridden.
    """
    if not name or not name.replace("_", "").isalnum():
        raise ValueError(
            f"bench name {name!r} must be alphanumeric/underscore "
            f"(it becomes the BENCH_<name>.json filename)"
        )
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "bench": name,
        "params": _jsonable(dict(params or {})),
        "metrics": _jsonable(dict(metrics or {})),
        "rows": _jsonable(list(rows or [])),
    }
    if env is not None:
        payload["env"] = _jsonable(dict(env))
    return payload


def default_artifact_path(name: str, out_dir: str | Path | None = None) -> Path:
    """``<out_dir>/BENCH_<name>.json`` (default ``benchmarks/results/``
    next to the repo's benchmarks package, falling back to cwd)."""
    if out_dir is None:
        here = Path(__file__).resolve()
        for parent in here.parents:
            if (parent / "benchmarks").is_dir():
                out_dir = parent / "benchmarks" / "results"
                break
        else:  # pragma: no cover - installed without the benchmarks tree
            out_dir = Path.cwd() / "benchmarks" / "results"
    return Path(out_dir) / f"BENCH_{name}.json"


def write_bench_artifact(
    name: str,
    *,
    params: Mapping[str, Any] | None = None,
    metrics: Mapping[str, Any] | None = None,
    rows: Sequence[Mapping[str, Any]] | None = None,
    env: Mapping[str, Any] | None = None,
    path: str | Path | None = None,
) -> Path:
    """Write ``BENCH_<name>.json`` and return its path.

    ``path`` overrides the default location (benchmark scripts expose it
    as ``--json``); parent directories are created.
    """
    payload = bench_artifact(
        name, params=params, metrics=metrics, rows=rows, env=env
    )
    out = Path(path) if path is not None else default_artifact_path(name)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out


def load_bench_artifact(path: str | Path) -> dict[str, Any]:
    """Read an artifact back, refusing unknown schema versions."""
    data = json.loads(Path(path).read_text())
    version = data.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"artifact {path} has schema_version {version!r}; this reader "
            f"understands {BENCH_SCHEMA_VERSION} — regenerate the artifact "
            f"or upgrade the reader"
        )
    for key in ("bench", "params", "metrics", "rows"):
        if key not in data:
            raise ValueError(f"artifact {path} is missing the {key!r} key")
    return data
