"""CI gate: diff fresh BENCH_*.json artifacts against committed baselines.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py FRESH.json
    PYTHONPATH=src python benchmarks/check_regression.py \
        fresh_serving.json fresh_streaming.json fresh_feature_cache.json
    PYTHONPATH=src python benchmarks/check_regression.py FRESH.json \
        --baseline benchmarks/results/BENCH_serving_fleet.json \
        --tolerance 0.1

Accepts one or more fresh artifacts and checks *every* one before
exiting, so a single CI step can gate all deterministic families and the
failure output names every out-of-tolerance metric across all of them —
not just the first family that happened to regress.  Without
``--baseline`` each committed artifact is located from the fresh
artifact's ``bench`` name (``benchmarks/results/BENCH_<bench>.json``);
an explicit ``--baseline`` only makes sense with a single fresh file.

Directional metrics (throughput/speedup up, latency/makespan down) must
stay within ``--tolerance`` of the baseline; params must match exactly
(excluding ``--ignore-params`` keys) or the artifacts are declared
incomparable — a different invocation proves nothing about perf.

Artifacts carrying an environment fingerprint (``env`` key, which a
wall-clock bench attaches) must additionally match on it, because
wall-clock numbers are machine-specific.

Exit codes: 0 ok, 1 regression, 2 usage/schema error, 3 params mismatch,
4 environment mismatch.  When several kinds of failure occur across the
checked artifacts, regressions win (1), then params (3), then env (4),
then schema/usage (2) — the code reports the failure CI should fix first.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench import (
    EnvMismatch,
    ParamsMismatch,
    compare_artifacts,
    default_artifact_path,
    load_bench_artifact,
    metric_direction,
)


def _check_one(
    fresh_path: str, args: argparse.Namespace
) -> tuple[str, list, int | None]:
    """Gate one fresh artifact.

    Returns ``(bench_name, regressions, error_code)`` where
    ``error_code`` is an exit code (2/3/4) when the artifact could not be
    compared at all, else ``None``.
    """
    ignore = tuple(k for k in args.ignore_params.split(",") if k)
    bench_name = fresh_path
    try:
        fresh = load_bench_artifact(fresh_path)
        bench_name = fresh.get("bench", fresh_path)
        baseline_path = (
            Path(args.baseline)
            if args.baseline is not None
            else default_artifact_path(fresh["bench"])
        )
        if not baseline_path.exists():
            print(
                f"error: no committed baseline at {baseline_path} — commit "
                f"one first (copy the fresh artifact once it is trusted)",
                file=sys.stderr,
            )
            return bench_name, [], 2
        baseline = load_bench_artifact(baseline_path)
        regressions = compare_artifacts(
            baseline, fresh, tolerance=args.tolerance, ignore_params=ignore,
        )
    except ParamsMismatch as exc:
        print(f"error: {bench_name}: {exc}", file=sys.stderr)
        return bench_name, [], 3
    except EnvMismatch as exc:
        print(f"error: {bench_name}: {exc}", file=sys.stderr)
        return bench_name, [], 4
    except (ValueError, OSError) as exc:
        print(f"error: {bench_name}: {exc}", file=sys.stderr)
        return bench_name, [], 2

    gated = sorted(
        name
        for name, value in baseline.get("metrics", {}).items()
        if metric_direction(name) is not None
        and isinstance(value, (int, float))
    )
    print(
        f"{baseline['bench']}: {len(gated)} gated metric(s) vs "
        f"{baseline_path} at {args.tolerance:.0%} tolerance"
    )
    for name in gated:
        base = baseline["metrics"][name]
        now = fresh.get("metrics", {}).get(name, float("nan"))
        arrow = {"higher": ">=", "lower": "<="}[metric_direction(name)]
        print(f"  {name}: {base:g} -> {now:g} (want {arrow} within tolerance)")
    for r in regressions:
        print(f"regression: {bench_name}: {r}", file=sys.stderr)
    return bench_name, list(regressions), None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail on perf regressions vs committed BENCH artifacts"
    )
    parser.add_argument("fresh", nargs="+",
                        help="freshly emitted BENCH_*.json file(s) to check")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="committed artifact to compare against "
                        "(default: benchmarks/results/BENCH_<bench>.json "
                        "for each fresh artifact's bench name; only valid "
                        "with a single fresh file)")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="allowed relative drift per metric, default 0.05")
    parser.add_argument("--ignore-params", default="", metavar="K1,K2",
                        help="comma-separated param keys excluded from the "
                        "comparability check")
    args = parser.parse_args(argv)

    if args.baseline is not None and len(args.fresh) > 1:
        print(
            "error: --baseline only makes sense with a single fresh "
            "artifact (multiple artifacts resolve baselines by bench name)",
            file=sys.stderr,
        )
        return 2

    failed_metrics: list[str] = []  # "bench:metric" across all artifacts
    error_codes: list[int] = []
    for fresh_path in args.fresh:
        bench_name, regressions, error = _check_one(fresh_path, args)
        if error is not None:
            error_codes.append(error)
        failed_metrics.extend(f"{bench_name}:{r.metric}" for r in regressions)

    if failed_metrics:
        print(
            f"error: {len(failed_metrics)} regressed metric(s): "
            + ", ".join(failed_metrics),
            file=sys.stderr,
        )
        return 1
    # No regressions, but some artifact(s) could not be compared at all:
    # params beats env beats schema, mirroring the single-file semantics.
    for code in (3, 4, 2):
        if code in error_codes:
            return code
    print("ok: no out-of-tolerance perf regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
