"""Feature-cache sweep: replication budget vs fetch volume vs epoch time.

Sweeps the per-rank cache budget on the partitioned LADIES and SAGE
pipelines and reports, per budget, the measured feature-fetch volume, the
cache hit rate, and the serial vs double-buffered simulated epoch time.
The script *asserts* the subsystem's contract as it runs:

* any positive budget strictly decreases feature-fetch volume vs the
  uncached baseline,
* training loss is bit-identical across budgets and policies (the cache
  returns exact rows, so it can never change learning),
* the double-buffered schedule (``overlap=True``) never reports a slower
  epoch than the serial sum, and saves time on every swept workload.

Run as a script (also wired into the CI bench smoke step)::

    PYTHONPATH=src python benchmarks/bench_feature_cache.py
    PYTHONPATH=src python benchmarks/bench_feature_cache.py \
        --scale 0.2 --budgets 0,32000,128000 --policy lfu

The script prints its table and headline metrics and writes no files.
:func:`run_sweep` returns ``(rows, metrics)``; ``tests/test_model_pins.py``
pins the default profile's metrics exactly (they are SimClock figures, so
they are deterministic).
"""

from __future__ import annotations

import argparse
import sys

from repro.api import Engine, RunConfig

#: (sampler key, fanout) for the two partitioned benchmark pipelines.
SWEEP_SAMPLERS = (("ladies", (16,)), ("sage", (4, 2)))


def run_epoch(cfg: RunConfig) -> dict[str, object]:
    """Train ``cfg.epochs`` epochs; returns the sweep row of the last one
    (multi-epoch runs let the LFU policy warm up before measuring)."""
    engine = Engine(cfg)
    stats = engine.train(cfg.epochs)[-1]
    cache = engine.cache_stats
    return {
        "sampler": cfg.sampler,
        "budget": int(cfg.cache_budget),
        "policy": cfg.cache_policy if cfg.cache_budget else "-",
        "hit_rate": cache.hit_rate if cache else 0.0,
        "fetch_bytes": engine.pipeline.comm.ledger.sent("feature_fetch"),
        "fill_bytes": engine.pipeline.comm.ledger.sent("cache_fill"),
        "fetch_s": stats.feature_fetch,
        "serial_s": stats.total,
        "pipelined_s": stats.pipelined_total,
        "loss": stats.loss,
    }


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Cache budget vs feature-fetch volume and epoch time"
    )
    parser.add_argument("--dataset", default="products")
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--p", type=int, default=4)
    parser.add_argument("--c", type=int, default=2)
    parser.add_argument("--k", type=int, default=2,
                        help="bulk size in minibatches")
    parser.add_argument("--batch-size", type=int, default=16)
    parser.add_argument("--epochs", type=int, default=1)
    parser.add_argument("--policy", default="degree",
                        choices=("degree", "lfu"))
    parser.add_argument("--budgets", default="0,32000,128000",
                        help="comma-separated per-rank cache budgets (bytes)")
    return parser.parse_args(argv)


def run_sweep(args, failures: list[str]):
    """Budget sweep on both partitioned pipelines.

    Returns ``(rows, metrics)``: one row per (sampler, budget), and per
    sampler the fetch-volume reduction, hit rate and overlap saving at the
    largest budget, relative to the uncached baseline.  Broken claims are
    appended to ``failures``.
    """
    budgets = [float(x) for x in args.budgets.split(",")]
    if budgets[0] != 0.0:
        budgets.insert(0, 0.0)  # always measure the uncached baseline

    rows = []
    metrics = {}
    for sampler, fanout in SWEEP_SAMPLERS:
        base = dict(
            dataset=args.dataset, scale=args.scale, p=args.p, c=args.c,
            algorithm="partitioned", sampler=sampler, fanout=fanout,
            batch_size=args.batch_size, hidden=16, train_split=0.5,
            epochs=args.epochs, k=args.k, seed=0, overlap=True,
            cache_policy=args.policy,
        )
        sweep = [run_epoch(RunConfig(**base, cache_budget=b)) for b in budgets]
        rows.extend(sweep)
        baseline = sweep[0]
        for row in sweep[1:]:
            if row["loss"] != baseline["loss"]:
                failures.append(
                    f"{sampler}: loss changed under budget {row['budget']} "
                    f"({row['loss']} vs {baseline['loss']})"
                )
            if row["fetch_bytes"] >= baseline["fetch_bytes"]:
                failures.append(
                    f"{sampler}: fetch volume did not decrease under "
                    f"budget {row['budget']}"
                )
        for row in sweep:
            if row["pipelined_s"] > row["serial_s"] + 1e-12:
                failures.append(
                    f"{sampler}: overlapped epoch slower than serial at "
                    f"budget {row['budget']}"
                )
        if not all(
            row["pipelined_s"] < sweep[0]["serial_s"] for row in sweep
        ):
            failures.append(f"{sampler}: overlap saved no time")
        top = sweep[-1]
        metrics[f"fetch_reduction_{sampler}"] = (
            1.0 - top["fetch_bytes"] / baseline["fetch_bytes"]
        )
        metrics[f"hit_rate_{sampler}"] = top["hit_rate"]
        metrics[f"overlap_saving_{sampler}"] = (
            1.0 - top["pipelined_s"] / top["serial_s"]
        )
    return rows, metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    failures: list[str] = []
    rows, metrics = run_sweep(args, failures)

    header = (f"{'sampler':<8} {'budget':>8} {'policy':>7} {'hit%':>6} "
              f"{'fetch MB':>9} {'fill MB':>8} {'fetch_s':>9} "
              f"{'serial_s':>9} {'pipelined_s':>11} {'loss':>9}")
    print(f"feature-cache sweep: {args.dataset} scale={args.scale} "
          f"p={args.p} c={args.c} k={args.k} policy={args.policy}")
    print(header)
    for row in rows:
        print(f"{row['sampler']:<8} {row['budget']:>8} {row['policy']:>7} "
              f"{row['hit_rate'] * 100:>5.1f}% "
              f"{row['fetch_bytes'] / 1e6:>9.3f} "
              f"{row['fill_bytes'] / 1e6:>8.3f} {row['fetch_s']:>9.5f} "
              f"{row['serial_s']:>9.5f} {row['pipelined_s']:>11.5f} "
              f"{row['loss']:>9.4f}")
    for name, value in metrics.items():
        print(f"{name}: {value}")

    if failures:
        for f in failures:
            print(f"error: {f}", file=sys.stderr)
        return 1
    print("ok: volume decreases with budget, losses bit-identical, "
          "overlap never slower")
    return 0


if __name__ == "__main__":
    sys.exit(main())
