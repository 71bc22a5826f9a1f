"""Streaming-serving sweep: edge churn vs throughput, latency and parity.

Drives a one-replica :class:`~repro.serve.ServingCluster` over a
:class:`~repro.stream.StreamingGraph` with :class:`~repro.stream.UpdateStream`
workloads that interleave edge insert/delete batches with inference
requests, sweeping

* the **update:request ratio** (how much churn rides along with the
  traffic), once per serving mode — per-request, micro-batched, and
  micro-batched with the embedding cache (whose rows the dirty-vertex
  protocol invalidates as updates land), and
* the **compaction threshold** (how large the delta log may grow, as a
  fraction of the base nnz, before it folds into a fresh frozen CSR).

The script *asserts* the streaming contract as it runs:

* micro-batched serving still out-throughputs per-request serving under
  churn (the paper's bulk-amortization argument survives a mutating graph),
* after the full update stream — including any compactions — warm-cache
  served logits are bit-identical to
  :func:`repro.pipeline.layerwise_inference` on an independent from-scratch
  rebuild of the final graph,
* repeating a point reproduces the same logits digest (updates are part of
  the deterministic schedule, not a source of nondeterminism).

Run as a script (also wired into the CI streaming-parity job)::

    PYTHONPATH=src python benchmarks/bench_streaming.py
    PYTHONPATH=src python benchmarks/bench_streaming.py --smoke

The script prints its tables and headline metrics and writes no files.
:func:`run_sweep` returns ``(rows, metrics)``; ``tests/test_model_pins.py``
pins the ``--smoke`` profile's metrics exactly (they are SimClock figures,
so they are deterministic).
"""

from __future__ import annotations

import argparse
import copy
import sys

import numpy as np

from repro.api import Engine, RunConfig
from repro.bench.reporting import format_table
from repro.pipeline import layerwise_inference
from repro.serve import ServingCluster
from repro.stream import StreamingGraph, UpdateStream


def run_point(
    engine: Engine,
    *,
    n_requests: int,
    update_ratio: float,
    compaction_threshold: float,
    serve_batch_size: int,
    embed_budget: float,
    seed: int,
    interarrival: float,
):
    """One sweep point: fresh graph copy, fresh stream, fresh server.

    The StreamingGraph rebinds its graph's ``adj`` as updates land, so each
    point gets a shallow graph copy — array payloads are shared (DeltaCSR
    never mutates the base in place), but churn stays point-local.
    """
    graph = copy.copy(engine.graph)
    cfg = engine.config.replace(
        serve_batch_size=serve_batch_size,
        embed_budget=embed_budget,
        compaction_threshold=compaction_threshold,
        stream_updates=True,
    )
    stream = StreamingGraph(graph, compaction_threshold=compaction_threshold)
    server = ServingCluster(engine.model, graph, cfg, stream=stream)
    workload = UpdateStream.synthetic(
        graph.adj,
        graph.test_idx,
        n_requests=n_requests,
        update_ratio=update_ratio,
        seed=seed,
        interarrival=interarrival,
    )
    report = server.process(workload)
    return server, report


def check_parity(server, engine, *, n_verts: int = 64) -> str | None:
    """Warm-cache serving on the churned graph vs layer-wise inference on
    an independent from-scratch rebuild; returns an error string or None."""
    verts = engine.graph.test_idx[:n_verts]
    served = server.serve(verts)
    rebuilt = server.stream.rebuild_from_scratch()
    reference = layerwise_inference(engine.model, rebuilt)
    if not np.array_equal(served, reference[verts]):
        return (
            "post-churn served logits are not bit-identical to layer-wise "
            "inference on a from-scratch rebuild of the final graph"
        )
    return None


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The command line, with ``--smoke``'s sizes applied."""
    parser = argparse.ArgumentParser(
        description="Edge churn vs serving throughput/latency/parity"
    )
    parser.add_argument("--dataset", default="products")
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--fanout", default="4,3",
                        help="training fanout (serving itself is exact)")
    parser.add_argument("--hidden", type=int, default=16)
    parser.add_argument("--epochs", type=int, default=1)
    parser.add_argument("--requests", type=int, default=96,
                        help="requests per sweep point")
    parser.add_argument("--ratios", default="0,0.25,0.5",
                        help="comma-separated update:request ratios")
    parser.add_argument("--thresholds", default="0.002,0.02,0.25",
                        help="comma-separated compaction thresholds swept "
                        "at the highest ratio")
    parser.add_argument("--embed-budget", type=float, default=65536.0)
    parser.add_argument("--interarrival", type=float, default=2e-5,
                        help="simulated request gap (small = saturating load)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sweep for CI (fewer points and requests)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.requests, args.ratios, args.thresholds = 48, "0,0.5", "0.005"
    return args


def train_engine(args) -> Engine:
    """The model every sweep point serves, trained for ``args.epochs``."""
    cfg = RunConfig(
        dataset=args.dataset, scale=args.scale, train_split=0.5,
        sampler="sage", fanout=tuple(int(x) for x in args.fanout.split(",")),
        batch_size=16, hidden=args.hidden, epochs=args.epochs,
        seed=args.seed,
    )
    engine = Engine(cfg)
    engine.train(cfg.epochs)
    return engine


def run_sweep(engine: Engine, args, failures: list[str]):
    """Update ratio x serving mode, then compaction thresholds at the
    highest ratio.

    Returns ``(rows, metrics)``: both tables' rows, and the peak-churn
    throughputs with and without micro-batching, their ratio, the
    micro-batched throughput kept under churn and whether every point's
    post-churn logits matched a from-scratch rebuild.  Broken claims are
    appended to ``failures``.
    """
    ratios = [float(x) for x in args.ratios.split(",")]
    thresholds = [float(x) for x in args.thresholds.split(",")]
    rows = []
    parity = True
    throughput: dict[tuple[float, int], float] = {}

    # -- sweep 1: update:request ratio x serving mode -------------------- #
    for ratio in ratios:
        for batch_size, budget in (
            (1, 0.0),
            (8, 0.0),
            (8, args.embed_budget),
        ):
            server, report = run_point(
                engine, n_requests=args.requests, update_ratio=ratio,
                compaction_threshold=0.25, serve_batch_size=batch_size,
                embed_budget=budget, seed=args.seed,
                interarrival=args.interarrival,
            )
            key = (ratio, batch_size)
            throughput[key] = max(throughput.get(key, 0.0), report.throughput)
            err = check_parity(server, engine)
            if err:
                parity = False
                failures.append(
                    f"ratio={ratio:g} batch={batch_size} budget={budget:g}: {err}"
                )
            rows.append(
                {
                    "update_ratio": ratio,
                    "batch_cap": batch_size,
                    "embed_budget": int(budget),
                    "threshold": 0.25,
                    **report.row(),
                }
            )
    # Determinism: repeat the churniest cached point, compare digests.
    peak = max(ratios)
    _, first = run_point(
        engine, n_requests=args.requests, update_ratio=peak,
        compaction_threshold=0.25, serve_batch_size=8,
        embed_budget=args.embed_budget, seed=args.seed,
        interarrival=args.interarrival,
    )
    _, second = run_point(
        engine, n_requests=args.requests, update_ratio=peak,
        compaction_threshold=0.25, serve_batch_size=8,
        embed_budget=args.embed_budget, seed=args.seed,
        interarrival=args.interarrival,
    )
    if first.digest() != second.digest():
        failures.append(
            f"ratio={peak:g}: digest not deterministic across repeated runs"
        )

    for ratio in ratios:
        if ratio <= 0:
            continue
        if throughput[(ratio, 8)] <= throughput[(ratio, 1)]:
            failures.append(
                f"ratio={ratio:g}: micro-batched throughput "
                f"{throughput[(ratio, 8)]:.0f} req/s not strictly above "
                f"per-request {throughput[(ratio, 1)]:.0f} req/s under churn"
            )

    # -- sweep 2: compaction threshold at the highest ratio -------------- #
    for threshold in thresholds:
        server, report = run_point(
            engine, n_requests=args.requests, update_ratio=peak,
            compaction_threshold=threshold, serve_batch_size=8,
            embed_budget=args.embed_budget, seed=args.seed,
            interarrival=args.interarrival,
        )
        err = check_parity(server, engine)
        if err:
            parity = False
            failures.append(f"threshold={threshold:g}: {err}")
        rows.append(
            {
                "threshold": threshold,
                "update_ratio": peak,
                "pending_after": server.stream.delta.pending,
                **report.row(),
            }
        )

    metrics = {
        "peak_req_per_s_microbatch": throughput[(peak, 8)],
        "peak_req_per_s_per_request": throughput[(peak, 1)],
        "churn_microbatch_speedup": throughput[(peak, 8)]
        / throughput[(peak, 1)],
        "parity": parity,
    }
    if (0.0, 8) in throughput and throughput[(peak, 8)] > 0:
        metrics["churn_throughput_retention"] = (
            throughput[(peak, 8)] / throughput[(0.0, 8)]
        )
    return rows, metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    engine = train_engine(args)
    failures: list[str] = []
    rows, metrics = run_sweep(engine, args, failures)
    compaction = [r for r in rows if "pending_after" in r]
    print(format_table(
        [r for r in rows if "pending_after" not in r],
        title=f"streaming sweep: {args.dataset} scale={args.scale} "
        f"requests/point={args.requests} (exact serving under churn)",
    ))
    print()
    print(format_table(
        compaction,
        title="compaction-threshold sweep at update_ratio="
        f"{compaction[0]['update_ratio']:g}",
    ))
    for name, value in metrics.items():
        print(f"{name}: {value}")
    if failures:
        for f in failures:
            print(f"error: {f}", file=sys.stderr)
        return 1
    print("ok: micro-batching beats per-request serving under churn, "
          "post-compaction served logits bit-identical to a from-scratch "
          "rebuild, digests deterministic")
    return 0


if __name__ == "__main__":
    sys.exit(main())
