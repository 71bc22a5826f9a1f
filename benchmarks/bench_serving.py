"""Serving sweep: offered load vs latency/throughput, micro-batched vs not.

A closed-loop load generator (``clients`` concurrent callers, one request
in flight each) drives a one-replica :class:`~repro.serve.ServingCluster`
at increasing offered load, once with micro-batching (``serve_batch_size=8``)
and once serving one request at a time (``serve_batch_size=1``) — the
online analogue of the paper's bulk-vs-per-batch sampling comparison.  Per
point it reports p50/p95/p99 latency, simulated throughput and the
embedding-cache hit rate.

The script *asserts* the serving subsystem's contract as it runs:

* micro-batched serving achieves strictly higher throughput than
  per-request serving at the same offered load (for ``clients >= 8``),
* served logits are bit-identical to
  :func:`repro.pipeline.layerwise_inference` for the same vertices, with
  the embedding cache on and off,
* the run is deterministic: repeating a point reproduces the same logits
  digest.

**Fleet sweep** (``--replicas``): the same closed-loop load
at fleet scale — replica count x router policy through the same server
class — asserting every fleet configuration
serves the *same* logits digest (exactness is replica-invariant) and
that a routed N>1 fleet out-throughputs the single replica at high
offered load.

Run as a script (also wired into the CI serving smoke jobs)::

    PYTHONPATH=src python benchmarks/bench_serving.py
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke --replicas 4

The script prints its tables and headline metrics and writes no files.
:func:`run_sweep` and :func:`run_fleet_sweep` return ``(rows, metrics)``;
``tests/test_model_pins.py`` pins the ``--smoke --replicas 4`` profile's
metrics exactly (they are SimClock figures, so they are deterministic).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.api import Engine, RunConfig
from repro.bench.reporting import format_table
from repro.pipeline import layerwise_inference
from repro.serve import ClosedLoopWorkload, ServingCluster


def run_point(
    engine: Engine,
    *,
    clients: int,
    n_requests: int,
    serve_batch_size: int,
    embed_budget: float,
    seed: int,
):
    """One sweep point: a fresh server (fresh cache) over a fresh workload."""
    cfg = engine.config.replace(
        serve_batch_size=serve_batch_size, embed_budget=embed_budget,
    )
    server = ServingCluster(engine.model, engine.graph, cfg)
    workload = ClosedLoopWorkload(
        n_requests, engine.graph.test_idx, clients=clients, seed=seed
    )
    return server.process(workload)


def run_fleet_point(
    engine: Engine,
    *,
    replicas: int,
    router: str,
    clients: int,
    n_requests: int,
    embed_budget: float,
    seed: int,
):
    """One fleet sweep point: a fresh cluster over a fresh closed loop."""
    cfg = engine.config.replace(
        replicas=replicas, router=router, embed_budget=embed_budget,
    )
    fleet = ServingCluster(engine.model, engine.graph, cfg)
    workload = ClosedLoopWorkload(
        n_requests, engine.graph.test_idx, clients=clients, seed=seed
    )
    return fleet.process(workload)


def run_fleet_sweep(engine: Engine, args, failures: list[str]):
    """Replica-count x router sweep.

    Returns ``(rows, metrics)``; broken claims are appended to ``failures``.
    """
    replica_counts = sorted(
        {int(x) for x in args.replicas.split(",")} | {1}
    )
    rows = []
    metrics: dict[str, float] = {}
    digests: set[str] = set()
    best_routed = 0.0
    single = 0.0
    for n in replica_counts:
        routers = ["direct"] if n == 1 else ["round_robin", "consistent_hash"]
        for router in routers:
            report = run_fleet_point(
                engine, replicas=n, router=router,
                clients=args.fleet_clients, n_requests=args.fleet_requests,
                embed_budget=args.embed_budget, seed=args.seed,
            )
            digests.add(report.digest())
            if n == 1:
                single = max(single, report.throughput)
            else:
                best_routed = max(best_routed, report.throughput)
            row = {
                "replicas": n,
                "router": router,
                "clients": args.fleet_clients,
                **report.row(),
            }
            row["spread"] = "/".join(
                str(c) for _, c in sorted(report.per_replica.items())
            )
            rows.append(row)
            metrics[f"fleet_req_per_s_n{n}_{router}"] = report.throughput
            metrics[f"fleet_p99_ms_n{n}_{router}"] = (
                report.latency_summary()["p99"] * 1e3
            )
    if len(digests) != 1:
        failures.append(
            f"fleet digests diverge across replica counts / routers: "
            f"{sorted(digests)} — exact serving must be replica-invariant"
        )
    metrics["fleet_speedup_vs_single"] = (
        best_routed / single if single > 0 else 0.0
    )
    if best_routed <= single:
        failures.append(
            f"no routed N>1 fleet out-throughputs the single replica at "
            f"clients={args.fleet_clients}: best {best_routed:.0f} vs "
            f"single {single:.0f} req/s"
        )
    return rows, metrics


def run_trace_overhead(engine: Engine, args, failures: list[str]) -> float:
    """Gate the observability layer's serving overhead.

    Serves the peak smoke point repeatedly with the process-wide tracer
    absent and installed, interleaved, taking the min wall time of each
    (min-of-N absorbs scheduler noise; the interleaving absorbs thermal /
    cache drift between the two arms).  Asserts the traced run stays
    within ``--overhead-budget`` (default 2%) of the untraced one and
    that both serve the identical logits digest — tracing must never
    perturb RNG or results.
    """
    from time import perf_counter

    from repro.obs import Tracer, get_tracer, set_tracer

    clients = max(int(x) for x in args.clients.split(","))
    prior = get_tracer()
    best = {False: float("inf"), True: float("inf")}
    digests: dict[bool, str] = {}
    spans = 0
    try:
        for _ in range(args.overhead_repeats):
            for traced in (False, True):
                tracer = Tracer() if traced else None
                set_tracer(tracer)
                t0 = perf_counter()
                report = run_point(
                    engine, clients=clients, n_requests=args.requests,
                    serve_batch_size=8, embed_budget=args.embed_budget,
                    seed=args.seed,
                )
                best[traced] = min(best[traced], perf_counter() - t0)
                digests[traced] = report.digest()
                if traced:
                    spans = len(tracer)
    finally:
        set_tracer(prior)
    ratio = best[True] / best[False]
    if digests[True] != digests[False]:
        failures.append(
            f"tracing perturbed the serving digest: "
            f"{digests[False]} (off) vs {digests[True]} (on)"
        )
    if not spans:
        failures.append("traced run recorded no spans — tracer not wired?")
    if ratio > 1.0 + args.overhead_budget:
        failures.append(
            f"tracing overhead {ratio:.3f}x exceeds the "
            f"{args.overhead_budget:.0%} budget (min of "
            f"{args.overhead_repeats}: {best[False] * 1e3:.1f}ms off vs "
            f"{best[True] * 1e3:.1f}ms on)"
        )
    print(
        f"trace overhead at clients={clients}: {ratio:.3f}x "
        f"(budget {1.0 + args.overhead_budget:.2f}x, {spans} spans/run, "
        f"digest stable)"
    )
    return ratio


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The command line, with ``--smoke``'s sizes applied."""
    parser = argparse.ArgumentParser(
        description="Offered load vs serving latency/throughput"
    )
    parser.add_argument("--dataset", default="products")
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--fanout", default="4,3")
    parser.add_argument("--hidden", type=int, default=16)
    parser.add_argument("--epochs", type=int, default=1)
    parser.add_argument("--clients", default="1,4,8,16",
                        help="comma-separated closed-loop client counts")
    parser.add_argument("--requests", type=int, default=96,
                        help="requests per sweep point")
    parser.add_argument("--embed-budget", type=float, default=65536.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sweep for CI (fewer points and requests)")
    parser.add_argument("--replicas", default=None, metavar="N,N,...",
                        help="fleet sizes for the replica x router sweep "
                        "(1 is always included as the baseline); omit to "
                        "skip the fleet sweep")
    parser.add_argument("--fleet-clients", type=int, default=128,
                        dest="fleet_clients", metavar="N",
                        help="closed-loop clients for the fleet sweep "
                        "(high offered load), default 128")
    parser.add_argument("--fleet-requests", type=int, default=512,
                        dest="fleet_requests", metavar="N",
                        help="requests per fleet sweep point, default 512")
    parser.add_argument("--trace-overhead", action="store_true",
                        dest="trace_overhead",
                        help="run only the observability overhead gate: "
                        "serve the peak point with the tracer off vs on, "
                        "assert wall-time ratio within --overhead-budget "
                        "and digest equality")
    parser.add_argument("--overhead-repeats", type=int, default=5,
                        dest="overhead_repeats", metavar="N",
                        help="min-of-N repeats per arm for the overhead "
                        "gate, default 5")
    parser.add_argument("--overhead-budget", type=float, default=0.02,
                        dest="overhead_budget", metavar="FRACTION",
                        help="allowed traced/untraced wall-time overhead, "
                        "default 0.02 (2%%)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.clients, args.requests = "1,8", 48
        args.fleet_clients = min(args.fleet_clients, 64)
        args.fleet_requests = min(args.fleet_requests, 256)
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
    """Clients x serving mode on one server.

    Returns ``(rows, metrics)``: the table, and the peak-load throughputs
    with and without micro-batching and their ratio.  Broken claims are
    appended to ``failures``.
    """
    reference = layerwise_inference(engine.model, engine.graph)
    client_counts = [int(x) for x in args.clients.split(",")]
    rows = []
    throughput: dict[tuple[int, int], float] = {}
    for clients in client_counts:
        for batch_size, budget in (
            (1, 0.0),
            (8, 0.0),
            (8, args.embed_budget),
        ):
            report = run_point(
                engine, clients=clients, n_requests=args.requests,
                serve_batch_size=batch_size, embed_budget=budget,
                seed=args.seed,
            )
            throughput[(clients, batch_size)] = max(
                throughput.get((clients, batch_size), 0.0), report.throughput
            )
            mismatch = sum(
                not np.array_equal(r.logits, reference[r.request.vertices])
                for r in report.results
            )
            if mismatch:
                failures.append(
                    f"clients={clients} batch={batch_size} budget={budget:g}: "
                    f"{mismatch} request(s) not bit-identical to "
                    f"layerwise_inference"
                )
            repeat = run_point(
                engine, clients=clients, n_requests=args.requests,
                serve_batch_size=batch_size, embed_budget=budget,
                seed=args.seed,
            )
            if repeat.digest() != report.digest():
                failures.append(
                    f"clients={clients} batch={batch_size}: digest not "
                    f"deterministic across repeated runs"
                )
            rows.append(
                {
                    "clients": clients,
                    "batch_cap": batch_size,
                    "embed_budget": int(budget),
                    **report.row(),
                }
            )
    for clients in client_counts:
        if clients < 8:
            continue
        if throughput[(clients, 8)] <= throughput[(clients, 1)]:
            failures.append(
                f"clients={clients}: micro-batched throughput "
                f"{throughput[(clients, 8)]:.0f} req/s not strictly above "
                f"per-request {throughput[(clients, 1)]:.0f} req/s"
            )
    peak = max(client_counts)
    metrics = {
        "peak_req_per_s_microbatch": throughput[(peak, 8)],
        "peak_req_per_s_per_request": throughput[(peak, 1)],
        "microbatch_speedup": throughput[(peak, 8)] / throughput[(peak, 1)],
    }
    return rows, metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    engine = train_engine(args)

    if args.trace_overhead:
        failures: list[str] = []
        run_trace_overhead(engine, args, failures)
        if failures:
            for f in failures:
                print(f"error: {f}", file=sys.stderr)
            return 1
        print("ok: tracing overhead within budget, digest unperturbed")
        return 0

    failures = []
    rows, metrics = run_sweep(engine, args, failures)
    print(format_table(
        rows,
        title=f"serving sweep: {args.dataset} scale={args.scale} "
        f"fanout={args.fanout} requests/point={args.requests}",
    ))
    if args.replicas is not None:
        fleet_rows, fleet_metrics = run_fleet_sweep(engine, args, failures)
        print(format_table(
            fleet_rows,
            title=f"serving fleet sweep: clients={args.fleet_clients} "
            f"requests/point={args.fleet_requests}",
        ))
        metrics.update(fleet_metrics)
    for name, value in metrics.items():
        print(f"{name}: {value}")

    if failures:
        for f in failures:
            print(f"error: {f}", file=sys.stderr)
        return 1
    print("ok: micro-batching beats per-request serving, logits "
          "bit-identical to layerwise inference (cache on or off), "
          "digests deterministic")
    if args.replicas is not None:
        print(f"ok: fleet digest replica-invariant, best routed fleet "
              f"{metrics['fleet_speedup_vs_single']:.2f}x the single "
              f"replica")
    return 0


if __name__ == "__main__":
    sys.exit(main())
