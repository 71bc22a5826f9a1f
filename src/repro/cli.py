"""Command-line interface: generate datasets, sample, train, serve, sweep.

Usage (after install)::

    python -m repro info
    python -m repro generate products --scale 0.5 --out products.npz
    python -m repro sample products --sampler ladies --batches 8
    python -m repro train products --epochs 5 --p 4 --c 2 --fanout 10,5
    python -m repro train --config examples/run_config.json
    python -m repro serve products --replicas 4 --router consistent_hash
    python -m repro sweep products --algorithm replicated

``train`` / ``serve`` / ``stream`` each build one
:class:`~repro.api.RunConfig` — from ``--config file.json``, from flags
(which override the file) or from the CLI defaults — and their knob flags
are not written here: :func:`add_config_flags` derives each from the
dataclass field it sets (``repro info`` prints the table).  Every choice
list is read, sorted, from a name table, so a sampler plugin loaded with
``--plugin my_module`` (an importable module that adds itself to
``SAMPLERS``) appears as a valid option everywhere.  Subcommands print
human-readable tables; simulated times follow the same semantics as the
benchmarks.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import sys
import time

import numpy as np

__all__ = ["main", "build_parser", "add_config_flags", "knob_table"]

#: ``fanout`` placeholder: without --config the default is the sampler
#: class's ``default_fanout``, known only once the sampler is.
_PER_SAMPLER = "per sampler"

#: What the training subcommands fall back to when no --config is given —
#: sized for a quick interactive run where RunConfig's own defaults are the
#: paper's.  ``serve`` / ``stream`` train for one epoch before serving.
_CLI_DEFAULTS = dict(
    dataset="products", p=4, batch_size=32, scale=0.25, hidden=32, lr=0.01,
    train_split=0.5, fanout=_PER_SAMPLER,
)
_SERVE_DEFAULTS = {**_CLI_DEFAULTS, "epochs": 1}

#: The RunConfig fields each subcommand exposes as ``--kebab-name`` flags
#: (see :func:`add_config_flags`); every other flag it has is not a knob.
_TRAIN_KNOBS = (
    "scale", "epochs", "p", "c", "k", "algorithm", "sampler",
    "fanout", "train_split", "batch_size", "hidden", "lr", "seed",
    "activation", "cache_budget", "cache_policy", "overlap",
)
_SERVING_KNOBS = (
    "scale", "epochs", "sampler", "fanout", "batch_size", "hidden",
    "seed", "serve_batch_size", "serve_max_wait", "embed_budget",
)
_SERVE_KNOBS = _SERVING_KNOBS + ("activation", "replicas", "router")
_STREAM_KNOBS = _SERVING_KNOBS + ("compaction_threshold",)


def _parse_fanout(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(
            f"invalid --fanout {text!r}: expected comma-separated integers "
            f"like 15,10,5"
        ) from None


def _user_error(exc: object) -> int:
    """Report a config/name/input problem as one line, exit code 2."""
    print(f"error: {exc}", file=sys.stderr)
    return 2


def add_config_flags(parser, names, cli_defaults) -> None:
    """One ``--kebab-name`` flag per named RunConfig field, everything about
    it read off the field's declaration: ``type``, ``choices`` (the name
    table's keys right now, sorted, plugins included), ``metavar`` and the help
    text, which ends with the default in force — ``cli_defaults`` where it
    has the field, the dataclass default otherwise.  Every flag parses to
    ``None`` when absent, so :func:`_resolve_train_config` can tell "not
    given" from any value."""
    from repro.api import RunConfig

    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    for name in names:
        f, m = fields[name], fields[name].metadata
        options = dict(
            default=None,
            help=f"{m['help']}; default {cli_defaults.get(name, f.default)}",
        )
        if m["type"] is bool:
            options["action"] = argparse.BooleanOptionalAction
        elif "registry" in m:
            options["choices"] = sorted(m["registry"])
        else:
            options["metavar"] = m.get("metavar")
            if m["type"] is not tuple:  # a tuple arrives as "N,N,..." text
                options["type"] = m["type"]
        parser.add_argument("--" + name.replace("_", "-"), **options)


def _add_run_parser(sub, name, knobs, cli_defaults, **kwargs):
    """A subcommand that builds a RunConfig: the dataset positional,
    --config, its knobs' flags and the observability flags.  The parsed
    namespace carries ``cli_defaults`` for :func:`_resolve_train_config`."""
    from repro.graphs import dataset_names

    parser = sub.add_parser(name, **kwargs)
    parser.set_defaults(cli_defaults=cli_defaults)
    parser.add_argument("dataset", nargs="?", default=None,
                        choices=dataset_names())
    parser.add_argument("--config", default=None, metavar="FILE.json",
                        help="RunConfig JSON (repro.api.RunConfig.to_json); "
                        "flags given explicitly override it")
    add_config_flags(parser, knobs, cli_defaults)
    parser.add_argument(
        "--trace", default=None, metavar="OUT.json",
        help="record spans and write a Chrome trace-event JSON "
        "(load in Perfetto or chrome://tracing; summarize with "
        "`repro trace OUT.json`)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="collect counters/histograms and print a Prometheus-style "
        "text dump after the run",
    )
    return parser


def build_parser() -> argparse.ArgumentParser:
    from repro.api import ALGORITHMS, SAMPLERS
    from repro.graphs import dataset_names

    datasets = dataset_names()
    # A sweep varies the GPU count: every algorithm but the one-device one.
    sweep_algorithms = sorted(set(ALGORITHMS) - {"single"})

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed matrix-based GNN sampling (MLSys 2024 reproduction)",
    )
    parser.add_argument(
        "--plugin", action="append", default=[], metavar="MODULE",
        help="import MODULE before running (for sampler plugins); repeatable",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print version, simulated machine config, "
                   "samplers, algorithms and the RunConfig knob table")

    gen = sub.add_parser("generate", help="generate a dataset stand-in to .npz")
    gen.add_argument("dataset", choices=datasets)
    gen.add_argument("--scale", type=float, default=0.5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--labels", action="store_true", help="planted labels")
    gen.add_argument("--out", required=True)

    smp = sub.add_parser("sample", help="bulk-sample minibatches, print stats")
    smp.add_argument("dataset", choices=datasets)
    smp.add_argument("--sampler", default="sage", choices=sorted(SAMPLERS))
    smp.add_argument("--scale", type=float, default=0.25)
    smp.add_argument("--batches", type=int, default=8)
    smp.add_argument("--batch-size", type=int, default=32)
    smp.add_argument("--fanout", default="5,3")
    smp.add_argument("--seed", type=int, default=0)

    _add_run_parser(
        sub, "train", _TRAIN_KNOBS, _CLI_DEFAULTS,
        help="train the pipeline on a sim cluster",
        description="Flags override --config; without --config unset flags "
        "use the defaults shown (dataset defaults to 'products'). Giving "
        "--c > 1 without --algorithm selects the partitioned algorithm, "
        "the only one a replication group is meaningful for.",
    )

    srv = _add_run_parser(
        sub, "serve", _SERVE_KNOBS, _SERVE_DEFAULTS,
        help="online inference serving over a request trace",
        description="Trains a model (--epochs, default 1), then serves a "
        "request trace through the micro-batching server (a "
        "ServingCluster; one replica unless --replicas says more) and "
        "reports p50/p95/p99 latency, throughput and a deterministic "
        "logits digest.  Without --requests, a synthetic trace of "
        "--synthetic requests against the test split is generated.",
    )
    srv.add_argument("--requests", default=None, metavar="TRACE.json",
                     help="JSON request trace: a list of "
                     '{"arrival": seconds, "vertices": [ids]} objects')
    srv.add_argument("--synthetic", type=int, default=32, metavar="N",
                     help="synthetic trace size when --requests is absent")

    stm = _add_run_parser(
        sub, "stream", _STREAM_KNOBS, _SERVE_DEFAULTS,
        help="serving under live edge churn (delta-CSR + invalidation)",
        description="Trains a model (--epochs, default 1), then serves a "
        "synthetic request trace interleaved with edge insert/delete "
        "batches through the same server over a streaming graph: updates "
        "broadcast to every replica, land in a "
        "delta-CSR overlay, compact at --compaction-threshold (parity "
        "with a from-scratch rebuild asserted), and invalidate the dirty "
        "vertices' cached embeddings.  Reports latency, update/compaction "
        "counts, a deterministic logits digest, and (with --verify) "
        "asserts post-churn logits are bit-identical to layer-wise "
        "inference on a from-scratch rebuild of the final graph.",
    )
    stm.add_argument("--requests", type=int, default=48, metavar="N",
                     help="synthetic request count, default 48")
    stm.add_argument("--update-ratio", type=float, default=0.25, metavar="R",
                     help="edge-update batches per request, default 0.25")
    stm.add_argument("--edges-per-update", type=int, default=8, metavar="E",
                     help="edges per update batch, default 8")
    stm.add_argument("--delete-fraction", type=float, default=0.5, metavar="F",
                     help="fraction of update batches that delete, default 0.5")
    stm.add_argument("--verify", action="store_true",
                     help="assert post-churn parity with a from-scratch "
                     "rebuild of the final graph")

    swp = sub.add_parser("sweep", help="figure-4-style GPU-count sweep")
    swp.add_argument("dataset", choices=datasets)
    swp.add_argument("--algorithm", default="replicated",
                     choices=sweep_algorithms)
    swp.add_argument("--gpus", default="4,8,16,32")

    trc = sub.add_parser(
        "trace",
        help="summarize (or schema-check) an exported trace JSON",
        description="Reads a Chrome trace-event JSON written by "
        "--trace (or any Perfetto-loadable file) and prints the top "
        "spans by self-time, the per-category breakdown, and the "
        "slowest-request exemplars.",
    )
    trc.add_argument("file", metavar="TRACE.json")
    trc.add_argument("--top", type=int, default=10, metavar="N",
                     help="rows per section, default 10")
    trc.add_argument("--validate", action="store_true",
                     help="schema-check only: exit 0 if the file is a "
                     "well-formed Chrome trace, 1 with errors listed")
    return parser


def _setup_obs(args) -> None:
    """Install the tracer / metrics registry the flags ask for (before
    the engine is built, so its construction and training are traced)."""
    from repro.obs import MetricsRegistry, Tracer, set_registry, set_tracer
    from repro.obs.trace import get_tracer

    if args.trace and get_tracer() is None:
        set_tracer(Tracer())
    if args.metrics:
        set_registry(MetricsRegistry())


def _finish_obs(args) -> None:
    """Write the trace file / print the metrics dump, if enabled."""
    from repro.obs import get_registry, write_chrome_trace
    from repro.obs.trace import get_tracer

    tracer = get_tracer()
    if args.trace and tracer is not None:
        path = write_chrome_trace(args.trace, tracer.spans)
        print(f"wrote trace: {path} ({len(tracer)} spans)")
    registry = get_registry()
    if args.metrics and registry is not None:
        print(registry.render(), end="")


def knob_table() -> str:
    """Every RunConfig knob as one markdown table — field, the flag that
    sets it (and on which subcommands), default, meaning — generated from
    the dataclass; ``repro info`` prints it and the README embeds it."""
    from repro.api import RunConfig
    from repro.api.config import knob_expectation

    commands = (("train", _TRAIN_KNOBS), ("serve", _SERVE_KNOBS),
                ("stream", _STREAM_KNOBS))
    rows = ["| field | flag | default | meaning |", "|---|---|---|---|"]
    for f in dataclasses.fields(RunConfig):
        if "retired" in f.metadata:  # a removed knob's key: no flag, no row
            continue
        on = [cmd for cmd, knobs in commands if f.name in knobs]
        if f.name == "dataset":
            flag = "`DATASET` positional (train, serve, stream)"
        elif on:
            flag = f"`--{f.name.replace('_', '-')}` ({', '.join(on)})"
        else:
            flag = "— (JSON only)"
        default = f.default_factory() if f.default is dataclasses.MISSING else f.default
        default = getattr(default, "name", default)  # a MachineConfig by name
        if f.name in _CLI_DEFAULTS:
            default = f"{default}; CLI {_CLI_DEFAULTS[f.name]}"
        rows.append(
            f"| `{f.name}` | {flag} | `{default}` | {f.metadata['help']} — "
            f"{knob_expectation(f)} |"
        )
    return "\n".join(rows)


def _cmd_info(args) -> int:
    import repro
    from repro.api import ALGORITHMS, SAMPLERS
    from repro.machine import PERLMUTTER_LIKE

    m = PERLMUTTER_LIKE
    print(f"repro {repro.__version__}")
    print(f"machine: {m.name} ({m.devices_per_node} devices/node)")
    print(f"  device: {m.device.flops_per_s / 1e12:.1f} TF/s, "
          f"{m.device.mem_bw / 1e9:.0f} GB/s HBM, "
          f"{m.device.memory_bytes / 1e9:.0f} GB")
    print(f"  intra-node link: {1 / m.intra_node.beta / 1e9:.0f} GB/s")
    print(f"  inter-node link: {1 / m.inter_node.beta / 1e9:.0f} GB/s")
    print(f"samplers: {', '.join(sorted(SAMPLERS))}")
    print(f"algorithms: {', '.join(sorted(ALGORITHMS))}")
    print("RunConfig knobs (serve/stream default to --epochs 1):")
    print(knob_table())
    return 0


def _cmd_generate(args) -> int:
    from repro.graphs import load_dataset, save_graph, summarize

    try:
        graph = load_dataset(
            args.dataset, scale=args.scale, seed=args.seed,
            with_labels=args.labels,
        )
    except ValueError as exc:
        return _user_error(exc)
    path = save_graph(graph, args.out)
    row = summarize(graph).row()
    print(f"wrote {path}")
    for k, v in row.items():
        print(f"  {k}: {v}")
    return 0


def _cmd_sample(args) -> int:
    from repro.api import make_sampler
    from repro.graphs import load_dataset

    try:
        fanout = _parse_fanout(args.fanout)
        graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
        sampler = make_sampler(args.sampler, graph=graph)
    except ValueError as exc:
        return _user_error(exc)
    rng = np.random.default_rng(args.seed)
    batches = [
        rng.choice(graph.n, args.batch_size, replace=False)
        for _ in range(args.batches)
    ]
    t0 = time.perf_counter()
    try:
        # sample_bulk validates user input (fanout entries, batch ranges).
        samples = sampler.sample_bulk(graph.adj, batches, fanout, rng)
    except ValueError as exc:
        return _user_error(exc)
    dt = time.perf_counter() - t0
    edges = sum(mb.total_edges() for mb in samples)
    frontier = sum(mb.input_frontier.size for mb in samples)
    print(f"sampled {len(samples)} minibatches with {sampler.name} "
          f"in {dt * 1e3:.1f} ms (wall)")
    print(f"  total sampled edges: {edges}")
    print(f"  total input frontier: {frontier} vertices")
    print(f"  layers per batch: {samples[0].num_layers}")
    return 0


def _resolve_train_config(args):
    """Merge --config (if any), explicit flags, and CLI defaults into one
    validated RunConfig."""
    from repro.api import RunConfig, SAMPLERS

    knobs = {f.name for f in dataclasses.fields(RunConfig)}
    overrides = {
        name: value for name, value in vars(args).items()
        if name in knobs and value is not None
    }
    if "fanout" in overrides:
        overrides["fanout"] = _parse_fanout(overrides["fanout"])
    if args.config is not None:
        cfg = RunConfig.from_json(args.config).replace(**overrides)
        if cfg.dataset is None:
            raise ValueError(
                "no dataset given (positional argument or --config)"
            )
        return cfg
    settings = dict(args.cli_defaults)
    # A replication group only means something on the p/c x c grid, so an
    # explicit --c > 1 without --algorithm selects the partitioned path
    # instead of failing the grid validation downstream.
    if overrides.get("c", 1) > 1 and "algorithm" not in overrides:
        settings["algorithm"] = "partitioned"
    settings.update(overrides)
    if settings["fanout"] is _PER_SAMPLER:
        # --sampler's choices are SAMPLERS' keys.
        sampler = settings.get("sampler", RunConfig.sampler)
        settings["fanout"] = SAMPLERS[sampler].default_fanout
    return RunConfig(**settings)


def _cmd_train(args) -> int:
    from repro.api import Engine

    try:
        cfg = _resolve_train_config(args)
        _setup_obs(args)
        engine = Engine(cfg)
        print(f"dataset {cfg.dataset} (scale {cfg.scale}): "
              f"sampler {cfg.sampler}, algorithm {cfg.algorithm}, "
              f"p={cfg.p} c={cfg.c}")
        engine.pipeline  # build the sampler, backend and model before training
    except (ValueError, KeyError, FileNotFoundError) as exc:
        return _user_error(exc)
    epoch_times = []
    for epoch in range(cfg.epochs):
        stats = engine.train_epoch(epoch)
        epoch_times.append(stats.epoch_seconds)
        loss_txt = (
            f"loss {stats.loss:.4f}" if stats.loss is not None
            else "loss n/a"
        )
        line = (f"epoch {epoch}: {loss_txt}  "
                f"sim-time {stats.epoch_seconds:.5f}s "
                f"(sampling {stats.sampling:.5f} / "
                f"fetch {stats.feature_fetch:.5f}"
                f" / prop {stats.propagation:.5f})")
        if stats.pipelined_total is not None:
            line += f" overlap saved {stats.overlap_saved:.5f}s"
        if stats.fetch_hit_rate is not None:
            line += f" cache hit-rate {stats.fetch_hit_rate:.2%}"
        print(line)
    if len(epoch_times) > 1:
        from repro.bench.reporting import format_latency_summary

        print(format_latency_summary(epoch_times, label="sim-time summary"))
    print(f"test accuracy: {engine.evaluate('test'):.3f}")
    _finish_obs(args)
    return 0


def _cmd_serving(args) -> int:
    """``repro serve`` and ``repro stream``: train, build the server, run
    the command's workload through it, print the report.  ``stream`` is
    ``serve`` over a streaming graph with edge updates in the workload."""
    from repro.api import Engine
    from repro.bench.reporting import format_latency_summary
    from repro.serve import TraceWorkload, load_trace
    from repro.stream import UpdateStream

    streaming = args.command == "stream"
    try:
        cfg = _resolve_train_config(args)
        if streaming:
            cfg = cfg.replace(stream_updates=True)
        # A trace file is read and checked before anything is built or
        # trained, so a malformed one fails in milliseconds.
        trace = (
            load_trace(args.requests)
            if not streaming and args.requests is not None else None
        )
        _setup_obs(args)
        engine = Engine(cfg)
        # One consolidated banner up front: the dataset/serving knobs plus
        # the effective replica/router config.
        line = (f"dataset {cfg.dataset} (scale {cfg.scale}): sampler "
                f"{cfg.sampler}, serve_batch_size={cfg.serve_batch_size}, "
                f"serve_max_wait={cfg.serve_max_wait}, "
                f"embed_budget={cfg.embed_budget:.0f}")
        if streaming:
            line += f", compaction_threshold={cfg.compaction_threshold}"
        print(line)
        print(f"fleet: {cfg.replicas} replica(s), router {cfg.router}")
        engine.train(cfg.epochs)
        server = engine.serving()
        pool = engine.graph.test_idx
        if pool.size == 0:
            pool = np.arange(engine.graph.n, dtype=np.int64)
        if streaming:
            workload = UpdateStream.synthetic(
                engine.graph.adj, pool, n_requests=args.requests,
                update_ratio=args.update_ratio,
                edges_per_update=args.edges_per_update,
                delete_fraction=args.delete_fraction, seed=cfg.seed,
                interarrival=1e-4,
            )
        elif trace is not None:
            workload = trace
        else:
            workload = TraceWorkload.synthetic(
                args.synthetic, pool, seed=cfg.seed, interarrival=1e-4
            )
        # Serving checks request vertices against the graph lazily, so an
        # out-of-range vertex surfaces here — still a user error, not a bug.
        report = server.process(workload)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        return _user_error(exc)
    line = (f"served {report.n_requests} requests in {report.batches} "
            f"micro-batches (mean {report.mean_batch_size:.2f} req/batch)")
    if report.update_stats is not None:
        line += (f" under {report.update_stats.batches} update batches "
                 f"({report.update_stats.applied} edge edits, "
                 f"{report.update_stats.compactions} compactions)")
    elif streaming:
        line += " (no edge updates)"
    print(line)
    print(format_latency_summary(report.latencies, label="latency"))
    line = f"throughput: {report.throughput:.0f} req/s (simulated)"
    if report.cache_stats is not None:
        line += (f"  embed-cache hit-rate: {report.cache_stats.hit_rate:.2%}"
                 f" ({report.cache_stats.invalidations} invalidations)")
    print(line)
    if len(report.per_replica) > 1:
        spread = "  ".join(
            f"r{rid}:{n}" for rid, n in sorted(report.per_replica.items())
        )
        print(f"per-replica requests: {spread}")
    phases = "  ".join(
        f"{ph} {s:.6f}s" for ph, s in sorted(report.phase_seconds.items())
    )
    print(f"service breakdown: {phases}")
    print(f"logits digest: {report.digest()}")
    if streaming and args.verify:
        from repro.pipeline import layerwise_inference

        rebuilt = server.stream.rebuild_from_scratch()
        reference = layerwise_inference(engine.model, rebuilt)
        verts = pool[: min(64, pool.size)]
        if not np.array_equal(server.serve(verts), reference[verts]):
            print("error: post-churn logits differ from a from-scratch "
                  "rebuild of the final graph", file=sys.stderr)
            return 1
        print("verified: post-churn logits bit-identical to from-scratch "
              "rebuild")
    _finish_obs(args)
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import (
        format_trace_summary,
        load_trace_file,
        validate_chrome_trace,
    )

    try:
        payload = load_trace_file(args.file)
    except (OSError, ValueError) as exc:
        return _user_error(exc)
    if args.validate:
        errors = validate_chrome_trace(payload)
        if errors:
            for problem in errors[:20]:
                print(f"schema: {problem}", file=sys.stderr)
            if len(errors) > 20:
                print(f"schema: ... and {len(errors) - 20} more",
                      file=sys.stderr)
            return 1
        print(f"valid Chrome trace: {args.file}")
        return 0
    print(format_trace_summary(payload, top=args.top))
    return 0


def _cmd_sweep(args) -> int:
    from repro.bench import SIM_WORKLOADS, format_table, load_bench_graph
    from repro.bench.harness import run_pipeline_epoch

    workload = SIM_WORKLOADS[args.dataset]
    graph = load_bench_graph(workload)
    rows = []
    for p in (int(x) for x in args.gpus.split(",")):
        stats, c, k = run_pipeline_epoch(
            graph, workload, p=p, algorithm=args.algorithm
        )
        rows.append(
            {
                "p": p,
                "c": c,
                "k": k,
                "sampling_s": stats.sampling,
                "fetch_s": stats.feature_fetch,
                "prop_s": stats.propagation,
                "total_s": stats.total,
            }
        )
    print(format_table(rows, title=f"{args.dataset} / {args.algorithm} sweep"))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # Import plugin modules before building the parser so their SAMPLERS
    # entries show up in the --sampler choices.  The
    # flag is consumed here (accepted anywhere, including after the
    # subcommand) and stripped before argparse sees the rest.
    remaining: list[str] = []
    plugins: list[str] = []
    it = iter(argv)
    for arg in it:
        if arg == "--plugin":
            plugins.append(next(it, ""))
        elif arg.startswith("--plugin="):
            plugins.append(arg.split("=", 1)[1])
        else:
            remaining.append(arg)
    try:
        for module in plugins:
            if not module:
                raise ImportError("--plugin needs a module name")
            importlib.import_module(module)
    except ImportError as exc:
        return _user_error(f"could not import plugin: {exc}")
    args = build_parser().parse_args(remaining)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:  # e.g. `repro train ... | head`
        return 0


_COMMANDS = {
    "info": _cmd_info, "generate": _cmd_generate, "sample": _cmd_sample,
    "train": _cmd_train, "serve": _cmd_serving, "stream": _cmd_serving,
    "sweep": _cmd_sweep, "trace": _cmd_trace,
}


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
