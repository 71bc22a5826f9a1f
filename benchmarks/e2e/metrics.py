"""What the benchmark reports: metric names, units and how each is computed.

``BENCHMARK.json`` declares the same names with directions and bounds;
``run.py --selftest`` checks the two agree.  README.md is the glossary.
"""

from __future__ import annotations

import statistics

from repro.bench import percentiles

#: End-to-end metrics (tracing off): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "epoch_s": "s",
    "comm_bytes": "bytes",
    "serve_ms_p50": "ms",
    "serve_ms_p95": "ms",
    "serve_req_per_s": "req/s",
    "update_ms_p50": "ms",
    "update_ms_p95": "ms",
    "peak_rss_mb": "MiB",
}

#: Per-layer seconds: metric -> spans whose *self* time it sums.
LAYER_SECONDS = {
    "sparse.spgemm_s": ("sparse.spgemm",),
    "sparse.from_coo_s": ("sparse.from_coo",),
    "sparse.spmm_s": ("sparse.spmm",),
    "core.sample_bulk_s": ("core.sample_bulk",),
    "core.its_s": ("core.its",),
    "distributed.spgemm_15d_s": ("distributed.spgemm_15d",),
    "comm.allreduce_s": ("comm.allreduce",),
    "comm.alltoallv_s": ("comm.alltoallv",),
    "partition.fetch_s": ("partition.fetch",),
    "gnn.forward_s": ("gnn.forward",),
    "gnn.backward_s": ("gnn.backward",),
    "gnn.optimizer_s": ("gnn.optimizer",),
    "pipeline.other_s": ("pipeline.epoch",),
    "serve.serve_batch_s": ("serve.serve_batch", "serve.logits_for"),
    "serve.route_s": ("serve.route",),
    "serve.absorb_update_s": ("serve.absorb_update",),
    "stream.apply_s": ("stream.apply",),
    "stream.compact_s": ("stream.compact",),
}
#: Per-layer call counts: metric -> span.
LAYER_CALLS = {
    "sparse.spgemm_calls": "sparse.spgemm",
    "sparse.from_coo_calls": "sparse.from_coo",
    "sparse.spmm_calls": "sparse.spmm",
    "core.sample_bulk_calls": "core.sample_bulk",
    "distributed.spgemm_15d_calls": "distributed.spgemm_15d",
    "gnn.steps": "gnn.optimizer",
}
#: Counts taken at the traced boundaries or read from the program's public
#: stats objects: metric -> unit.
LAYER_COUNTS = {
    "sparse.spgemm_out_nnz": "count",
    "core.sampled_edges": "count",
    "comm.collective_calls": "count",
    "comm.bytes_sent": "bytes",
    "comm.messages": "count",
    "partition.fetch_rows": "count",
    "partition.cache_hit_rate": "ratio",
    "partition.cache_bytes_saved": "bytes",
    "pipeline.sim_epoch_s": "s",
    "serve.batches": "count",
    "serve.mean_batch_size": "count",
    "serve.embed_hit_rate": "ratio",
    "serve.embed_evictions": "count",
    "serve.prob_cache_hit_rate": "ratio",
    "serve.shed": "count",
    "serve.replica_spread": "ratio",
    "serve.sim_p99_ms": "ms",
    "serve.invalidations": "count",
    "stream.updates": "count",
    "stream.compactions": "count",
    "stream.dirty_vertices": "count",
}
#: Ratios that involve a wall-clock measurement: metric -> unit.
LAYER_RATIOS = {
    "pipeline.sim_over_wall": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.untraced_frac": "ratio",
}
#: Per-layer metrics that repeat exactly for one code and seed.
EXACT = frozenset(LAYER_CALLS) | frozenset(LAYER_COUNTS)


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in LAYER_SECONDS}
    units.update({name: "count" for name in LAYER_CALLS})
    units.update(LAYER_COUNTS)
    units.update(LAYER_RATIOS)
    return units


def _percentile(values, q: float) -> float:
    return percentiles(values, (q,))[q]


def _replayed(rounds, attr: str) -> list[float]:
    """Per-operation latency: every round replays the same operations, so
    operation ``i`` is given the fastest of its wall times over the rounds.

    A shared box only ever slows a measurement down (a busy sibling core, a
    page-fault storm), in bursts of a second or two; the fastest replay
    drops those and keeps what belongs to the operation itself (a heavy
    vertex, the update that triggers a compaction).
    """
    return [min(ms) for ms in zip(*(getattr(r, attr) for r in rounds))]


def end_to_end(rounds, peak_rss_mb: float) -> dict[str, dict]:
    """Each metric's value and unit, the per-round values behind it
    (``compare.py`` takes the run-to-run spread from them) and its sample
    count.

    Every timing but ``setup_s`` is the fastest of the run's replays (see
    :func:`_replayed`); ``setup_s`` is the median over the rounds, as the
    benchmark contract asks.  Percentiles are nearest-rank over the
    replayed operations.
    """
    epochs = [s for r in rounds for s in r.epoch_s]
    per_round = {
        "setup_s": [r.setup_s for r in rounds],
        "epoch_s": [min(r.epoch_s) for r in rounds],
        # A count: every round of one code and seed sends the same bytes.
        "comm_bytes": [r.comm_bytes for r in rounds],
        "serve_ms_p50": [_percentile(r.serve_ms, 50) for r in rounds],
        "serve_ms_p95": [_percentile(r.serve_ms, 95) for r in rounds],
        "serve_req_per_s": [r.process_requests / r.process_s for r in rounds],
        "update_ms_p50": [_percentile(r.update_ms, 50) for r in rounds],
        "update_ms_p95": [_percentile(r.update_ms, 95) for r in rounds],
        "peak_rss_mb": [peak_rss_mb],
    }
    serve, update = _replayed(rounds, "serve_ms"), _replayed(rounds, "update_ms")
    values = {
        "setup_s": (statistics.median(per_round["setup_s"]), len(rounds)),
        "epoch_s": (min(epochs), len(epochs)),
        "comm_bytes": (rounds[0].comm_bytes, len(rounds)),
        "serve_ms_p50": (_percentile(serve, 50), len(serve)),
        "serve_ms_p95": (_percentile(serve, 95), len(serve)),
        "serve_req_per_s": (max(per_round["serve_req_per_s"]), len(rounds)),
        "update_ms_p50": (_percentile(update, 50), len(update)),
        "update_ms_p95": (_percentile(update, 95), len(update)),
        "peak_rss_mb": (peak_rss_mb, 1),
    }
    return {
        name: {"value": value, "unit": END_TO_END[name], "n": n,
               "per_round": per_round[name]}
        for name, (value, n) in values.items()
    }


def per_layer(plain, traced) -> tuple[dict[str, dict], list[dict]]:
    """The per-layer metrics and the full span table.

    ``plain`` are the untraced rounds, ``traced`` pairs of (round, tracer).
    Seconds are medians over the traced rounds; counts come from the first
    traced round and are the same in every round.
    """
    tables = [tracer.table() for _, tracer in traced]
    first_round, first_tracer = traced[0]

    def seconds(span: str, column: str = "self_s") -> float:
        return statistics.median(t.get(span, {}).get(column, 0.0) for t in tables)

    values = {
        name: sum(seconds(span) for span in spans)
        for name, spans in LAYER_SECONDS.items()
    }
    for name, span in LAYER_CALLS.items():
        values[name] = tables[0].get(span, {}).get("calls", 0)
    for name in LAYER_COUNTS:
        values[name] = first_tracer.counts.get(name, first_round.counts.get(name, 0))
    values["pipeline.sim_over_wall"] = values["pipeline.sim_epoch_s"] / min(
        s for r in plain for s in r.epoch_s
    )
    # Every timed call at its fastest replay, traced over untraced, with as
    # many rounds on either side; round 0 is left out because it runs cold.
    def fastest(rounds) -> float:
        return sum(min(call) for call in zip(*(r.timed_calls() for r in rounds)))

    pairs = min(len(traced), len(plain) - 1)
    values["trace.overhead_frac"] = (
        fastest([r for r, _ in traced[:pairs]]) / fastest(plain[1 : pairs + 1]) - 1.0
    )
    values["trace.untraced_frac"] = statistics.median(
        self_s / total for total, self_s in (t.root_seconds() for _, t in traced)
    )

    units = per_layer_units()
    metrics = {
        name: {"value": value, "unit": units[name], "exact": name in EXACT}
        for name, value in values.items()
    }
    table = [
        {
            "span": span,
            "layer": span.split(".")[0],
            "calls": row["calls"],
            "self_s": seconds(span),
            "total_s": seconds(span, "total_s"),
            "entry_s": seconds(span, "entry_s"),
        }
        for span, row in tables[0].items()
    ]
    busy = sum(row["self_s"] for row in table)  # self times add up to the whole
    for row in table:
        row["self_share"] = row["self_s"] / busy
        row["entry_share"] = row["entry_s"] / busy
    table.sort(key=lambda row: -row["self_s"])
    return metrics, table


def entry_shares(table: list[dict]) -> dict[str, float]:
    """Share of the traced time spent under each layer's entry points: the
    spans the harness calls into directly, with everything beneath them."""
    shares: dict[str, float] = {}
    for row in table:
        if row["entry_share"]:
            shares[row["layer"]] = shares.get(row["layer"], 0.0) + row["entry_share"]
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
