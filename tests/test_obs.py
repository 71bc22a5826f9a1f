"""The observability layer: tracer, metrics, exporters, and the two
properties everything hangs on — tracing off is a free no-op that never
perturbs results, and the sim-domain trace of a deterministic run is a
pure function of seed + config (byte-identical across worker counts)."""

from __future__ import annotations

import copy
import hashlib
import json

import numpy as np
import pytest

from repro.api import Engine, RunConfig
from repro.comm import SimClock
from repro.obs import (
    MetricsRegistry,
    Span,
    Tracer,
    chrome_trace,
    chrome_trace_json,
    format_trace_summary,
    get_registry,
    get_tracer,
    maybe_span,
    set_registry,
    set_tracer,
    summarize_trace,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
)
from repro.serve import ServingCluster, TraceWorkload
from test_gnn import skip_unless_pinned_kernels

@pytest.fixture(autouse=True)
def _clean_globals():
    """Every test starts with tracing and metrics off (even under
    REPRO_TRACE=1) and leaves the process-wide state as it found it."""
    prior_tracer = set_tracer(None)
    prior_registry = set_registry(None)
    try:
        yield
    finally:
        set_tracer(prior_tracer)
        set_registry(prior_registry)


@pytest.fixture(scope="module")
def trained_engine() -> Engine:
    cfg = RunConfig(
        dataset="products", scale=0.05, train_split=0.5, p=1, c=1,
        algorithm="single", sampler="sage", fanout=(4, 3), batch_size=8,
        hidden=16, epochs=1, seed=0,
    )
    engine = Engine(cfg)
    engine.train(1)
    return engine


# ------------------------------------------------------------------ #
# Tracer
# ------------------------------------------------------------------ #
class TestTracer:
    def test_wall_span_times_with_perf_counter(self):
        tracer = Tracer()
        with tracer.span("work", cat="test"):
            pass
        (sp,) = tracer.spans
        assert sp.domain == "wall"
        assert sp.end >= sp.start
        assert sp.track == "main" and sp.seq == 0

    def test_sim_span_reads_clock_plus_offset(self):
        tracer = Tracer()
        clock = SimClock(1)
        with tracer.span("batch", clock=clock, offset=10.0, track="r0"):
            clock.advance(0, 2.5)
        (sp,) = tracer.spans
        assert sp.domain == "sim"
        assert sp.start == pytest.approx(10.0)
        assert sp.end == pytest.approx(12.5)

    def test_nested_span_inherits_track_clock_offset(self):
        tracer = Tracer()
        clock = SimClock(1)
        with tracer.span("outer", clock=clock, offset=5.0, track="r1"):
            clock.advance(0, 1.0)
            with tracer.span("inner"):
                clock.advance(0, 1.0)
        inner, outer = tracer.spans  # inner closes (and records) first
        assert inner.name == "inner"
        assert inner.track == "r1" and inner.domain == "sim"
        assert inner.start == pytest.approx(6.0)
        assert inner.end == pytest.approx(7.0)
        assert outer.seq == 0 and inner.seq == 1  # seq assigned at open

    def test_wall_domain_escapes_enclosing_sim_clock(self):
        tracer = Tracer()
        clock = SimClock(1)
        with tracer.span("outer", clock=clock, track="r0"):
            with tracer.span("step", domain="wall", track="steps"):
                pass
        step = tracer.spans[0]
        assert step.domain == "wall" and step.track == "steps"

    def test_seq_is_per_track(self):
        tracer = Tracer()
        tracer.instant("a", t=0.0, track="x")
        tracer.instant("b", t=0.0, track="y")
        tracer.instant("c", t=0.0, track="x")
        seqs = {(s.track, s.name): s.seq for s in tracer.spans}
        assert seqs == {("x", "a"): 0, ("y", "b"): 0, ("x", "c"): 1}

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(maxlen=2)
        for i in range(4):
            tracer.instant(f"i{i}", t=float(i))
        assert [s.name for s in tracer.spans] == ["i2", "i3"]

    def test_async_span_records_pair(self):
        tracer = Tracer()
        tracer.async_span("request", aid=7, start=1.0, end=3.0, track="r0")
        (sp,) = tracer.spans
        assert sp.kind == "async" and sp.aid == 7
        assert sp.duration == pytest.approx(2.0)

    def test_maybe_span_is_noop_without_tracer(self):
        assert get_tracer() is None
        with maybe_span("anything", cat="x") as sp:
            assert sp is None

    def test_maybe_span_records_with_tracer(self):
        tracer = Tracer()
        set_tracer(tracer)
        with maybe_span("thing", cat="x") as sp:
            sp.args["k"] = 1
        assert len(tracer) == 1
        assert tracer.spans[0].args == {"k": 1}

    def test_set_tracer_returns_previous(self):
        t1 = Tracer()
        assert set_tracer(t1) is None
        assert set_tracer(None) is t1


# ------------------------------------------------------------------ #
# Metrics
# ------------------------------------------------------------------ #
class TestMetrics:
    def test_counter_inc_and_set(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", "requests")
        c.inc()
        c.inc(2)
        assert c.value == 3
        c.set(10)
        assert c.value == 10
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = MetricsRegistry().gauge("replicas")
        g.inc(3)
        g.inc(-1)
        assert g.value == 2

    def test_labels_key_distinct_children(self):
        reg = MetricsRegistry()
        a = reg.counter("served_total", replica=0)
        b = reg.counter("served_total", replica=1)
        assert a is not b
        assert reg.counter("served_total", replica=0) is a

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x_total")

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            MetricsRegistry().counter("bad name")

    def test_histogram_buckets_and_quantile(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.count == 4
        assert h.counts == [1, 1, 1, 1]
        assert h.quantile(0.5) == 2.0
        assert h.quantile(1.0) == float("inf")

    def test_render_prometheus_text(self):
        reg = MetricsRegistry()
        reg.counter("served_total", "requests served", replica=1).set(5)
        reg.gauge("hit_rate").set(0.25)
        reg.histogram("lat_seconds", buckets=(0.1,)).observe(0.05)
        text = reg.render()
        assert "# HELP served_total requests served" in text
        assert "# TYPE served_total counter" in text
        assert 'served_total{replica="1"} 5' in text
        assert "hit_rate 0.25" in text
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text
        # Deterministic: same registry renders byte-identically.
        assert text == reg.render()

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c_total", path='we"ird\\').inc()
        assert 'c_total{path="we\\"ird\\\\"} 1' in reg.render()

    def test_set_registry_returns_previous(self):
        reg = MetricsRegistry()
        assert set_registry(reg) is None
        assert get_registry() is reg
        assert set_registry(None) is reg


# ------------------------------------------------------------------ #
# Chrome export + summary
# ------------------------------------------------------------------ #
def _sample_spans() -> list[Span]:
    return [
        Span("batch", "serve", "sim", "replica0", 0.0, 2.0, 0),
        Span("sampling", "serve", "sim", "replica0", 0.0, 1.5, 1),
        Span("route", "router", "sim", "router", 0.0, 0.0, 0,
             kind="instant", args={"req": 0}),
        Span("request", "request", "sim", "replica0", 0.0, 2.0, 2,
             kind="async", aid=0),
        Span("PROB", "plan", "wall", "steps", 100.0, 100.5, 0),
    ]


class TestChromeExport:
    def test_event_shapes(self):
        payload = chrome_trace(_sample_spans())
        assert validate_chrome_trace(payload) == []
        phs = [e["ph"] for e in payload["traceEvents"]]
        # 2 process_name + 3 thread_name metadata, 3 X, 1 i, b+e pair.
        assert phs.count("M") == 5
        assert phs.count("X") == 3
        assert phs.count("i") == 1
        assert phs.count("b") == 1 and phs.count("e") == 1
        x = next(e for e in payload["traceEvents"]
                 if e["ph"] == "X" and e["name"] == "batch")
        assert x["ts"] == 0.0 and x["dur"] == pytest.approx(2e6)

    def test_sim_and_wall_pids_split(self):
        payload = chrome_trace(_sample_spans())
        by_name = {
            e["args"]["name"]: e["pid"]
            for e in payload["traceEvents"]
            if e["name"] == "process_name"
        }
        assert by_name == {"simulated": 0, "wall-clock": 1}
        prob = next(e for e in payload["traceEvents"] if e["name"] == "PROB")
        assert prob["pid"] == 1
        assert prob["ts"] == 0.0  # wall times normalized to first wall span

    def test_domain_filter(self):
        payload = chrome_trace(_sample_spans(), domain="sim")
        names = {e["name"] for e in payload["traceEvents"]}
        assert "PROB" not in names and "batch" in names

    def test_export_independent_of_recording_order(self):
        spans = _sample_spans()
        shuffled = [spans[i] for i in (3, 0, 4, 2, 1)]
        assert chrome_trace_json(spans) == chrome_trace_json(shuffled)

    def test_write_and_validate_file(self, tmp_path):
        path = write_chrome_trace(tmp_path / "out.json", _sample_spans())
        assert validate_chrome_trace_file(path) == []
        assert json.loads(path.read_text())["displayTimeUnit"] == "ms"

    def test_validator_catches_shape_errors(self):
        errors = validate_chrome_trace({"traceEvents": [
            {"ph": "Z", "name": "x", "pid": 0, "tid": 0, "ts": 0},
            {"ph": "X", "name": "x", "pid": 0, "tid": 0, "ts": 0},
            {"ph": "b", "name": "x", "pid": 0, "tid": 0, "ts": 0},
        ]})
        assert len(errors) == 3
        assert any("unknown or missing ph" in e for e in errors)
        assert any("missing dur" in e for e in errors)
        assert any("missing id" in e for e in errors)
        (json_err,) = validate_chrome_trace("not json{")
        assert json_err.startswith("not valid JSON")

    def test_summary_self_time_excludes_children(self):
        payload = chrome_trace(_sample_spans())
        s = summarize_trace(payload)
        top = {e["name"]: e for e in s["top_spans"]}
        assert top["batch"]["total_us"] == pytest.approx(2e6)
        assert top["batch"]["self_us"] == pytest.approx(0.5e6)
        assert top["sampling"]["self_us"] == pytest.approx(1.5e6)
        assert s["slowest_requests"][0]["id"] == 0
        text = format_trace_summary(payload)
        assert "top spans by self-time" in text
        assert "slowest requests" in text


# ------------------------------------------------------------------ #
# Serving integration: flight recorder + no-perturbation guarantees
# ------------------------------------------------------------------ #
def _serve(engine: Engine, *, replicas: int = 3, n_requests: int = 24):
    cfg = engine.config.replace(
        replicas=replicas, router="round_robin", serve_batch_size=4,
    )
    graph = copy.copy(engine.graph)
    cluster = ServingCluster(engine.model, graph, cfg)
    workload = TraceWorkload.synthetic(
        n_requests, engine.graph.test_idx, seed=0, interarrival=1e-4,
    )
    return cluster.process(workload)


def _bulk_digest(samples) -> str:
    h = hashlib.sha256()
    for mb in samples:
        h.update(np.ascontiguousarray(mb.batch, dtype=np.int64).tobytes())
        for layer in mb.layers:
            for arr in (layer.adj.indptr, layer.adj.indices, layer.adj.data):
                h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class TestServingTraces:
    def test_trace_contains_router_replica_and_request_spans(
        self, trained_engine
    ):
        tracer = Tracer()
        set_tracer(tracer)
        report = _serve(trained_engine)
        spans = tracer.spans
        cats = {s.cat for s in spans}
        assert {"router", "serve", "request"} <= cats
        tracks = {s.track for s in spans}
        assert "router" in tracks
        assert {"replica0", "replica1", "replica2"} <= tracks
        # Flight recorder: every request's route instant and async window
        # carry the same request id.
        routed = {s.args["req"] for s in spans if s.name == "route"}
        flown = {s.aid for s in spans if s.kind == "async"}
        assert routed == flown == set(range(report.n_requests))

    def test_serve_batch_spans_nest_phases(self, trained_engine):
        tracer = Tracer()
        set_tracer(tracer)
        _serve(trained_engine)
        batches = [s for s in tracer.spans if s.name == "serve_batch"]
        phases = [s for s in tracer.spans if s.name == "sampling"]
        assert batches and phases
        assert all(s.domain == "sim" for s in batches + phases)
        # Phases inherit the replica track and sit inside a batch window.
        for ph in phases:
            assert ph.track.startswith("replica")
            assert any(
                b.track == ph.track
                and b.start - 1e-12 <= ph.start <= ph.end <= b.end + 1e-12
                for b in batches
            )

    def test_tracing_does_not_perturb_serving_digest(self, trained_engine):
        off = _serve(trained_engine)
        set_tracer(Tracer())
        on = _serve(trained_engine)
        assert on.digest() == off.digest()
        assert on.per_replica == off.per_replica

    def test_tracing_does_not_perturb_sampler_output(self, trained_engine):
        baseline = _bulk_digest(trained_engine.sample())
        set_tracer(Tracer())
        assert _bulk_digest(trained_engine.sample()) == baseline

    def test_metrics_published_from_serving(self, trained_engine):
        reg = MetricsRegistry()
        set_registry(reg)
        report = _serve(trained_engine)
        text = reg.render()
        assert "serve_requests_total" in text
        assert "serve_replicas" in text
        assert 'serve_replica_requests_total{replica="0"}' in text
        assert "serve_latency_seconds_bucket" in text
        total = reg.counter("serve_requests_total")
        assert total.value == report.n_requests

    def test_no_metrics_recorded_without_registry(self, trained_engine):
        assert get_registry() is None
        _serve(trained_engine)  # must not blow up, must record nothing
        assert get_registry() is None


class TestPlanSpans:
    """Every plan runs its steps through the one step loop
    (``repro.core.plan.run_steps``), locally or on the grid — where the
    driver, not its row executors, opens it: one wall-domain ``plan`` span
    per step of the plan as emitted, tagged with the step's phase."""

    @staticmethod
    def _case():
        from repro.core import LadiesSampler
        from repro.graphs import rmat

        rng = np.random.default_rng(3)
        adj = rmat(8, 6, rng)
        batches = [rng.choice(adj.shape[0], 8, replace=False) for _ in range(4)]
        return LadiesSampler(debias=True), adj, batches

    @staticmethod
    def _expected(sampler, fanout):
        from repro.core.plan import step_phase
        from repro.obs.trace import plan_step_name

        steps = sampler.plan(fanout).steps
        return [(plan_step_name(s), step_phase(s)) for s in steps]

    def test_partitioned_bulk_yields_one_span_per_emitted_step(self):
        from repro.comm import Communicator, ProcessGrid
        from repro.distributed import partitioned_bulk_sampling
        from repro.partition import BlockRows

        sampler, adj, batches = self._case()
        grid = ProcessGrid(4, 2)
        blocks = BlockRows.partition(adj, grid.n_rows)

        def run():
            comm = Communicator(4)
            samples, _ = partitioned_bulk_sampling(
                comm, grid, sampler, blocks, batches, (3, 3), seed=5
            )
            return _bulk_digest(samples), comm.clock.breakdown()

        untraced = run()
        tracer = Tracer()
        set_tracer(tracer)
        assert run() == untraced  # spans perturb neither bits nor the clock
        plan_spans = [s for s in tracer.spans if s.cat == "plan"]
        assert all(s.domain == "wall" for s in plan_spans)
        assert all(s.args["k"] == len(batches) for s in plan_spans)
        got = [(s.name, s.args["phase"]) for s in plan_spans]
        assert got == self._expected(sampler, (3, 3))
        assert got == [
            ("PROB", "probability"), ("NORM", "sampling"),
            ("SAMPLE", "sampling"), ("EXTRACT", "extraction"),
        ] * 2

    def test_local_bulk_yields_the_same_spans(self):
        sampler, adj, batches = self._case()
        tracer = Tracer()
        set_tracer(tracer)
        sampler.sample_bulk(adj, batches, (3, 3), np.random.default_rng(5))
        got = [
            (s.name, s.args["phase"]) for s in tracer.spans if s.cat == "plan"
        ]
        assert got == self._expected(sampler, (3, 3))


# ------------------------------------------------------------------ #
# CLI: --trace / --metrics / the trace subcommand
# ------------------------------------------------------------------ #
class TestCli:
    def _serve_argv(self, tmp_path, extra=()):
        trace = [
            {"arrival": i * 1e-4, "vertices": [2 * i, 2 * i + 1]}
            for i in range(6)
        ]
        req = tmp_path / "requests.json"
        req.write_text(json.dumps(trace))
        return [
            "serve", "products", "--scale", "0.1", "--batch-size", "16",
            "--hidden", "16", "--fanout", "4,3", "--requests", str(req),
            *extra,
        ]

    def test_serve_trace_flag_writes_valid_trace(
        self, tmp_path, capsys
    ):
        out = tmp_path / "out.json"
        argv = self._serve_argv(tmp_path, ["--trace", str(out)])
        from repro.cli import main

        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert f"wrote trace: {out}" in stdout
        assert validate_chrome_trace_file(out) == []
        names = {
            e["name"]
            for e in json.loads(out.read_text())["traceEvents"]
        }
        # The default invocation serves through the single engine (no
        # router); replica, phase, and flight-recorder spans must appear.
        assert {"serve_batch", "sampling", "request"} <= names
        # The CI-pinned digest: tracing must not move it.
        skip_unless_pinned_kernels()
        assert (
            "logits digest: d7dfa1f1cdf46c1aba9307f6520a8daa64c9"
            "74bc516cbf8a7d34db336ccdf6c5" in stdout
        )

    def test_trace_subcommand_summarizes(self, tmp_path, capsys):
        path = write_chrome_trace(tmp_path / "t.json", _sample_spans())
        from repro.cli import main

        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "top spans by self-time" in out
        assert main(["trace", str(path), "--validate"]) == 0
        assert "valid Chrome trace" in capsys.readouterr().out

    def test_trace_subcommand_rejects_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "Z"}]}')
        from repro.cli import main

        assert main(["trace", str(bad), "--validate"]) == 1
        assert "schema:" in capsys.readouterr().err
        assert main(["trace", str(tmp_path / "missing.json")]) == 2

    def test_serve_metrics_flag_renders_registry(self, tmp_path, capsys):
        argv = self._serve_argv(
            tmp_path, ["--metrics", "--embed-budget", "65536"]
        )
        from repro.cli import main

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "# TYPE serve_requests_total counter" in out
        assert "serve_cache_hit_rate" in out
