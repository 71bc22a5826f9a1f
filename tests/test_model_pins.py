"""Model pins: the headline SimClock figures of the serving, fleet,
streaming and feature-cache benchmarks, and the SimClock of a replicated
training epoch, held exactly.

Each family runs the profile its benchmark script runs in CI
(``bench_serving.py --smoke --replicas 4``, ``bench_streaming.py --smoke``,
``bench_feature_cache.py``), through the functions those scripts call, and
compares every headline metric with ``==``, in the ``PINNED_CHARGES``
convention (``tests/test_golden_partitioned.py``): the figures are
simulated, so a run reproduces them to the last bit, and a change to any
cost the model charges moves at least one of them.  A deliberate model
change re-records the pins once, old -> new in its change notes.

The absolute values are guarded by ``skip_unless_pinned_kernels()`` like
every re-recorded pin; the claims each script asserts as it runs (the
``failures`` it collects) and streaming's parity with a from-scratch
rebuild are relative, so they hold on every build.
"""

from __future__ import annotations

import pytest

from test_gnn import skip_unless_pinned_kernels

#: ``bench_serving.run_sweep`` at ``--smoke`` (clients 1 and 8, 48 requests
#: per point), recorded at ``6eb5c3f``.
SERVING_PINS = {
    "peak_req_per_s_microbatch": 124345.740567466,
    "peak_req_per_s_per_request": 15592.867287030815,
    "microbatch_speedup": 7.974526960213989,
}

#: ``bench_serving.run_fleet_sweep`` at ``--smoke --replicas 4`` (64
#: clients, 256 requests per point), recorded at ``6eb5c3f``.
FLEET_PINS = {
    "fleet_req_per_s_n1_direct": 174647.46357124232,
    "fleet_p99_ms_n1_direct": 0.5050090821007502,
    "fleet_req_per_s_n4_round_robin": 449878.9482732758,
    "fleet_p99_ms_n4_round_robin": 0.17609620555692954,
    "fleet_req_per_s_n4_consistent_hash": 171008.8241109718,
    "fleet_p99_ms_n4_consistent_hash": 1.07203277170418,
    "fleet_speedup_vs_single": 2.5759260345041364,
}

#: ``bench_streaming.run_sweep`` at ``--smoke`` (ratios 0 and 0.5, one
#: compaction threshold, 48 requests per point), recorded at ``6eb5c3f``;
#: ``parity`` is asserted on its own, without the guard.
STREAMING_PINS = {
    "peak_req_per_s_microbatch": 47038.18313526209,
    "peak_req_per_s_per_request": 13856.35158627113,
    "churn_microbatch_speedup": 3.3947019056493564,
    "churn_throughput_retention": 0.9841994151432298,
}

#: ``bench_feature_cache.run_sweep`` at its defaults (p=4, c=2, k=2,
#: budgets 0 / 32 000 / 128 000 bytes, degree policy), recorded at
#: ``6eb5c3f``.
FEATURE_CACHE_PINS = {
    "fetch_reduction_ladies": 0.8325123152709359,
    "hit_rate_ladies": 0.8284960422163589,
    "overlap_saving_ladies": 0.23176192838962706,
    "fetch_reduction_sage": 0.8134615384615385,
    "hit_rate_sage": 0.81591796875,
    "overlap_saving_sage": 0.27503987176380285,
}


#: ``clock.breakdown_by_kind()``, the per-rank clocks and the bytes sent
#: after one Graph Replicated epoch (``products`` at scale 0.1, half of it
#: training vertices, p = 2, batch 32, hidden 16, seed 0) per sampler,
#: recorded at ``423e2db``.  Its sampling phase is the recorded SpGEMM,
#: NORM and SAMPLE work plus ``CALL_OVERHEAD_S`` per call: the replicated
#: charge behind Fig. 4, which no partitioned pin reaches.
REPLICATED_PINS = {
    ("sage", (5, 3)): (
        {
            ("feature_fetch", "comm"): 1.697472e-05,
            ("propagation", "comm"): 1.544928e-05,
            ("propagation", "compute"): 0.00028852256369230766,
            ("sampling", "compute"): 0.005160684234083601,
        },
        [0.005481638336237447, 0.005481638336237447],
        481128.0,
    ),
    ("ladies", (16, 16)): (
        {
            ("feature_fetch", "comm"): 1.539984e-05,
            ("propagation", "comm"): 1.5226560000000001e-05,
            ("propagation", "compute"): 0.0002881878953846154,
            ("sampling", "compute"): 0.005288677540836013,
        },
        [0.005607494332220627, 0.005607494332220627],
        114672.0,
    ),
}


@pytest.fixture(scope="module")
def serving():
    from benchmarks import bench_serving

    args = bench_serving.parse_args(["--smoke", "--replicas", "4"])
    engine = bench_serving.train_engine(args)
    failures: list[str] = []
    _, single = bench_serving.run_sweep(engine, args, failures)
    _, fleet = bench_serving.run_fleet_sweep(engine, args, failures)
    return single, fleet, failures


@pytest.fixture(scope="module")
def streaming():
    from benchmarks import bench_streaming

    args = bench_streaming.parse_args(["--smoke"])
    engine = bench_streaming.train_engine(args)
    failures: list[str] = []
    _, metrics = bench_streaming.run_sweep(engine, args, failures)
    return metrics, failures


@pytest.fixture(scope="module")
def feature_cache():
    from benchmarks import bench_feature_cache

    failures: list[str] = []
    _, metrics = bench_feature_cache.run_sweep(
        bench_feature_cache.parse_args([]), failures
    )
    return metrics, failures


def test_serving_claims_hold(serving):
    _, _, failures = serving
    assert failures == []


def test_serving_is_pinned(serving):
    skip_unless_pinned_kernels()
    single, _, _ = serving
    assert single == SERVING_PINS


def test_fleet_is_pinned(serving):
    skip_unless_pinned_kernels()
    _, fleet, _ = serving
    assert fleet == FLEET_PINS


def test_streaming_claims_hold(streaming):
    metrics, failures = streaming
    assert failures == []
    assert metrics["parity"] is True


def test_streaming_is_pinned(streaming):
    skip_unless_pinned_kernels()
    metrics, _ = streaming
    assert {k: v for k, v in metrics.items() if k != "parity"} == STREAMING_PINS


def test_feature_cache_claims_hold(feature_cache):
    _, failures = feature_cache
    assert failures == []


def test_feature_cache_is_pinned(feature_cache):
    skip_unless_pinned_kernels()
    metrics, _ = feature_cache
    assert metrics == FEATURE_CACHE_PINS


@pytest.mark.parametrize("sampler,fanout", list(REPLICATED_PINS), ids=str)
def test_replicated_epoch_is_pinned(sampler, fanout):
    from repro.api import Engine, RunConfig

    skip_unless_pinned_kernels()
    eng = Engine(RunConfig(
        dataset="products", scale=0.1, train_split=0.5, p=2,
        algorithm="replicated", sampler=sampler, fanout=fanout,
        batch_size=32, hidden=16, seed=0,
    ))
    eng.train_epoch(0)
    comm = eng.pipeline.comm
    breakdown, clocks, sent = REPLICATED_PINS[sampler, fanout]
    assert comm.clock.breakdown_by_kind() == breakdown
    assert [comm.clock.time(r) for r in range(2)] == clocks
    assert comm.ledger.sent() == sent
