"""``run.py --selftest``: checks of the harness itself, in a few seconds.

Not collected by the tier-1 pytest run (nothing here is named ``test_*``);
it guards the properties the per-layer numbers rest on.
"""

from __future__ import annotations

import json
from pathlib import Path

from .trace import _MISSING, Tracer

ROOT = Path(__file__).resolve().parents[2]


def check_self_time() -> None:
    """Nested spans: self time is duration minus the children's durations."""
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):  # opens at 0
        with tracer.span("inner"):  # 1 .. 2
            pass
        with tracer.span("inner"):  # 3 .. 6, holds leaf 4 .. 5
            with tracer.span("leaf"):
                pass
    # outer closes at 7
    table = tracer.table()
    assert table["outer"] == {"calls": 1, "total_s": 7.0, "self_s": 3.0, "entry_s": 0.0}, table
    assert table["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0, "entry_s": 4.0}, table
    assert table["leaf"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0, "entry_s": 0.0}, table
    assert tracer.root_seconds() == (7.0, 3.0)
    assert sum(row["self_s"] for row in table.values()) == 7.0


def check_exception_closes_span() -> None:
    class Thing:
        def boom(self):
            raise KeyError("boom")

    thing, tracer = Thing(), Tracer()
    tracer.wrap(thing, "boom", "thing.boom")
    with tracer.span("root"):
        try:
            thing.boom()
        except KeyError:
            pass
    tracer.unwrap_all()
    assert all(end is not None for _n, _p, _s, end, _c in tracer.spans), tracer.spans
    assert not tracer._stack
    assert tracer.table()["thing.boom"]["calls"] == 1
    assert "boom" not in vars(thing)


def check_round_trip() -> None:
    """A traced tiny round reproduces its untraced twin bit for bit, sees
    every layer it should, and leaves no wrapper behind."""
    from repro import RunConfig

    from . import workloads

    class Recording(Tracer):
        """Notes what each attribute held before it was wrapped."""

        def __init__(self) -> None:
            super().__init__()
            self.before = []

        def wrap(self, owner, attr, name, count=None) -> None:
            self.before.append((owner, attr, vars(owner).get(attr, _MISSING)))
            super().wrap(owner, attr, name, count)

    for name, expect in (
        ("stream_churn", {"stream.apply", "stream.compact", "serve.absorb_update",
                          "serve.logits_for", "serve.serve_batch", "sparse.spgemm",
                          "sparse.from_coo", "sparse.spmm", "core.its",
                          "core.sample_bulk", "gnn.forward", "gnn.backward",
                          "gnn.optimizer", "partition.fetch", "comm.alltoallv"}),
        ("train_sage_partitioned", {"distributed.spgemm_15d", "comm.allreduce"}),
        ("serve_fleet", {"serve.route"}),
    ):
        spec = workloads.SPECS["smoke"][name]
        cfg = RunConfig(seed=5, **spec.config)
        plain, checker, inputs = workloads.run_round(spec, cfg)
        checker.verify()
        assert plain.failed + checker.failed == 0, (name, checker.failed)
        tracer = Recording()
        traced, _, _ = workloads.run_round(spec, cfg, inputs, tracer)
        assert traced.digest == plain.digest, f"{name}: tracing changed the output"
        missing = expect - set(tracer.table())
        assert not missing, f"{name}: no span for {sorted(missing)}"
        assert tracer.before and not tracer._patches
        for owner, attr, held in tracer.before:
            now = vars(owner).get(attr, _MISSING)
            assert now is held, f"{name}: {owner!r}.{attr} was not restored"


def check_declaration() -> None:
    """BENCHMARK.json names what the code emits, with the same units."""
    from . import metrics
    from .workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == metrics.END_TO_END
    assert {
        m["name"]: m["unit"] for m in declared["per_layer"]
    } == metrics.per_layer_units()


def selftest() -> int:
    for check in (
        check_self_time, check_exception_closes_span, check_round_trip,
        check_declaration,
    ):
        check()
        print(f"ok  {check.__name__}")
    return 0
