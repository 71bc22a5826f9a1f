"""Benchmark tooling: ASCII reporting, harness workloads, config objects."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import (
    SIM_WORKLOADS,
    format_latency_summary,
    format_series,
    format_stacked_bars,
    format_table,
    latency_summary,
    percentiles,
)
from repro.bench.harness import BenchWorkload, work_scale_for, workload_hidden
from repro.config import ArchitectureConfig, DeviceModel, LinkModel


class TestFormatTable:
    def test_alignment_and_order(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        out = format_table(rows, title="t")
        lines = out.splitlines()
        assert lines[0] == "t"
        assert lines[1].startswith("a")
        assert "22" in lines[4]

    def test_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_float_formatting(self):
        out = format_table([{"x": 0.123456789}])
        assert "0.12346" in out


class TestPercentiles:
    def test_nearest_rank_returns_observed_values(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        pct = percentiles(values, (50, 95, 99))
        # Nearest rank over n=5: p50 -> 3rd value, p95/p99 -> 5th.
        assert pct[50] == 3.0
        assert pct[95] == 5.0
        assert pct[99] == 5.0

    def test_single_value(self):
        assert percentiles([7.5], (50, 99)) == {50: 7.5, 99: 7.5}

    def test_unsorted_input(self):
        assert percentiles([9.0, 1.0], (50,))[50] == 1.0

    def test_large_sample_matches_rank_definition(self):
        values = np.arange(1, 101, dtype=float)  # 1..100
        pct = percentiles(values, (50, 95, 99, 100))
        assert pct[50] == 50.0
        assert pct[95] == 95.0
        assert pct[99] == 99.0
        assert pct[100] == 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            percentiles([])
        with pytest.raises(ValueError):
            percentiles([1.0], (0,))
        with pytest.raises(ValueError):
            percentiles([1.0], (101,))

    def test_latency_summary_fields(self):
        s = latency_summary([2.0, 1.0, 4.0, 3.0])
        assert s["n"] == 4
        assert s["mean"] == pytest.approx(2.5)
        assert s["p50"] == 2.0
        assert s["max"] == 4.0
        assert s["p50"] <= s["p95"] <= s["p99"] <= s["max"]

    def test_latency_summary_empty_rejected(self):
        with pytest.raises(ValueError):
            latency_summary([])

    def test_format_latency_summary_line(self):
        line = format_latency_summary([1.0, 2.0, 3.0], label="lat", unit="ms")
        assert line.startswith("lat: p50 2ms")
        assert "p95 3ms" in line and "(n=3)" in line


class TestStackedBars:
    def test_bar_lengths_proportional(self):
        rows = [
            {"p": 4, "a": 2.0, "b": 0.0},
            {"p": 8, "a": 1.0, "b": 0.0},
        ]
        out = format_stacked_bars(rows, "p", ["a", "b"], width=20)
        lines = [l for l in out.splitlines() if "|" in l]
        long_bar = lines[0].count("#")
        short_bar = lines[1].count("#")
        assert long_bar == 20 and short_bar == 10

    def test_legend_present(self):
        out = format_stacked_bars(
            [{"p": 1, "x": 1.0}], "p", ["x"], title="T"
        )
        assert "=x" in out.splitlines()[1]

    def test_empty(self):
        assert "(no rows)" in format_stacked_bars([], "p", ["x"])


class TestSeries:
    def test_shapes(self):
        out = format_series(
            {"gpu": [1.0, 2.0], "uva": [3.0, 4.0]}, [4, 8], title="S"
        )
        assert "gpu" in out and "uva" in out and "4" in out


class TestWorkloads:
    def test_all_workloads_well_formed(self):
        for name, wl in SIM_WORKLOADS.items():
            assert wl.dataset == name
            assert wl.spec.vertices > 0
            assert len(wl.fanout) == 3

    def test_work_scale_positive(self):
        from repro.bench import load_bench_graph

        wl = SIM_WORKLOADS["products"]
        g = load_bench_graph(wl)
        assert work_scale_for(wl, g) > 100  # sim is far smaller than paper

    def test_workload_hidden_consistent(self):
        assert workload_hidden() > 0

    def test_workload_too_large_rejected(self):
        wl = BenchWorkload(
            dataset="products", scale=0.05, batch_size=1024, n_batches=1024,
            fanout=(2, 2, 2), ladies_width=8,
        )
        from repro.bench import load_bench_graph

        with pytest.raises(ValueError):
            load_bench_graph(wl)


class TestConfigObjects:
    def test_architecture_validation(self):
        with pytest.raises(ValueError):
            ArchitectureConfig("x", 8, (3, 3), 4, 3)  # fanout/layers mismatch
        with pytest.raises(ValueError):
            ArchitectureConfig("x", 0, (3,), 4, 1)

    def test_device_model_validation(self):
        dev = DeviceModel(1e12, 1e11, 1e-6, 1e9)
        with pytest.raises(ValueError):
            dev.time(flops=-1)

    def test_link_model(self):
        link = LinkModel(alpha=1e-6, beta=2e-9)
        assert link.time(0) == 1e-6

    def test_machine_node_mapping(self):
        from repro.config import PERLMUTTER_LIKE as m

        assert m.node_of(0) == m.node_of(3) == 0
        assert m.node_of(4) == 1
        assert m.node_of(1) == m.node_of(2) != m.node_of(4)
        with pytest.raises(ValueError):
            m.node_of(-1)


class TestBenchArtifacts:
    def test_write_load_roundtrip(self, tmp_path):
        from repro.bench import (
            BENCH_SCHEMA_VERSION,
            load_bench_artifact,
            write_bench_artifact,
        )

        path = write_bench_artifact(
            "demo",
            params={"scale": 0.1, "fanout": (4, 3)},
            metrics={"req_per_s": np.float64(123.456)},
            rows=[{"clients": np.int64(8), "p50_ms": 0.25}],
            path=tmp_path / "BENCH_demo.json",
        )
        data = load_bench_artifact(path)
        assert data["schema_version"] == BENCH_SCHEMA_VERSION
        assert data["bench"] == "demo"
        assert data["params"]["fanout"] == [4, 3]
        assert data["metrics"]["req_per_s"] == pytest.approx(123.456)
        assert data["rows"][0]["clients"] == 8
        # numpy scalars must have become plain JSON types
        assert isinstance(data["rows"][0]["clients"], int)

    def test_writes_are_byte_stable(self, tmp_path):
        from repro.bench import write_bench_artifact

        kwargs = dict(
            params={"b": 2, "a": 1}, metrics={"m": 1.0}, rows=[],
        )
        p1 = write_bench_artifact("stable", path=tmp_path / "one.json", **kwargs)
        p2 = write_bench_artifact("stable", path=tmp_path / "two.json", **kwargs)
        assert p1.read_text() == p2.read_text()

    def test_refuses_unknown_schema_version(self, tmp_path):
        import json

        from repro.bench import load_bench_artifact

        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({
            "schema_version": 999, "bench": "x", "params": {},
            "metrics": {}, "rows": [],
        }))
        with pytest.raises(ValueError, match="schema_version"):
            load_bench_artifact(path)

    def test_refuses_missing_keys(self, tmp_path):
        import json

        from repro.bench import BENCH_SCHEMA_VERSION, load_bench_artifact

        path = tmp_path / "BENCH_y.json"
        path.write_text(json.dumps({
            "schema_version": BENCH_SCHEMA_VERSION, "bench": "y",
        }))
        with pytest.raises(ValueError, match="params"):
            load_bench_artifact(path)

    def test_name_validation_and_default_path(self):
        from repro.bench import bench_artifact, default_artifact_path

        with pytest.raises(ValueError):
            bench_artifact("has space")
        with pytest.raises(ValueError):
            bench_artifact("")
        path = default_artifact_path("serving")
        assert path.name == "BENCH_serving.json"
        assert path.parent.name == "results"

    def test_committed_artifacts_load(self):
        """The trajectory points committed under benchmarks/results/ must
        stay readable by the current schema."""
        from pathlib import Path

        from repro.bench import default_artifact_path, load_bench_artifact

        results = default_artifact_path("x").parent
        committed = sorted(Path(results).glob("BENCH_*.json"))
        assert committed, "no committed benchmark artifacts found"
        for path in committed:
            data = load_bench_artifact(path)
            assert data["bench"]


def _artifact(metrics, params=None, bench="demo"):
    return {
        "bench": bench,
        "params": params if params is not None else {"scale": 0.1},
        "metrics": metrics,
        "rows": [],
    }


class TestMetricDirection:
    def test_classification(self):
        from repro.bench import metric_direction

        assert metric_direction("serve_req_per_s") == "higher"
        assert metric_direction("fleet_speedup_vs_single") == "higher"
        assert metric_direction("cache_hit_rate") == "higher"
        assert metric_direction("p99_ms") == "lower"
        assert metric_direction("makespan") == "lower"
        assert metric_direction("update_latency") == "lower"
        assert metric_direction("autoscale_final_replicas") is None

    def test_higher_better_fragments_win_ties(self):
        from repro.bench import metric_direction

        # "p99" alone is lower-better, but a speedup derived from it is a
        # ratio where up is good — first-match-wins keeps that sane.
        assert metric_direction("p99_speedup") == "higher"


class TestCompareArtifacts:
    def test_identical_artifacts_pass(self):
        from repro.bench import compare_artifacts

        a = _artifact({"req_per_s": 100.0, "p99_ms": 2.0})
        assert compare_artifacts(a, a) == []

    def test_throughput_drop_is_a_regression(self):
        from repro.bench import compare_artifacts

        base = _artifact({"req_per_s": 100.0})
        fresh = _artifact({"req_per_s": 90.0})
        regs = compare_artifacts(base, fresh, tolerance=0.05)
        assert len(regs) == 1
        assert regs[0].metric == "req_per_s"
        assert "dropped" in str(regs[0])

    def test_latency_rise_is_a_regression(self):
        from repro.bench import compare_artifacts

        base = _artifact({"p99_ms": 2.0})
        fresh = _artifact({"p99_ms": 2.5})
        regs = compare_artifacts(base, fresh, tolerance=0.05)
        assert len(regs) == 1 and "rose" in str(regs[0])

    def test_drift_within_tolerance_passes(self):
        from repro.bench import compare_artifacts

        base = _artifact({"req_per_s": 100.0, "p99_ms": 2.0})
        fresh = _artifact({"req_per_s": 96.0, "p99_ms": 2.08})
        assert compare_artifacts(base, fresh, tolerance=0.05) == []

    def test_improvements_never_flagged(self):
        from repro.bench import compare_artifacts

        base = _artifact({"req_per_s": 100.0, "p99_ms": 2.0})
        fresh = _artifact({"req_per_s": 500.0, "p99_ms": 0.1})
        assert compare_artifacts(base, fresh) == []

    def test_informational_metrics_ignored(self):
        from repro.bench import compare_artifacts

        base = _artifact({"final_replicas": 4})
        fresh = _artifact({"final_replicas": 1})
        assert compare_artifacts(base, fresh) == []

    def test_missing_gated_metric_fails(self):
        from repro.bench import compare_artifacts

        base = _artifact({"req_per_s": 100.0})
        fresh = _artifact({})
        regs = compare_artifacts(base, fresh)
        assert len(regs) == 1 and "missing" in regs[0].metric

    def test_different_bench_rejected(self):
        from repro.bench import compare_artifacts

        with pytest.raises(ValueError, match="different benches"):
            compare_artifacts(
                _artifact({}, bench="a"), _artifact({}, bench="b")
            )

    def test_params_mismatch_raises_and_names_keys(self):
        from repro.bench import ParamsMismatch, compare_artifacts

        base = _artifact({}, params={"clients": 64, "scale": 0.1})
        fresh = _artifact({}, params={"clients": 128, "scale": 0.1})
        with pytest.raises(ParamsMismatch, match="clients"):
            compare_artifacts(base, fresh)

    def test_ignore_params_excuses_the_mismatch(self):
        from repro.bench import compare_artifacts

        base = _artifact({"req_per_s": 10.0}, params={"clients": 64})
        fresh = _artifact({"req_per_s": 10.0}, params={"clients": 128})
        assert compare_artifacts(base, fresh, ignore_params=("clients",)) == []

    def test_negative_tolerance_rejected(self):
        from repro.bench import compare_artifacts

        with pytest.raises(ValueError):
            compare_artifacts(_artifact({}), _artifact({}), tolerance=-0.1)

    def test_compare_artifact_files(self, tmp_path):
        from repro.bench import (
            compare_artifacts,
            load_bench_artifact,
            write_bench_artifact,
        )

        base = write_bench_artifact(
            "demo", params={"s": 1}, metrics={"req_per_s": 100.0},
            rows=[], path=tmp_path / "base.json",
        )
        fresh = write_bench_artifact(
            "demo", params={"s": 1}, metrics={"req_per_s": 50.0},
            rows=[], path=tmp_path / "fresh.json",
        )
        regressions = compare_artifacts(
            load_bench_artifact(base), load_bench_artifact(fresh)
        )
        assert len(regressions) == 1


class TestCheckRegressionCLI:
    """Exit-code contract of benchmarks/check_regression.py (the CI gate)."""

    @pytest.fixture()
    def gate(self):
        import importlib.util
        from pathlib import Path

        path = (
            Path(__file__).parent.parent / "benchmarks" / "check_regression.py"
        )
        spec = importlib.util.spec_from_file_location("check_regression", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def _write(self, tmp_path, name, metrics, params=None):
        from repro.bench import write_bench_artifact

        return write_bench_artifact(
            "gatedemo", params=params or {"s": 1}, metrics=metrics,
            rows=[], path=tmp_path / name,
        )

    def test_exit_0_on_clean_run(self, tmp_path, gate, capsys):
        base = self._write(tmp_path, "base.json", {"req_per_s": 100.0})
        fresh = self._write(tmp_path, "fresh.json", {"req_per_s": 101.0})
        rc = gate.main([str(fresh), "--baseline", str(base)])
        assert rc == 0
        assert "no out-of-tolerance" in capsys.readouterr().out

    def test_exit_1_on_regression(self, tmp_path, gate, capsys):
        base = self._write(tmp_path, "base.json", {"req_per_s": 100.0})
        fresh = self._write(tmp_path, "fresh.json", {"req_per_s": 50.0})
        rc = gate.main([str(fresh), "--baseline", str(base)])
        assert rc == 1
        assert "regression:" in capsys.readouterr().err

    def test_exit_2_on_missing_baseline(self, tmp_path, gate, capsys):
        fresh = self._write(tmp_path, "fresh.json", {"req_per_s": 1.0})
        rc = gate.main(
            [str(fresh), "--baseline", str(tmp_path / "nope.json")]
        )
        assert rc == 2
        assert "no committed baseline" in capsys.readouterr().err

    def test_exit_2_on_unreadable_fresh(self, tmp_path, gate):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert gate.main([str(bad)]) == 2

    def test_exit_3_on_params_mismatch(self, tmp_path, gate, capsys):
        base = self._write(
            tmp_path, "base.json", {"req_per_s": 1.0}, params={"s": 1}
        )
        fresh = self._write(
            tmp_path, "fresh.json", {"req_per_s": 1.0}, params={"s": 2}
        )
        rc = gate.main([str(fresh), "--baseline", str(base)])
        assert rc == 3
        assert "not comparable" in capsys.readouterr().err

    def test_ignore_params_flag(self, tmp_path, gate):
        base = self._write(
            tmp_path, "base.json", {"req_per_s": 1.0}, params={"s": 1}
        )
        fresh = self._write(
            tmp_path, "fresh.json", {"req_per_s": 1.0}, params={"s": 2}
        )
        rc = gate.main(
            [str(fresh), "--baseline", str(base), "--ignore-params", "s"]
        )
        assert rc == 0

    def test_tolerance_flag_widens_the_gate(self, tmp_path, gate):
        base = self._write(tmp_path, "base.json", {"req_per_s": 100.0})
        fresh = self._write(tmp_path, "fresh.json", {"req_per_s": 80.0})
        assert gate.main([str(fresh), "--baseline", str(base)]) == 1
        assert gate.main(
            [str(fresh), "--baseline", str(base), "--tolerance", "0.3"]
        ) == 0

    def _write_bench(self, tmp_path, bench, name, metrics, params=None):
        from repro.bench import write_bench_artifact

        return write_bench_artifact(
            bench, params=params or {"s": 1}, metrics=metrics,
            rows=[], path=tmp_path / name,
        )

    @pytest.fixture()
    def local_baselines(self, tmp_path, gate, monkeypatch):
        """Route default baseline lookup into tmp_path so multi-artifact
        runs (which resolve baselines by bench name) stay hermetic."""
        monkeypatch.setattr(
            gate, "default_artifact_path",
            lambda bench: tmp_path / f"BENCH_{bench}.json",
        )
        return tmp_path

    def test_multiple_artifacts_report_all_regressions(
        self, gate, local_baselines, capsys
    ):
        tmp = local_baselines
        self._write_bench(tmp, "alpha", "BENCH_alpha.json",
                          {"req_per_s": 100.0, "p99_ms": 1.0})
        self._write_bench(tmp, "beta", "BENCH_beta.json",
                          {"req_per_s": 100.0})
        f1 = self._write_bench(tmp, "alpha", "fresh_alpha.json",
                               {"req_per_s": 50.0, "p99_ms": 9.0})
        f2 = self._write_bench(tmp, "beta", "fresh_beta.json",
                               {"req_per_s": 10.0})
        rc = gate.main([str(f1), str(f2)])
        assert rc == 1
        err = capsys.readouterr().err
        # Every regressed metric of every family is reported, and the
        # exit-1 summary names them all.
        assert "regression: alpha: req_per_s" in err
        assert "regression: alpha: p99_ms" in err
        assert "regression: beta: req_per_s" in err
        assert ("3 regressed metric(s): alpha:p99_ms, alpha:req_per_s, "
                "beta:req_per_s" in err)

    def test_regressions_outrank_params_mismatch(
        self, gate, local_baselines, capsys
    ):
        tmp = local_baselines
        self._write_bench(tmp, "alpha", "BENCH_alpha.json",
                          {"req_per_s": 100.0})
        self._write_bench(tmp, "beta", "BENCH_beta.json",
                          {"req_per_s": 100.0}, params={"s": 1})
        f1 = self._write_bench(tmp, "alpha", "fresh_alpha.json",
                               {"req_per_s": 50.0})
        f2 = self._write_bench(tmp, "beta", "fresh_beta.json",
                               {"req_per_s": 100.0}, params={"s": 2})
        assert gate.main([str(f1), str(f2)]) == 1
        err = capsys.readouterr().err
        assert "regression: alpha: req_per_s" in err
        assert "not comparable" in err  # still reported, just outranked

    def test_params_mismatch_alone_still_exits_3(
        self, gate, local_baselines
    ):
        tmp = local_baselines
        self._write_bench(tmp, "beta", "BENCH_beta.json",
                          {"req_per_s": 100.0}, params={"s": 1})
        ok = self._write_bench(tmp, "alpha", "BENCH_alpha.json",
                               {"req_per_s": 100.0})
        f1 = self._write_bench(tmp, "alpha", "fresh_alpha.json",
                               {"req_per_s": 100.0})
        f2 = self._write_bench(tmp, "beta", "fresh_beta.json",
                               {"req_per_s": 100.0}, params={"s": 2})
        assert ok is not None
        assert gate.main([str(f1), str(f2)]) == 3

    def test_baseline_flag_rejected_with_multiple_fresh(
        self, tmp_path, gate, capsys
    ):
        base = self._write(tmp_path, "base.json", {"req_per_s": 100.0})
        f1 = self._write(tmp_path, "f1.json", {"req_per_s": 100.0})
        f2 = self._write(tmp_path, "f2.json", {"req_per_s": 100.0})
        rc = gate.main(
            [str(f1), str(f2), "--baseline", str(base)]
        )
        assert rc == 2
        assert "--baseline" in capsys.readouterr().err

    def test_committed_fleet_artifact_gates_itself(self, gate):
        """The committed BENCH_serving_fleet.json must pass its own gate —
        the invariant the CI serving-fleet job relies on."""
        from repro.bench import default_artifact_path

        path = default_artifact_path("serving_fleet")
        assert path.exists()
        assert gate.main([str(path)]) == 0

    def test_committed_gate_artifacts_gate_themselves(self, gate):
        """Every committed *_gate baseline (and BENCH_parallel.json) must
        pass its own gate, mirroring the CI regression-gates job."""
        from repro.bench import default_artifact_path

        for name in (
            "serving_gate", "streaming_gate", "feature_cache_gate",
            "parallel",
        ):
            path = default_artifact_path(name)
            assert path.exists(), f"missing committed baseline {path}"
            assert gate.main([str(path)]) == 0

    def test_exit_4_on_env_mismatch(self, tmp_path, gate, capsys):
        from repro.bench import write_bench_artifact

        base = write_bench_artifact(
            "gatedemo", params={"s": 1}, metrics={"speedup": 2.0}, rows=[],
            env={"cpu_count": 1}, path=tmp_path / "base.json",
        )
        fresh = write_bench_artifact(
            "gatedemo", params={"s": 1}, metrics={"speedup": 2.0}, rows=[],
            env={"cpu_count": 64}, path=tmp_path / "fresh.json",
        )
        rc = gate.main([str(fresh), "--baseline", str(base)])
        assert rc == 4
        assert "different environments" in capsys.readouterr().err
        assert gate.main(
            [str(fresh), "--baseline", str(base), "--ignore-env"]
        ) == 0


class TestEnvFingerprint:
    def test_fingerprint_contents(self):
        import os
        import platform

        from repro.bench import env_fingerprint

        env = env_fingerprint()
        assert env["cpu_count"] == (os.cpu_count() or 1)
        assert env["python"] == platform.python_version()
        assert "numpy" in env and "platform" in env
        assert "workers" not in env
        assert env_fingerprint(workers=4)["workers"] == 4

    def test_artifact_roundtrips_env(self, tmp_path):
        from repro.bench import (
            env_fingerprint,
            load_bench_artifact,
            write_bench_artifact,
        )

        env = env_fingerprint(workers=2)
        path = write_bench_artifact(
            "demo", params={}, metrics={}, rows=[], env=env,
            path=tmp_path / "BENCH_demo.json",
        )
        assert load_bench_artifact(path)["env"] == env

    def test_env_free_artifact_has_no_env_key(self, tmp_path):
        """Simulated artifacts stay byte-stable across machines — no env
        key unless the bench asked for one."""
        from repro.bench import load_bench_artifact, write_bench_artifact

        path = write_bench_artifact(
            "demo", params={}, metrics={}, rows=[],
            path=tmp_path / "BENCH_demo.json",
        )
        assert "env" not in load_bench_artifact(path)

    def test_compare_raises_env_mismatch(self):
        from repro.bench import EnvMismatch, compare_artifacts

        base = dict(_artifact({"speedup": 2.0}), env={"cpu_count": 1})
        fresh = dict(_artifact({"speedup": 2.0}), env={"cpu_count": 64})
        with pytest.raises(EnvMismatch, match="cpu_count"):
            compare_artifacts(base, fresh)
        assert compare_artifacts(base, fresh, ignore_env=True) == []

    def test_env_vs_envless_artifact_mismatches(self):
        """A wall-clock artifact never silently gates against an env-free
        baseline (or vice versa)."""
        from repro.bench import EnvMismatch, compare_artifacts

        base = _artifact({"speedup": 2.0})
        fresh = dict(_artifact({"speedup": 2.0}), env={"cpu_count": 1})
        with pytest.raises(EnvMismatch):
            compare_artifacts(base, fresh)

    def test_matching_env_passes(self):
        from repro.bench import compare_artifacts

        base = dict(_artifact({"speedup": 2.0}), env={"cpu_count": 1})
        assert compare_artifacts(base, dict(base)) == []
