"""The repro.api facade: registries, RunConfig, Engine, capability gating."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import (
    ALGORITHMS,
    DATASETS,
    SAMPLERS,
    CapabilityError,
    Engine,
    Registry,
    RegistryKeyError,
    RunConfig,
    make_sampler,
)
from repro.config import PERLMUTTER_LIKE
from repro.core import MatrixSampler, SageSampler
from repro.pipeline import TrainingPipeline


@pytest.fixture
def registry():
    return Registry("widget")


class TestRegistry:
    def test_register_and_get(self, registry):
        registry.register("a", int, color="red")
        assert registry.get("a") is int
        assert registry.spec("a").meta("color") == "red"
        assert "a" in registry and len(registry) == 1

    def test_decorator_form(self, registry):
        @registry.register("b", flavor="sweet")
        class Thing:
            pass

        assert registry.get("b") is Thing
        assert registry.spec("b").meta("flavor") == "sweet"

    def test_duplicate_rejected_unless_overwrite(self, registry):
        registry.register("a", int)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("a", float)
        registry.register("a", float, overwrite=True)
        assert registry.get("a") is float

    def test_unknown_key_names_known_keys(self, registry):
        registry.register("alpha", 1)
        registry.register("beta", 2)
        with pytest.raises(RegistryKeyError) as exc:
            registry.get("gamma")
        assert "alpha" in str(exc.value) and "beta" in str(exc.value)
        assert "gamma" in str(exc.value)

    def test_unregister(self, registry):
        registry.register("a", 1)
        registry.unregister("a")
        assert "a" not in registry
        with pytest.raises(RegistryKeyError):
            registry.unregister("a")

    def test_names_sorted_and_iterable(self, registry):
        registry.register("zeta", 1)
        registry.register("alpha", 2)
        assert registry.names() == ["alpha", "zeta"]
        assert list(registry) == ["alpha", "zeta"]


class TestBuiltinRegistries:
    def test_builtin_samplers_present(self):
        assert {"sage", "ladies", "fastgcn"} <= set(SAMPLERS.names())

    def test_builtin_algorithms_present(self):
        assert {"single", "replicated", "partitioned"} <= set(ALGORITHMS.names())

    def test_builtin_datasets_present(self):
        assert {"products", "protein", "papers"} <= set(DATASETS.names())

    def test_make_sampler_training_kwargs(self):
        s = make_sampler("sage", for_training=True)
        assert isinstance(s, SageSampler) and s.include_dst

    def test_graph_aware_sampler_needs_graph(self, registry):
        SAMPLERS.register("needs-graph", lambda g: SageSampler(),
                          graph_aware=True)
        try:
            with pytest.raises(ValueError, match="graph"):
                make_sampler("needs-graph")
        finally:
            SAMPLERS.unregister("needs-graph")


#: The removed knobs whose keys ``RunConfig`` keeps: key -> (its one legal
#: value, another value, what the refusal names).
RETIRED = {
    "kernel": ("esc", "compiled", "scipy kernels were removed"),
    "workers": (0, 2, "worker pool was removed"),
    "shed_policy": ("none", "queue", "load shedding was removed"),
    "shed_queue_depth": (64, 4, "load shedding was removed"),
    "shed_deadline": (0.0, 1e-4, "load shedding was removed"),
    "slo_p99": (0.0, 2e-4, "SLO autoscaler was removed"),
    "autoscale_min": (1, 2, "SLO autoscaler was removed"),
    "autoscale_max": (8, 4, "SLO autoscaler was removed"),
    "autoscale_interval": (0.01, 5e-4, "SLO autoscaler was removed"),
}


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.sampler == "sage" and cfg.machine == PERLMUTTER_LIKE

    def test_unknown_sampler_names_known_keys(self):
        with pytest.raises(ValueError) as exc:
            RunConfig(sampler="magic")
        msg = str(exc.value)
        assert "sage" in msg and "ladies" in msg

    def test_unknown_algorithm_names_known_keys(self):
        with pytest.raises(ValueError) as exc:
            RunConfig(algorithm="magic")
        assert "replicated" in str(exc.value)

    def test_unknown_dataset_names_known_keys(self):
        with pytest.raises(ValueError) as exc:
            RunConfig(dataset="citeseer")
        assert "products" in str(exc.value)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RunConfig(p=4, c=3)
        with pytest.raises(ValueError):
            RunConfig(k=0)
        with pytest.raises(ValueError):
            RunConfig(algorithm="single", p=4, c=1)
        with pytest.raises(ValueError):
            RunConfig(train_split=1.5)

    def test_fanout_list_coerced_to_tuple(self):
        assert RunConfig(fanout=[5, 3]).fanout == (5, 3)

    def test_dict_round_trip(self):
        cfg = RunConfig(
            dataset="products", scale=0.2, p=4, c=2, sampler="ladies",
            fanout=(64,), k=8, train_split=0.5,
            dataset_kwargs={"n_classes": 4},
        )
        data = cfg.to_dict()
        assert data["fanout"] == [64]
        assert isinstance(data["machine"], dict)
        assert RunConfig.from_dict(data) == cfg

    def test_json_round_trip(self, tmp_path):
        cfg = RunConfig(dataset="papers", sampler="fastgcn", fanout=(32,))
        path = tmp_path / "run.json"
        cfg.to_json(path)
        again = RunConfig.from_json(path)
        assert again == cfg
        # The written file is plain JSON.
        assert json.loads(path.read_text())["sampler"] == "fastgcn"

    def test_from_json_string(self):
        cfg = RunConfig.from_json('{"p": 2, "fanout": [4, 2]}')
        assert cfg.p == 2 and cfg.fanout == (4, 2)

    def test_from_dict_unknown_field_names_valid_fields(self):
        with pytest.raises(ValueError) as exc:
            RunConfig.from_dict({"fan_out": [5]})
        msg = str(exc.value)
        assert "fan_out" in msg and "fanout" in msg

    def test_replace_revalidates(self):
        cfg = RunConfig(p=4)
        with pytest.raises(ValueError):
            cfg.replace(sampler="magic")

    def test_resolved_conv_from_registry(self):
        assert RunConfig(sampler="sage").resolved_conv() == "sage"
        assert RunConfig(sampler="ladies", fanout=(8,)).resolved_conv() == "gcn"
        assert RunConfig(
            sampler="ladies", conv="sage", fanout=(8,)
        ).resolved_conv() == "sage"

    @pytest.mark.parametrize(
        "field,value,known",
        [
            ("conv", "gat", ["sage", "gcn"]),
            ("sampler", "saint", ["fastgcn", "ladies", "sage"]),
            ("activation", "tanh", ["relu", "identity"]),
        ],
        ids=["conv-gat", "sampler-saint", "activation-tanh"],
    )
    def test_removed_values_are_refused_naming_the_rest(
        self, field, value, known
    ):
        """The attention conv, the random-walk sampler and the unused
        activations are gone; the registry error names what remains."""
        with pytest.raises(ValueError) as err:
            RunConfig(**{field: value})
        head, _, names = str(err.value).partition("; known ")
        assert head == f"unknown {field} {value!r}"
        listed = names.split(": ", 1)[1].split(", ")  # plugins may add more
        assert set(known) <= set(listed) and value not in listed

    @pytest.mark.parametrize("key", sorted(RETIRED))
    def test_retired_key_is_refused_naming_the_removal(self, tmp_path, key):
        """A removed knob keeps its key at its one legal value, so saved
        configs hash as before; any other value, by keyword or from JSON,
        is refused naming what was removed and the value to set."""
        kept, other, removed = RETIRED[key]
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: other}))
        for build in (lambda: RunConfig(**{key: other}),
                      lambda: RunConfig.from_json(path)):
            with pytest.raises(ValueError, match=removed) as err:
                build()
            assert f"set it to {kept!r}" in str(err.value)
        assert RunConfig().to_dict()[key] == kept
        assert RunConfig(**{key: kept}).to_dict() == RunConfig().to_dict()
        assert "parallel" not in ALGORITHMS.names()

    @pytest.mark.parametrize("text, says", [
        ("[1]", "must hold a JSON object of RunConfig fields"),
        ("3", "must hold a JSON object of RunConfig fields"),
        ("null", "must hold a JSON object of RunConfig fields"),
        ('{"p": 2,', "is not valid JSON"),
        ("", "is not valid JSON"),
    ], ids=["array", "number", "null", "truncated", "empty"])
    def test_from_json_names_the_file_and_the_fault(
        self, text, says, tmp_path
    ):
        path = tmp_path / "run.json"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            RunConfig.from_json(path)
        assert str(err.value).startswith(f"config {path} {says}")


class TestCapabilities:
    @pytest.mark.parametrize("sampler", ["sage", "ladies", "fastgcn"])
    def test_builtin_accepted_under_partitioned(self, sampler):
        """Every built-in emits a sampling plan, so partitioned support is
        derived — the config layer must accept the combination."""
        cfg = RunConfig(p=4, c=2, sampler=sampler, algorithm="partitioned",
                        fanout=(2, 2))
        assert cfg.algorithm == "partitioned"

    def test_registered_class_plugin_derives_partitioned(self, labeled_graph):
        """A plugin registered as a class with an inherited plan gets the
        partitioned algorithm for free — through capability gating AND an
        actual epoch of training."""
        from repro.api.registries import sampler_algorithms

        class PluginSage(SageSampler):
            name = "plugin-sage"

        SAMPLERS.register(
            "plugin-sage", PluginSage,
            pipeline_kwargs={"include_dst": True}, default_conv="sage",
        )
        try:
            assert "partitioned" in sampler_algorithms("plugin-sage")
            cfg = RunConfig(
                p=4, c=2, algorithm="partitioned", sampler="plugin-sage",
                fanout=(4, 2), batch_size=32, hidden=16,
            )
            stats = TrainingPipeline(labeled_graph, cfg).train_epoch()
            assert stats.loss is not None and np.isfinite(stats.loss)
        finally:
            SAMPLERS.unregister("plugin-sage")

    def test_planless_factory_rejected_under_partitioned(self):
        """A factory-registered sampler hides its product class, so without
        explicit ``algorithms`` metadata partitioned is ruled out."""
        SAMPLERS.register("opaque", lambda **kw: SageSampler(**kw))
        try:
            with pytest.raises(CapabilityError, match="partitioned"):
                RunConfig(p=4, c=2, sampler="opaque",
                          algorithm="partitioned", fanout=(3,))
        finally:
            SAMPLERS.unregister("opaque")

    def test_sampling_only_entry_rejected_by_pipeline(self, labeled_graph):
        SAMPLERS.register(
            "sample-only", SageSampler, capabilities=("sample",),
            algorithms=("single", "replicated"),
        )
        try:
            cfg = RunConfig(p=2, sampler="sample-only", fanout=(3,))
            with pytest.raises(CapabilityError, match="sampling-only"):
                TrainingPipeline(labeled_graph, cfg)
        finally:
            SAMPLERS.unregister("sample-only")


class TestEngine:
    def _cfg(self, **over):
        base = dict(
            dataset="products", scale=0.1, train_split=0.5, p=2, c=1,
            fanout=(5, 3), batch_size=16, hidden=16, lr=0.01, epochs=2,
            seed=0,
        )
        base.update(over)
        return RunConfig(**base)

    def test_needs_graph_or_dataset(self):
        with pytest.raises(ValueError, match="dataset"):
            Engine(RunConfig())

    def test_loads_dataset_and_applies_split(self):
        engine = Engine(self._cfg())
        expected = max(1, round(0.5 * engine.graph.n))
        assert engine.graph.train_idx.size == expected

    def test_train_split_keeps_splits_disjoint(self):
        """Regression: the redrawn training split must not overlap val or
        test, or evaluate() reports leaked accuracy."""
        g = Engine(self._cfg()).graph
        assert np.intersect1d(g.train_idx, g.test_idx).size == 0
        assert np.intersect1d(g.train_idx, g.val_idx).size == 0
        assert np.intersect1d(g.val_idx, g.test_idx).size == 0
        assert g.train_idx.size + g.val_idx.size + g.test_idx.size == g.n

    def test_sampling_only_sampler_can_sample_via_engine(self):
        """Regression: the pipeline is built lazily, so engine.sample()
        works for a sampling-only entry; training still raises."""
        SAMPLERS.register(
            "probe-only", SageSampler, capabilities=("sample",),
            algorithms=("single", "replicated"), default_conv="sage",
        )
        try:
            engine = Engine(self._cfg(sampler="probe-only"))
            samples = engine.sample()
            assert len(samples) > 0
            with pytest.raises(CapabilityError, match="sampling-only"):
                engine.train_epoch(0)
        finally:
            SAMPLERS.unregister("probe-only")

    def test_train_evaluate(self):
        engine = Engine(self._cfg(epochs=2))
        stats = engine.train()
        assert len(stats) == 2 and stats[0].loss is not None
        assert 0.0 <= engine.evaluate("test") <= 1.0

    def test_sample_uses_config(self):
        engine = Engine(self._cfg())
        samples = engine.sample()
        assert len(samples) == engine.graph.train_idx.size // 16
        assert samples[0].num_layers == 2

    def test_backend_resolved_from_registry(self):
        assert Engine(self._cfg()).backend.name == "replicated"
        single = self._cfg(algorithm="single", p=1)
        assert Engine(single).backend.name == "single"

    def test_stream_bulks_matches_train_epoch(self, labeled_graph):
        cfg = RunConfig(p=2, fanout=(5, 3), batch_size=32, hidden=16,
                        lr=0.01, k=2, seed=0)
        direct = TrainingPipeline(labeled_graph, cfg).train_epoch(0)
        engine = Engine(cfg, graph=labeled_graph)
        bulks = list(engine.stream_bulks(0))
        assert len(bulks) == int(np.ceil(direct.n_batches / 2))
        assert engine.epoch_stats == direct
        assert bulks[0].loss is not None

    def test_json_config_reproduces_direct_path(self, tmp_path):
        """Acceptance: a JSON config written by to_dict reproduces the
        same EpochStats through Engine as the direct constructor path."""
        cfg = self._cfg(epochs=1)
        path = tmp_path / "run.json"
        cfg.to_json(path)
        direct = Engine(cfg).train_epoch(0)
        via_json = Engine.from_json(path).train_epoch(0)
        assert via_json == direct

    def test_from_dict_config(self):
        engine = Engine({"dataset": "products", "scale": 0.1, "p": 2,
                         "fanout": [5, 3], "batch_size": 16, "hidden": 16})
        assert engine.config.fanout == (5, 3)


class TestCustomSamplerPluginThroughCLI:
    def test_registered_plugin_flows_through_cli(self, capsys):
        from repro.cli import build_parser, main

        @SAMPLERS.register(
            "half-uniform",
            default_conv="sage",
            pipeline_kwargs={"include_dst": True},
            algorithms=("single", "replicated"),
            default_fanout=(4, 2),
        )
        class HalfUniformSampler(SageSampler):
            name = "half-uniform"

        try:
            # The new name is a valid argparse choice...
            args = build_parser().parse_args(
                ["sample", "products", "--sampler", "half-uniform"]
            )
            assert args.sampler == "half-uniform"
            # ...and runs end-to-end through both CLI commands.
            assert main(
                ["sample", "products", "--sampler", "half-uniform",
                 "--scale", "0.1", "--batches", "2", "--batch-size", "8",
                 "--fanout", "3,2"]
            ) == 0
            assert "half-uniform" in capsys.readouterr().out
            assert main(
                ["train", "products", "--sampler", "half-uniform",
                 "--scale", "0.1", "--epochs", "1", "--p", "2",
                 "--batch-size", "16"]
            ) == 0
            assert "test accuracy" in capsys.readouterr().out
        finally:
            SAMPLERS.unregister("half-uniform")

    def test_unknown_sampler_rejected_by_cli(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sample", "products", "--sampler", "half-uniform"]
            )
