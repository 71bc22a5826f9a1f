"""The repro.api facade: the name tables, RunConfig, Engine."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from examples.custom_sampler import DegreeBiasedSampler
from repro.api import ALGORITHMS, SAMPLERS, Engine, RunConfig, make_sampler
from repro.comm import ProcessGrid
from repro.core import SageSampler
from repro.gnn import ACTIVATIONS, GNNModel, make_activation
from repro.gnn.model import CONVS
from repro.graphs import PAPER_DATASETS, load_dataset
from repro.machine import PERLMUTTER_LIKE
from repro.partition import CACHE_POLICIES, CachedFeatureStore, FeatureStore
from repro.pipeline import TrainingPipeline
from repro.serve import ROUTERS, make_router


#: Every sampler the tables know, plus the example plugin.
PLUGGED = sorted(set(SAMPLERS) | {"degree-biased"})


@pytest.fixture
def example_plugin(monkeypatch):
    """``examples/custom_sampler.py``'s sampler, in SAMPLERS for the test."""
    monkeypatch.setitem(SAMPLERS, "degree-biased", DegreeBiasedSampler)


class TestBuiltinRegistries:
    def test_builtin_samplers_present(self):
        assert {"sage", "ladies", "fastgcn"} <= set(SAMPLERS)

    def test_builtin_algorithms_present(self):
        assert {"single", "replicated", "partitioned"} <= set(ALGORITHMS)

    def test_builtin_datasets_present(self):
        assert {"products", "protein", "papers"} <= set(PAPER_DATASETS)

    def test_make_sampler_training_kwargs(self):
        s = make_sampler("sage", for_training=True)
        assert isinstance(s, SageSampler) and s.include_dst

    def test_graph_aware_sampler_needs_graph(self, example_plugin):
        """A sampler built from graph statistics overrides ``for_graph``,
        and make_sampler hands it the graph; without one, the class is
        built directly and its constructor misses the statistic."""
        graph = load_dataset("products", scale=0.1, seed=1)
        s = make_sampler("degree-biased", graph=graph, for_training=True)
        assert isinstance(s, DegreeBiasedSampler) and s.include_dst
        assert np.array_equal(s.degrees, graph.out_degrees())
        with pytest.raises(TypeError, match="degrees"):
            make_sampler("degree-biased")


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
        assert "parallel" not in ALGORITHMS

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


def _bulk_digests(pipeline, bulk, seed) -> list[str]:
    """One digest per sampled minibatch of one bulk, in an order that does
    not depend on which rank got which batch."""
    digests = []
    for per_rank in pipeline.backend.sample_bulk(pipeline, bulk, seed):
        for mb in per_rank:
            h = hashlib.sha256(mb.batch.tobytes())
            for layer in mb.layers:
                for arr in (*layer.adj.buffers(), layer.src_ids, layer.dst_ids):
                    h.update(np.ascontiguousarray(arr).tobytes())
            digests.append(h.hexdigest())
    return sorted(digests)


class TestCapabilities:
    """Every sampler emits a plan, so every sampler runs under every
    execution algorithm without declaring anything."""

    @pytest.mark.parametrize("sampler", ["sage", "ladies", "fastgcn"])
    def test_builtin_accepted_under_partitioned(self, sampler):
        cfg = RunConfig(p=4, c=2, sampler=sampler, algorithm="partitioned",
                        fanout=(2, 2))
        assert cfg.algorithm == "partitioned"

    def test_registered_class_plugin_derives_partitioned(
        self, labeled_graph, monkeypatch
    ):
        """A plugin class added to SAMPLERS, with an inherited plan and no
        declarations, trains an epoch under the partitioned algorithm."""

        class PluginSage(SageSampler):
            name = "plugin-sage"

        monkeypatch.setitem(SAMPLERS, "plugin-sage", PluginSage)
        cfg = RunConfig(
            p=4, c=2, algorithm="partitioned", sampler="plugin-sage",
            fanout=(4, 2), batch_size=32, hidden=16,
        )
        stats = TrainingPipeline(labeled_graph, cfg).train_epoch()
        assert stats.loss is not None and np.isfinite(stats.loss)

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @pytest.mark.parametrize("sampler", PLUGGED)
    def test_every_sampler_trains_under_every_algorithm(
        self, sampler, algorithm, labeled_graph, example_plugin
    ):
        """One tiny epoch trains; and for the same batches, the
        partitioned grid samples the bits the replicated one does."""
        p, c = (1, 1) if algorithm == "single" else (4, 2)
        cfg = RunConfig(
            p=p, c=c, algorithm=algorithm, sampler=sampler, fanout=(4, 2),
            batch_size=64, hidden=8, seed=5,
        )
        pipeline = TrainingPipeline(labeled_graph, cfg)
        stats = pipeline.train_epoch()
        assert stats.n_batches > 0 and np.isfinite(stats.loss)
        if algorithm != "partitioned":
            return
        rng = np.random.default_rng(11)
        bulk = [rng.choice(labeled_graph.train_idx, 16, replace=False)
                for _ in range(6)]
        replicated = TrainingPipeline(
            labeled_graph, cfg.replace(algorithm="replicated")
        )
        want = _bulk_digests(replicated, bulk, seed=9)
        assert len(want) == len(bulk)
        assert _bulk_digests(pipeline, bulk, seed=9) == want


#: Each name table, keyed by the noun its refusal uses (the RunConfig field
#: is that noun in snake case), with its lookup site outside RunConfig.
NAME_TABLES = {
    "sampler": (SAMPLERS, lambda: make_sampler("nope")),
    "algorithm": (ALGORITHMS, None),  # RunConfig is its only lookup
    "dataset": (PAPER_DATASETS, lambda: load_dataset("nope")),
    "conv": (CONVS, lambda: GNNModel(
        4, 4, 2, 1, np.random.default_rng(0), conv="nope")),
    "activation": (ACTIVATIONS, lambda: make_activation("nope")),
    "cache policy": (CACHE_POLICIES, lambda: CachedFeatureStore(
        FeatureStore(np.zeros((4, 2)), ProcessGrid(1, 1)),
        budget_bytes=0.0, policy="nope", scores=np.zeros(4))),
    "router": (ROUTERS, lambda: make_router("nope", 4, [0])),
}


class TestNameTables:
    """Every name table refuses an unknown name through one check, and the
    message names every known key, sorted."""

    @pytest.mark.parametrize("kind", list(NAME_TABLES))
    def test_unknown_name_is_refused_naming_every_known_one(self, kind):
        table, direct = NAME_TABLES[kind]
        plural = kind[:-1] + "ies" if kind.endswith("y") else kind + "s"
        want = f"unknown {kind} 'nope'; known {plural}: " + ", ".join(
            sorted(table)
        )
        field = kind.replace(" ", "_")
        for build in (lambda: RunConfig(**{field: "nope"}), direct):
            if build is None:
                continue
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == want
        assert len(table) >= 2


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
    def test_registered_plugin_flows_through_cli(self, capsys, monkeypatch):
        from repro.cli import build_parser, main

        class HalfUniformSampler(SageSampler):
            name = "half-uniform"
            default_fanout = (4, 2)

        monkeypatch.setitem(SAMPLERS, "half-uniform", HalfUniformSampler)
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

    def test_unknown_sampler_rejected_by_cli(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sample", "products", "--sampler", "half-uniform"]
            )
