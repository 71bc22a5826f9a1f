"""Command-line interface tests."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import _resolve_train_config, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sample", "citeseer"])

    def test_rejects_unknown_sampler(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["train", "products", "--sampler", "magic"]
            )

    def test_registry_drives_choices(self):
        # fastgcn is registered trainable, so the train command accepts it.
        args = build_parser().parse_args(
            ["train", "products", "--sampler", "fastgcn"]
        )
        assert args.sampler == "fastgcn"

    def test_train_defaults_resolve(self):
        args = build_parser().parse_args(["train", "products"])
        cfg = _resolve_train_config(args)
        assert cfg.p == 4 and cfg.algorithm == "replicated"
        assert cfg.dataset == "products"
        assert cfg.fanout == (5, 3)  # sage's registry default_fanout
        assert cfg.train_split == 0.5

    def test_train_fanout_and_split_flags(self):
        args = build_parser().parse_args(
            ["train", "products", "--fanout", "7,4,2",
             "--train-split", "0.25"]
        )
        cfg = _resolve_train_config(args)
        assert cfg.fanout == (7, 4, 2)
        assert cfg.train_split == 0.25

    def test_train_default_fanout_follows_sampler(self):
        args = build_parser().parse_args(
            ["train", "products", "--sampler", "ladies"]
        )
        assert _resolve_train_config(args).fanout == (64,)

    def test_cache_and_overlap_flags(self):
        args = build_parser().parse_args(
            ["train", "products", "--cache-budget", "65536",
             "--cache-policy", "lfu", "--overlap"]
        )
        cfg = _resolve_train_config(args)
        assert cfg.cache_budget == 65536.0
        assert cfg.cache_policy == "lfu"
        assert cfg.overlap is True

    def test_cache_flags_default_off(self):
        cfg = _resolve_train_config(
            build_parser().parse_args(["train", "products"])
        )
        assert cfg.cache_budget == 0.0
        assert cfg.overlap is False

    def test_no_overlap_flag_overrides_config(self, tmp_path):
        from repro.api import RunConfig

        path = tmp_path / "run.json"
        RunConfig(dataset="products", overlap=True).to_json(path)
        args = build_parser().parse_args(
            ["train", "--config", str(path), "--no-overlap"]
        )
        assert _resolve_train_config(args).overlap is False

    def test_rejects_unknown_cache_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["train", "products", "--cache-policy", "magic"]
            )

    def test_config_file_with_flag_overrides(self, tmp_path):
        from repro.api import RunConfig

        path = tmp_path / "run.json"
        RunConfig(dataset="products", scale=0.1, p=2, fanout=(5, 3),
                  batch_size=16, epochs=5).to_json(path)
        args = build_parser().parse_args(
            ["train", "--config", str(path), "--epochs", "1", "--p", "4"]
        )
        cfg = _resolve_train_config(args)
        assert cfg.dataset == "products" and cfg.batch_size == 16
        assert cfg.epochs == 1 and cfg.p == 4  # flags beat the file


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "perlmutter-like" in out
        assert "TF/s" in out
        assert "samplers:" in out and "fastgcn" in out

    def test_generate_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "g.npz"
        code = main(
            ["generate", "products", "--scale", "0.1", "--out", str(out_path)]
        )
        assert code == 0
        from repro.graphs import load_graph

        g = load_graph(out_path)
        assert g.n > 0 and g.n_features == 100
        assert "vertices" in capsys.readouterr().out

    @pytest.mark.parametrize("sampler", ["sage", "ladies", "fastgcn"])
    def test_sample_all_samplers(self, sampler, capsys):
        code = main(
            [
                "sample", "products", "--sampler", sampler,
                "--scale", "0.1", "--batches", "2", "--batch-size", "8",
                "--fanout", "3,2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sampled 2 minibatches" in out

    def test_train(self, capsys):
        code = main(
            [
                "train", "products", "--scale", "0.1", "--epochs", "2",
                "--p", "2", "--batch-size", "16",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "test accuracy" in out
        assert out.count("epoch") == 2

    def test_train_partitioned(self, capsys):
        code = main(
            [
                "train", "products", "--scale", "0.1", "--epochs", "1",
                "--p", "4", "--c", "2", "--algorithm", "partitioned",
                "--batch-size", "16",
            ]
        )
        assert code == 0
        assert "sim-time" in capsys.readouterr().out

    def test_train_with_cache_and_overlap(self, capsys):
        code = main(
            [
                "train", "products", "--scale", "0.1", "--epochs", "1",
                "--p", "4", "--c", "2", "--algorithm", "partitioned",
                "--batch-size", "16", "--k", "2",
                "--cache-budget", "65536", "--overlap",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cache hit-rate" in out
        assert "overlap saved" in out

    def test_train_refuses_removed_sampler(self, capsys):
        """The random-walk sampler is gone: argparse refuses it, exit 2,
        naming the samplers that remain."""
        with pytest.raises(SystemExit) as exc:
            main(["train", "products", "--sampler", "saint"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'saint'" in err
        assert all(name in err for name in ("fastgcn", "ladies", "sage"))

    def test_train_respects_fanout_flag(self, capsys):
        code = main(
            [
                "train", "products", "--scale", "0.1", "--epochs", "1",
                "--p", "2", "--batch-size", "16", "--fanout", "3,2,2",
            ]
        )
        assert code == 0
        assert "test accuracy" in capsys.readouterr().out

    def test_train_without_dataset_uses_default(self, capsys):
        assert main(["train", "--epochs", "1", "--scale", "0.1",
                     "--batch-size", "16", "--hidden", "16"]) == 0
        assert "dataset products" in capsys.readouterr().out

    def test_train_config_without_dataset_errors(self, capsys, tmp_path):
        from repro.api import RunConfig

        path = tmp_path / "run.json"
        RunConfig(p=2, fanout=(5, 3)).to_json(path)
        assert main(["train", "--config", str(path)]) == 2
        assert "no dataset" in capsys.readouterr().err

    def test_train_from_config_file(self, capsys, tmp_path):
        from repro.api import RunConfig

        path = tmp_path / "run.json"
        RunConfig(dataset="products", scale=0.1, train_split=0.5, p=2,
                  fanout=(5, 3), batch_size=16, hidden=16,
                  epochs=1).to_json(path)
        assert main(["train", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "epoch 0" in out and "test accuracy" in out

    def test_train_perf_only_prints_loss_na(self, capsys, tmp_path):
        """Regression: train_model=False stats have loss=None; printing
        must not crash on the float format."""
        from repro.api import RunConfig

        path = tmp_path / "perf.json"
        RunConfig(dataset="products", scale=0.1, train_split=0.5, p=2,
                  fanout=(5, 3), batch_size=16, epochs=1,
                  train_model=False).to_json(path)
        assert main(["train", "--config", str(path)]) == 0
        assert "loss n/a" in capsys.readouterr().out

    def test_plugin_flag_registers_sampler(self, capsys):
        """A plugin module loaded via --plugin is usable end-to-end."""
        code = main(
            [
                "--plugin", "examples.custom_sampler",
                "sample", "products", "--sampler", "degree-biased",
                "--scale", "0.1", "--batches", "2", "--batch-size", "8",
                "--fanout", "3,2",
            ]
        )
        assert code == 0
        assert "degree-biased" in capsys.readouterr().out

    def test_plugin_flag_registers_router(self, capsys, tmp_path, monkeypatch):
        """--router's choices are read off ROUTERS, so a router a plugin
        registers is accepted by argparse as it is by RunConfig."""
        from repro.serve import ROUTERS

        (tmp_path / "sticky_router_plugin.py").write_text(
            "from repro.serve.router import ROUTERS, DirectRouter\n"
            "ROUTERS['sticky'] = DirectRouter\n"
        )
        monkeypatch.syspath_prepend(tmp_path)
        argv = ["serve", "products", "--router", "sticky", "--scale", "0.1",
                "--batch-size", "16", "--hidden", "16", "--fanout", "4,3",
                "--synthetic", "4"]
        with pytest.raises(SystemExit):
            main(argv)
        assert "invalid choice: 'sticky'" in capsys.readouterr().err
        try:
            assert main(["--plugin", "sticky_router_plugin", *argv]) == 0
            assert "router sticky" in capsys.readouterr().out
        finally:
            ROUTERS.pop("sticky", None)

    def test_plugin_flag_works_after_subcommand(self, capsys):
        """--plugin is position-independent (stripped before argparse)."""
        code = main(
            [
                "sample", "products", "--sampler", "degree-biased",
                "--plugin", "examples.custom_sampler",
                "--scale", "0.1", "--batches", "2", "--batch-size", "8",
                "--fanout", "3,2",
            ]
        )
        assert code == 0
        assert "degree-biased" in capsys.readouterr().out

    def test_unknown_plugin_is_clean_error(self, capsys):
        assert main(["--plugin", "no.such.module", "info"]) == 2
        assert "could not import plugin" in capsys.readouterr().err

    def test_garbage_fanout_is_clean_error(self, capsys):
        code = main(
            ["train", "products", "--scale", "0.1", "--fanout", "5,x"]
        )
        assert code == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_sweep(self, capsys):
        code = main(["sweep", "products", "--gpus", "4,8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep" in out and "total_s" in out

    def test_serve_reads_the_trace_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        """``--requests`` is read and checked before the engine is built, so
        a malformed trace is reported without a training run."""
        from repro.api import Engine

        def train(self, *args, **kwargs):
            raise AssertionError("trained before the trace was read")

        monkeypatch.setattr(Engine, "train", train)
        path = tmp_path / "bad.json"
        path.write_text('[{"vertices": [1.7]}]')
        code = main(["serve", "products", "--scale", "0.1",
                     "--requests", str(path)])
        assert code == 2
        out, err = capsys.readouterr()
        assert f"error: trace {path}: request 0: vertices must be a list" in err
        assert out == ""
