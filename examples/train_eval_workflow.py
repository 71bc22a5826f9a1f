"""Full workflow: distributed training, checkpointing, batched inference.

Puts the supporting pieces together the way a downstream user would:

1. train a GraphSAGE model with the distributed pipeline (simulated 4-GPU run)
   through the :class:`repro.api.Engine` facade,
2. checkpoint the parameters to disk,
3. reload into a fresh model and evaluate with layer-wise minibatched
   inference (exact, memory-bounded — no full activation pyramid).

Run:  python examples/train_eval_workflow.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.api import Engine, RunConfig
from repro.gnn import GNNModel, accuracy, load_model_into, save_model
from repro.pipeline import layerwise_inference


def main() -> None:
    cfg = RunConfig(
        dataset="products", scale=0.5, train_split=0.5,
        p=4, c=2, algorithm="replicated", sampler="sage", conv="sage",
        fanout=(8, 4), batch_size=64, hidden=32, lr=0.01, epochs=6,
        seed=21, dataset_kwargs={"with_labels": True, "n_classes": 8},
    )
    engine = Engine(cfg)
    graph = engine.graph

    print(f"training on {cfg.p} simulated GPUs (c={cfg.c}) ...")
    for epoch in range(cfg.epochs):
        stats = engine.train_epoch(epoch)
        print(f"  epoch {epoch}: loss {stats.loss:.4f}  "
              f"(sim {stats.total * 1e3:.2f} ms/epoch)")

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "sage.npz"
        save_model(engine.model, ckpt)
        print(f"checkpointed {ckpt.stat().st_size} bytes")

        fresh = GNNModel(
            graph.n_features, cfg.hidden, graph.n_classes,
            len(cfg.fanout), np.random.default_rng(999), conv="sage",
        )
        load_model_into(fresh, ckpt)

    # Exact full-graph inference, one layer at a time in row batches.
    logits = layerwise_inference(fresh, graph, batch_size=256)
    test_acc = accuracy(logits[graph.test_idx], graph.labels[graph.test_idx])
    val_acc = accuracy(logits[graph.val_idx], graph.labels[graph.val_idx])
    print(f"reloaded model — val acc {val_acc:.3f}, test acc {test_acc:.3f}")


if __name__ == "__main__":
    main()
