"""Quickstart: the repro.api facade in a dozen lines.

Builds a :class:`repro.api.RunConfig` naming everything by table key
(dataset, sampler, execution algorithm), hands it to an
:class:`repro.api.Engine`, trains, and evaluates.  The same config
round-trips through JSON — the printed file reproduces this exact run via
``python -m repro train --config quickstart.json``.

The paper's trick is still underneath: every epoch's minibatches are
sampled in ONE bulk call (per-batch matrices stacked per Equation 1, every
kernel run once over the stack); the Engine just owns the plumbing.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.api import Engine, RunConfig


def main() -> None:
    cfg = RunConfig(
        dataset="products",       # PAPER_DATASETS key -> planted-label stand-in
        scale=0.5,
        train_split=0.5,
        p=1, c=1,
        algorithm="single",       # one device; try "replicated" with p=4
        sampler="sage",           # any repro.api.SAMPLERS key
        fanout=(10, 5),
        batch_size=64,
        hidden=32,
        lr=0.01,
        epochs=8,
        seed=7,
        dataset_kwargs={"with_labels": True, "n_classes": 8},
    )

    engine = Engine(cfg)
    g = engine.graph
    print(f"graph: {g.n} vertices, {g.m} edges, "
          f"{g.n_features} features, {g.n_classes} classes")

    for epoch in range(cfg.epochs):
        stats = engine.train_epoch(epoch)
        print(f"epoch {epoch}: loss {stats.loss:.4f}")

    print(f"test accuracy: {engine.evaluate('test'):.3f}")

    # The whole run is one JSON document.
    print("\nthis run as JSON (repro train --config <file> replays it):")
    print(cfg.to_json(), end="")


if __name__ == "__main__":
    main()
