"""Extending the framework with a new sampling algorithm — as a plugin.

The paper's conclusion names expressing additional sampling algorithms in
the matrix framework as future work.  This example adds one from scratch:
**degree-biased node-wise sampling** — like GraphSAGE, but each frontier
vertex samples neighbors proportionally to the neighbors' own degrees
(high-degree neighbors carry more signal in power-law graphs).

Only the NORM step changes relative to GraphSAGE; Q construction, SAMPLE
(inverse transform sampling) and EXTRACT are inherited untouched — which is
exactly the point of the Algorithm-1 abstraction.

The module adds the class to :data:`repro.api.SAMPLERS`, which makes it
usable everywhere at once — the Engine, the training pipeline under every
execution algorithm, and the CLI — without declaring anything:

    python -m repro --plugin examples.custom_sampler \
        sample products --sampler degree-biased
    python -m repro --plugin examples.custom_sampler \
        train products --sampler degree-biased --fanout 10,5
    python -m repro --plugin examples.custom_sampler \
        train products --sampler degree-biased --p 4 --c 2

Run:  python examples/custom_sampler.py
"""

from __future__ import annotations

import numpy as np

from repro.api import SAMPLERS, Engine, RunConfig
from repro.core import SageSampler
from repro.graphs import Graph
from repro.sparse import CSRMatrix, row_normalize


class DegreeBiasedSampler(SageSampler):
    """Node-wise sampling with neighbor probability ∝ neighbor degree."""

    name = "degree-biased"
    default_fanout = (10, 5)

    def __init__(self, degrees: np.ndarray, **kwargs) -> None:
        super().__init__(**kwargs)
        self.degrees = np.asarray(degrees, dtype=np.float64)

    @classmethod
    def for_graph(cls, graph: Graph, **kwargs) -> "DegreeBiasedSampler":
        # The sampler's state is a graph statistic, read at build time.
        return cls(graph.out_degrees(), **kwargs)

    def norm(self, p: CSRMatrix) -> CSRMatrix:
        # Reweight each nonzero (a candidate neighbor) by its degree, then
        # normalize rows into distributions.  Everything else — bulk
        # stacking, ITS, extraction — is inherited from the framework.
        weighted = CSRMatrix(
            p.indptr.copy(),
            p.indices.copy(),
            p.data * np.maximum(self.degrees[p.indices], 1.0),
            p.shape,
        )
        return row_normalize(weighted)


# The sampler inherits GraphSAGE's plan and ``default_conv``, so every
# execution algorithm runs it unchanged.
SAMPLERS["degree-biased"] = DegreeBiasedSampler


def main() -> None:
    rng = np.random.default_rng(0)
    # The registered name drops straight into a RunConfig — the same path
    # the CLI and pipeline use.
    cfg = RunConfig(
        dataset="products", scale=0.5, train_split=0.5,
        p=4, algorithm="replicated", sampler="degree-biased",
        fanout=(10, 5), batch_size=64, hidden=32, epochs=1, seed=3,
        # R-MAT topology: the power-law degree distribution is what makes
        # degree-biased sampling visibly prefer hubs.
        dataset_kwargs={"with_labels": False},
    )
    engine = Engine(cfg)
    graph = engine.graph
    degrees = graph.out_degrees()

    batches = [rng.choice(graph.n, 64, replace=False) for _ in range(8)]
    fanout = (10, 5)

    uniform = SageSampler()
    biased = engine.sampler  # DegreeBiasedSampler.for_graph(engine.graph)

    u_samples = uniform.sample_bulk(graph.adj, batches, fanout, rng)
    b_samples = biased.sample_bulk(graph.adj, batches, fanout, rng)

    def mean_frontier_degree(samples) -> float:
        degs = [
            degrees[mb.layers[0].src_ids].mean() for mb in samples
        ]
        return float(np.mean(degs))

    u_deg = mean_frontier_degree(u_samples)
    b_deg = mean_frontier_degree(b_samples)
    print(f"mean degree of sampled frontier, uniform GraphSAGE: {u_deg:8.1f}")
    print(f"mean degree of sampled frontier, degree-biased:     {b_deg:8.1f}")
    print(f"bias ratio: {b_deg / u_deg:.2f}x (biased sampler prefers hubs)")

    # The plugin trains through the distributed pipeline unchanged.
    stats = engine.train_epoch(0)
    print(
        f"\ndistributed run on {cfg.p} simulated GPUs: "
        f"loss {stats.loss:.4f} over {stats.n_batches} minibatches "
        f"(sim {stats.total * 1e3:.2f} ms/epoch)"
    )


if __name__ == "__main__":
    main()
