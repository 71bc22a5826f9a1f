"""repro.stream — dynamic-graph ingestion over the frozen-CSR stack.

Production graphs mutate under traffic; everything else in this repo
assumes a frozen CSR.  This package bridges the two:

* :class:`DeltaCSR` — edge insertions/deletions applied, one vectorized
  pass per batch over the touched rows, to a canonical frozen view held
  as an anchor CSR plus a patch of the changed rows (whole arrays built
  on demand), with a sorted-array delta log and threshold-triggered
  compaction.
* :class:`StreamingGraph` — a :class:`~repro.graphs.Graph` wrapper that
  refreshes ``graph.adj`` on every update, so samplers / executors /
  inference transparently run on the current graph.
* :func:`dirty_closure` — which cached layer-``k`` representations an edge
  change invalidates (reverse reachability on the new adjacency).
* :class:`UpdateStream` — a serving workload interleaving edge batches
  with inference requests on the simulated clock.

Quickstart::

    from repro.api import Engine, RunConfig
    from repro.stream import UpdateStream

    engine = Engine(RunConfig(dataset="products", scale=0.25, epochs=1,
                              stream_updates=True, embed_budget=65536.0))
    engine.train()
    server = engine.serving()                    # streaming-aware server
    workload = UpdateStream.synthetic(
        engine.graph.adj, engine.graph.test_idx,
        n_requests=64, update_ratio=0.25,
    )
    report = server.process(workload)
    print(report.update_stats.row(), report.digest())
"""

from .delta import DeltaCSR, EdgeBatch, UpdateResult
from .graph import StreamingGraph, StreamStats, dirty_closure
from .workload import UpdateStream

__all__ = [
    "DeltaCSR",
    "EdgeBatch",
    "UpdateResult",
    "StreamingGraph",
    "StreamStats",
    "dirty_closure",
    "UpdateStream",
]
