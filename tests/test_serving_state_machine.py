"""Stateful test of the serving fleet over a streaming graph (ROADMAP 4(a)).

A Hypothesis rule-based state machine drives one ``StreamingGraph`` and
the ``ServingCluster`` built over it through edge churn and serving:

* single-edge inserts of absent edges and deletes of present ones, through
  ``ServingCluster.apply_update`` (so every replica invalidates);
* duplicate inserts and missing deletes, which change nothing;
* forced compactions;
* one-shot ``serve`` of a few vertices, repeats allowed;
* ``process`` of a short trace whose requests interleave with edge batches.

The invariant: every row the cluster serves is bit-equal to
``layerwise_inference`` on ``rebuild_from_scratch()`` of the graph it was
served on.  A one-shot row is checked on the graph as it stands; a row of
``process`` is checked in the workload's ``on_complete`` hook, which the
control loop calls right after serving the row's micro-batch and before it
applies the next update — where the graph must also be the one as of the
batch's dispatch: every edge batch that arrived by then applied, and no
later one.  The stream's edge set is also held to a Python set after every
rule.

Four configurations: 1 and 3 replicas behind ``consistent_hash``, with the
embedding cache off and on (a budget of 16 of the 64 vertices' rows).
"""

from __future__ import annotations

import copy
from bisect import bisect_right

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.api import RunConfig
from repro.gnn import GNNModel
from repro.graphs import Graph, rmat
from repro.pipeline import layerwise_inference
from repro.serve import InferenceRequest, ServingCluster, TraceWorkload
from repro.stream import EdgeBatch, StreamingGraph, UpdateStream

N = 64
HIDDEN = 8
_rng = np.random.default_rng(0)
GRAPH = Graph("machine", rmat(6, 3, _rng), features=_rng.random((N, 4)))
MODEL = GNNModel(4, HIDDEN, 3, 2, _rng)


def _edges(adj) -> set[tuple[int, int]]:
    rows, cols, _ = adj.to_coo()
    return set(zip(rows.tolist(), cols.tolist()))


class _Checked(UpdateStream):
    """A trace plus edge batches whose every result is checked as served."""

    def __init__(self, requests, batches, check) -> None:
        super().__init__(TraceWorkload(requests), batches)
        self.check = check

    def on_complete(self, result):
        self.check(result)
        return []


class ServingMachine(RuleBasedStateMachine):
    replicas = 1
    embed_budget = 0.0

    @initialize()
    def build(self):
        graph = copy.copy(GRAPH)
        self.stream = StreamingGraph(graph)
        cfg = RunConfig(
            replicas=self.replicas, router="consistent_hash",
            embed_budget=self.embed_budget, stream_updates=True,
        )
        self.cluster = ServingCluster(MODEL, graph, cfg, stream=self.stream)
        self.edges = _edges(graph.adj)
        self.served = 0
        self._reference = (None, None)

    # -- the oracle -------------------------------------------------------- #
    def check(self, vertices, logits):
        version, want = self._reference
        if version != self.stream.stats.batches:  # the graph may have moved
            version = self.stream.stats.batches
            want = layerwise_inference(MODEL, self.stream.rebuild_from_scratch())
            self._reference = (version, want)
        assert logits.tobytes() == want[vertices].tobytes()
        self.served += len(vertices)

    def _edge(self, data, present: bool) -> tuple[int, int]:
        if present:
            return data.draw(st.sampled_from(sorted(self.edges)))
        u = data.draw(st.integers(0, N - 1))
        absent = [v for v in range(N) if (u, v) not in self.edges]
        return u, data.draw(st.sampled_from(absent))

    def _apply(self, edge, op):
        self.cluster.apply_update(EdgeBatch([edge[0]], [edge[1]], op))

    # -- rules ------------------------------------------------------------- #
    @rule(data=st.data())
    def insert(self, data):
        edge = self._edge(data, present=False)
        self._apply(edge, "insert")
        self.edges.add(edge)

    @rule(data=st.data())
    def delete(self, data):
        edge = self._edge(data, present=True)
        self._apply(edge, "delete")
        self.edges.discard(edge)

    @rule(data=st.data())
    def duplicate_insert(self, data):
        self._apply(self._edge(data, present=True), "insert")

    @rule(data=st.data())
    def missing_delete(self, data):
        self._apply(self._edge(data, present=False), "delete")

    @rule()
    def compact(self):
        self.stream.compact()

    @rule(vertices=st.lists(st.integers(0, N - 1), min_size=1, max_size=4))
    def serve(self, vertices):
        vertices = np.array(vertices, dtype=np.int64)
        self.check(vertices, self.cluster.serve(vertices))

    @rule(data=st.data(), n=st.integers(1, 5), churn=st.integers(0, 3))
    def process(self, data, n, churn):
        requests = [
            InferenceRequest(
                rid=i,
                vertices=data.draw(
                    st.lists(st.integers(0, N - 1), min_size=1, max_size=2)
                ),
                arrival=i * 1e-4,
            )
            for i in range(n)
        ]
        batches = []
        for _ in range(churn):
            op = data.draw(st.sampled_from(["insert", "delete"]))
            u, v = self._edge(data, present=op == "delete")
            at = data.draw(st.integers(0, n)) * 1e-4 + 5e-5
            batches.append(EdgeBatch([u], [v], op, at=at))
        arrivals = sorted(b.at for b in batches)
        applied = self.stream.stats.batches

        def as_of_dispatch(result):
            done = self.stream.stats.batches - applied
            assert done == bisect_right(arrivals, result.dispatched)
            self.check(result.request.vertices, result.logits)

        before = self.served
        report = self.cluster.process(_Checked(requests, batches, as_of_dispatch))
        assert report.n_requests == n
        assert self.served - before == sum(len(r.vertices) for r in requests)
        for batch in sorted(batches, key=lambda b: b.at):
            edge = (int(batch.src[0]), int(batch.dst[0]))
            if batch.op == "insert":
                self.edges.add(edge)
            else:
                self.edges.discard(edge)

    # -- checked after every rule ------------------------------------------ #
    @invariant()
    def edge_set_is_the_oracle(self):
        assert _edges(self.stream.graph.adj) == self.edges


def _configured(replicas: int, embed_budget: float):
    machine = type(
        f"ServingMachineR{replicas}B{int(embed_budget)}", (ServingMachine,),
        {"replicas": replicas, "embed_budget": embed_budget},
    )
    case = machine.TestCase
    case.settings = settings(
        max_examples=12, stateful_step_count=12, deadline=None,
        derandomize=True, database=None,
    )
    return case


TestOneReplica = _configured(1, 0.0)
TestOneReplicaCached = _configured(1, 16 * HIDDEN * 4.0)
TestThreeReplicas = _configured(3, 0.0)
TestThreeReplicasCached = _configured(3, 16 * HIDDEN * 4.0)
