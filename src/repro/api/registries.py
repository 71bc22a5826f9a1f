"""The sampler and execution-algorithm tables: SAMPLERS and ALGORITHMS.

The paper's core claim is that one matrix abstraction (Algorithm 1)
expresses every sampling algorithm; these two dicts make that claim
operational.  Each maps a name to a class — a
:class:`~repro.core.MatrixSampler` subclass, or an execution backend — and
the CLI, the training pipeline, the benchmark harness and the Engine all
resolve names through them, so adding an entry makes a plugin available
everywhere at once::

    from repro.api import SAMPLERS

    class MySampler(MatrixSampler):
        default_conv = "sage"
        ...

    SAMPLERS["my-sampler"] = MySampler
    # now valid: RunConfig(sampler="my-sampler"), repro train --sampler ...

A sampler declares nothing else: it emits a plan
(:meth:`~repro.core.MatrixSampler.plan` is abstract), and the one plan
interpreter runs every plan under every execution algorithm.  What a
sampler's class says of itself — ``default_conv``, ``default_fanout``,
and :meth:`~repro.core.MatrixSampler.for_graph` when it is built from
graph statistics — lives on the class.  Datasets are the paper's Table 3
stand-ins, :data:`~repro.graphs.PAPER_DATASETS`, loaded by
:func:`~repro.graphs.load_dataset`.
"""

from __future__ import annotations

from typing import Any

from ..core import FastGCNSampler, LadiesSampler, MatrixSampler, SageSampler
from ..graphs import Graph
from ..names import check_name
from .backends import PartitionedBackend, ReplicatedBackend, SingleDeviceBackend

__all__ = ["SAMPLERS", "ALGORITHMS", "make_sampler"]

#: All matrix-expressible sampling algorithms, built-in and plugin.
SAMPLERS: dict[str, type[MatrixSampler]] = {
    "sage": SageSampler,
    "ladies": LadiesSampler,
    "fastgcn": FastGCNSampler,
}

#: Execution strategies (where/how bulk sampling runs).
ALGORITHMS: dict[str, type] = {
    "single": SingleDeviceBackend,
    "replicated": ReplicatedBackend,
    "partitioned": PartitionedBackend,
}


def make_sampler(
    name: str,
    *,
    graph: Graph | None = None,
    for_training: bool = False,
    **overrides: Any,
) -> MatrixSampler:
    """Instantiate a sampler by name.

    ``for_training`` adds the destination vertices to each frontier
    (``include_dst=True``) so models keep a root term.  With a ``graph``
    the class builds through :meth:`~repro.core.MatrixSampler.for_graph`.
    ``overrides`` go to the constructor verbatim.
    """
    cls = SAMPLERS[check_name("sampler", name, SAMPLERS)]
    kwargs: dict[str, Any] = {"include_dst": True} if for_training else {}
    kwargs.update(overrides)
    if graph is None:
        return cls(**kwargs)
    return cls.for_graph(graph, **kwargs)
