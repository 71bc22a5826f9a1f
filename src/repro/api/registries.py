"""The system's pluggable axes: SAMPLERS, ALGORITHMS and DATASETS.

The paper's core claim is that one matrix abstraction (Algorithm 1)
expresses every sampling algorithm; these registries make that claim
operational.  Samplers, execution algorithms and datasets are looked up by
name *only* here — the CLI, the training pipeline, the benchmark harness
and the Engine all resolve through these tables, so registering a plugin
makes it available everywhere at once::

    from repro.api import SAMPLERS

    @SAMPLERS.register("my-sampler", default_conv="sage")
    class MySampler(MatrixSampler):
        ...

    # now valid: RunConfig(sampler="my-sampler"), repro train --sampler ...

Sampler metadata keys
---------------------
``default_conv``
    Model convolution the trainer uses when ``RunConfig.conv`` is unset.
``pipeline_kwargs``
    Constructor kwargs applied when the sampler is built for training
    (the built-ins add ``include_dst=True`` so models keep a root term).
``algorithms``
    Explicit override of the execution algorithms the sampler supports.
    Usually *omitted*: support is **derived** — ``single`` and
    ``replicated`` run the sampler's own ``sample_bulk`` unchanged, and
    ``partitioned`` is available whenever the sampler emits a sampling
    plan (:meth:`~repro.core.MatrixSampler.plan`), because the 1.5D
    executor interprets the plan generically.  A registered class is
    inspected directly; a factory function hides its product, so factories
    that want partitioned support declare it here.
``capabilities``
    ``"sample"`` and/or ``"train"``; a sampling-only entry raises
    :class:`~repro.api.registry.CapabilityError` from the pipeline.
``default_fanout``
    CLI default when ``--fanout`` is not given.
``graph_aware``
    The factory takes the graph as first argument (for samplers whose
    state depends on graph statistics, e.g. degree-biased sampling).
"""

from __future__ import annotations

from typing import Any

from ..core import (
    FastGCNSampler,
    LadiesSampler,
    MatrixSampler,
    SageSampler,
)
from ..graphs import Graph, load_dataset
from ..graphs.datasets import PAPER_DATASETS
from .backends import PartitionedBackend, ReplicatedBackend, SingleDeviceBackend
from .registry import CapabilityError, Registry

__all__ = [
    "SAMPLERS",
    "ALGORITHMS",
    "DATASETS",
    "make_sampler",
    "load_graph_from_registry",
    "sampler_algorithms",
    "CapabilityError",
]

#: All matrix-expressible sampling algorithms, built-in and plugin.
SAMPLERS = Registry("sampler")

#: Execution strategies (where/how bulk sampling runs).
ALGORITHMS = Registry("algorithm")

#: Datasets loadable by name.
DATASETS = Registry("dataset")


# ---------------------------------------------------------------------- #
# Built-in samplers
# ---------------------------------------------------------------------- #
# No ``algorithms`` metadata on the built-ins: all three emit sampling
# plans, so partitioned support is derived — their products distribute
# through the one plan interpreter.
SAMPLERS.register(
    "sage",
    SageSampler,
    default_conv="sage",
    pipeline_kwargs={"include_dst": True},
    capabilities=("sample", "train"),
    default_fanout=(5, 3),
    family="node-wise",
)
SAMPLERS.register(
    "ladies",
    LadiesSampler,
    default_conv="gcn",
    pipeline_kwargs={"include_dst": True},
    capabilities=("sample", "train"),
    default_fanout=(64,),
    family="layer-wise",
)
SAMPLERS.register(
    "fastgcn",
    FastGCNSampler,
    default_conv="gcn",
    pipeline_kwargs={"include_dst": True},
    capabilities=("sample", "train"),
    default_fanout=(64,),
    family="layer-wise",
)


# ---------------------------------------------------------------------- #
# Built-in execution algorithms
# ---------------------------------------------------------------------- #
ALGORITHMS.register(
    "single", SingleDeviceBackend, scalable=False,
    description="one device, no distribution",
)
ALGORITHMS.register(
    "replicated", ReplicatedBackend, scalable=True,
    description="Graph Replicated (section 5.1): A on every rank",
)
ALGORITHMS.register(
    "partitioned", PartitionedBackend, scalable=True,
    description="Graph Partitioned (section 5.2): 1.5D sparsity-aware SpGEMM",
)


# ---------------------------------------------------------------------- #
# Built-in datasets (the paper's Table 3 stand-ins)
# ---------------------------------------------------------------------- #
def _register_paper_dataset(name: str) -> None:
    DATASETS.register(
        name,
        lambda **kwargs: load_dataset(name, **kwargs),
        spec=PAPER_DATASETS[name],
    )


for _name in PAPER_DATASETS:
    _register_paper_dataset(_name)


# ---------------------------------------------------------------------- #
# Construction helpers
# ---------------------------------------------------------------------- #
def make_sampler(
    name: str,
    *,
    graph: Graph | None = None,
    for_training: bool = False,
    **overrides: Any,
) -> MatrixSampler:
    """Instantiate a registered sampler.

    ``for_training`` applies the entry's ``pipeline_kwargs`` (the built-ins
    use it to add the destination vertices to each frontier so models keep
    a root term).  ``graph`` is forwarded as the first argument for
    ``graph_aware`` entries.  ``overrides`` go to the factory verbatim.
    """
    entry = SAMPLERS.spec(name)
    kwargs: dict[str, Any] = {}
    if for_training:
        kwargs.update(entry.meta("pipeline_kwargs", {}))
    kwargs.update(overrides)
    if entry.meta("graph_aware", False):
        if graph is None:
            raise ValueError(
                f"sampler {name!r} is graph-aware and needs a graph to build"
            )
        return entry.obj(graph, **kwargs)
    return entry.obj(**kwargs)


def load_graph_from_registry(
    name: str, *, scale: float = 1.0, seed: int = 0, **kwargs: Any
) -> Graph:
    """Load a registered dataset by name."""
    return DATASETS.get(name)(scale=scale, seed=seed, **kwargs)


def _emits_plan(obj: Any) -> bool:
    """Whether a registered sampler object is known to emit a sampling
    plan.  Classes are inspected directly (``plan`` overridden from the
    :class:`~repro.core.MatrixSampler` base); factory functions hide their
    product, so they must opt in via explicit ``algorithms`` metadata."""
    if isinstance(obj, type) and issubclass(obj, MatrixSampler):
        return obj.plan is not MatrixSampler.plan
    return False


def sampler_algorithms(sampler: str) -> tuple[str, ...]:
    """Execution algorithms a registered sampler supports.

    Explicit ``algorithms`` metadata wins; otherwise support is derived:
    ``single`` and ``replicated`` always work (both run the sampler's own
    ``sample_bulk``), and ``partitioned`` is available iff the sampler
    emits a plan — distribution is a property of the plan, not of any
    per-sampler distributed code.
    """
    entry = SAMPLERS.spec(sampler)
    explicit = entry.meta("algorithms", None)
    if explicit is not None:
        return tuple(explicit)
    derived = ("single", "replicated")
    if _emits_plan(entry.obj):
        derived += ("partitioned",)
    return derived


def check_sampler_supports(sampler: str, algorithm: str) -> None:
    """Raise :class:`CapabilityError` if the sampler's (explicit or
    derived) capabilities rule out the requested execution algorithm."""
    supported = sampler_algorithms(sampler)
    if algorithm not in supported:
        derived = SAMPLERS.spec(sampler).meta("algorithms", None) is None
        why = (
            " (it is not known to emit a sampling plan)"
            if algorithm == "partitioned" and derived
            else ""
        )
        raise CapabilityError(
            f"sampler {sampler!r} does not support the {algorithm!r} "
            f"execution algorithm{why}; supported: {', '.join(supported)}"
        )


def check_sampler_trains(sampler: str) -> None:
    """Raise :class:`CapabilityError` for sampling-only entries used in
    the training pipeline."""
    entry = SAMPLERS.spec(sampler)
    caps = tuple(entry.meta("capabilities", ("sample", "train")))
    if "train" not in caps:
        raise CapabilityError(
            f"sampler {sampler!r} is sampling-only (capabilities: "
            f"{', '.join(caps)}); it cannot drive the training pipeline"
        )
