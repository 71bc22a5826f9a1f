"""RunConfig: one serializable description of an end-to-end run.

A ``RunConfig`` names *what* to run entirely by registry keys — dataset,
sampler, execution algorithm — plus the numeric knobs, so a JSON file fully
reproduces a run::

    cfg = RunConfig(dataset="products", sampler="ladies", fanout=(64,))
    cfg.to_json("run.json")
    Engine.from_json("run.json").train()

Validation happens at construction and names the registry's known keys, so
a typo or a missing plugin import fails immediately with the accepted
options listed.  ``repro.pipeline.PipelineConfig`` is a deprecated alias
that delegates here.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..config import DeviceModel, LinkModel, MachineConfig, PERLMUTTER_LIKE
from ..gnn.activations import ACTIVATIONS
from ..partition.cache import CACHE_POLICIES
from ..sparse.kernels import KERNELS
from .registries import (
    ALGORITHMS,
    DATASETS,
    SAMPLERS,
    check_sampler_supports,
    check_sampler_trains,
)

__all__ = ["RunConfig", "machine_to_dict", "machine_from_dict"]


def machine_to_dict(machine: MachineConfig) -> dict[str, Any]:
    """JSON-ready nested dict for a :class:`MachineConfig`."""
    return dataclasses.asdict(machine)


def machine_from_dict(data: dict[str, Any]) -> MachineConfig:
    """Inverse of :func:`machine_to_dict`."""
    data = dict(data)
    data["device"] = DeviceModel(**data["device"])
    data["intra_node"] = LinkModel(**data["intra_node"])
    data["inter_node"] = LinkModel(**data["inter_node"])
    return MachineConfig(**data)


@dataclass
class RunConfig:
    """Configuration of one run: cluster shape, algorithm/sampler keys,
    model hyper-parameters and (optionally) the dataset to load.

    Field order up to ``machine`` matches the historical ``PipelineConfig``
    so existing call sites keep working; everything after it is new
    Engine-level configuration.
    """

    p: int = 1
    c: int = 1
    algorithm: str = "replicated"
    sampler: str = "sage"
    fanout: tuple[int, ...] = (15, 10, 5)
    batch_size: int = 1024
    k: int | None = None  # bulk size in minibatches; None = whole epoch
    hidden: int = 256
    lr: float = 3e-3
    seed: int = 0
    train_model: bool = True
    sparsity_aware: bool = True
    conv: str | None = None  # model conv type; defaults per sampler metadata
    work_scale: float = 1.0  # sim-to-paper workload scale (see Communicator)
    machine: MachineConfig = field(default_factory=lambda: PERLMUTTER_LIKE)
    # -- Engine-level configuration (new with repro.api) ----------------- #
    dataset: str | None = None  # registry key; None = caller supplies a graph
    scale: float = 1.0  # dataset down-scaling factor
    train_split: float | None = None  # override train fraction; None = keep
    epochs: int = 3  # default epoch count for engine.train()
    dataset_kwargs: dict[str, Any] = field(default_factory=dict)
    kernel: str = "esc"  # sparse-kernel backend (repro.sparse.KERNELS key)
    # -- feature cache + bulk scheduling (repro.partition.cache) --------- #
    cache_budget: float = 0.0  # per-rank bytes for replicated hot rows; 0 = off
    cache_policy: str = "degree"  # repro.partition.CACHE_POLICIES key
    overlap: bool = False  # double-buffer sampling+fetch with training
    # -- model --------------------------------------------------------- #
    activation: str = "relu"  # inter-layer nonlinearity (repro.gnn.ACTIVATIONS)
    # -- online serving (repro.serve) ----------------------------------- #
    serve_batch_size: int = 8  # micro-batch size cap for the serving engine
    serve_max_wait: float = 1e-3  # max simulated seconds a request queues
    embed_budget: float = 0.0  # bytes for cached h^{L-1} rows; 0 = off
    # -- streaming graphs (repro.stream) -------------------------------- #
    stream_updates: bool = False  # serve over a DeltaCSR accepting edge churn
    compaction_threshold: float = 0.25  # delta-log fraction of nnz that compacts
    # -- serving fleet (repro.serve.cluster) ----------------------------- #
    replicas: int = 1  # initial serving fleet size; 1 = a single server
    router: str = "direct"  # fleet routing policy (repro.serve.ROUTERS key)
    shed_policy: str = "none"  # admission control: none | queue | deadline
    shed_queue_depth: int = 64  # per-replica queue bound for shed_policy="queue"
    shed_deadline: float = 0.0  # staleness bound (s) for shed_policy="deadline"
    slo_p99: float = 0.0  # p99 latency SLO (s) driving the autoscaler; 0 = off
    autoscale_min: int = 1  # autoscaler replica-count floor
    autoscale_max: int = 8  # autoscaler replica-count ceiling
    autoscale_interval: float = 0.01  # seconds of sim time per autoscaler window
    # -- real multi-core execution (repro.parallel) ----------------------- #
    workers: int = 0  # shared-memory worker processes; 0 = serial, no mp import

    def __post_init__(self) -> None:
        if any(s is None or s <= 0 for s in self.fanout):
            raise ValueError(
                f"fanout entries must be positive integers, got "
                f"{tuple(self.fanout)}: keeping every neighbour (None) is "
                f"the serving mode Engine.serving(fanout=None), not a "
                f"training fanout"
            )
        if isinstance(self.fanout, list):
            self.fanout = tuple(int(x) for x in self.fanout)
        if isinstance(self.machine, dict):
            self.machine = machine_from_dict(self.machine)
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; known algorithms: "
                f"{', '.join(ALGORITHMS.names())}"
            )
        if self.sampler not in SAMPLERS:
            raise ValueError(
                f"unknown sampler {self.sampler!r}; known samplers: "
                f"{', '.join(SAMPLERS.names())}"
            )
        if self.dataset is not None and self.dataset not in DATASETS:
            raise ValueError(
                f"unknown dataset {self.dataset!r}; known datasets: "
                f"{', '.join(DATASETS.names())}"
            )
        if self.kernel not in KERNELS:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; known kernels: "
                f"{', '.join(KERNELS.names())}"
            )
        if self.cache_budget < 0:
            raise ValueError("cache_budget must be non-negative bytes")
        if self.cache_policy not in CACHE_POLICIES:
            raise ValueError(
                f"unknown cache policy {self.cache_policy!r}; known "
                f"policies: {', '.join(CACHE_POLICIES)}"
            )
        check_sampler_supports(self.sampler, self.algorithm)
        if self.p <= 0 or self.c <= 0:
            raise ValueError(
                f"invalid process grid p={self.p}, c={self.c}: the GPU "
                f"count (--p) and the replication factor (--c) must both "
                f"be positive"
            )
        if self.p % self.c:
            raise ValueError(
                f"invalid process grid p={self.p}, c={self.c}: the "
                f"replication factor (--c) must divide the GPU count "
                f"(--p) — the {self.p} ranks form a p/c x c grid; try "
                f"--c 1 or a divisor of {self.p}"
            )
        if self.algorithm == "single" and self.p != 1:
            raise ValueError(
                f"algorithm 'single' requires p=1, got p={self.p}"
            )
        if self.workers < 0:
            raise ValueError(
                f"workers must be non-negative (0 = serial), got {self.workers}"
            )
        if self.algorithm == "parallel" and self.p != 1:
            raise ValueError(
                f"algorithm 'parallel' requires p=1, got p={self.p}: it "
                f"parallelizes over real worker processes (workers=N), not "
                f"simulated ranks — use algorithm='replicated' to sweep p"
            )
        if self.k is not None and self.k <= 0:
            raise ValueError("bulk size k must be positive")
        if self.scale <= 0:
            raise ValueError("dataset scale must be positive")
        if self.train_split is not None and not 0.0 < self.train_split <= 1.0:
            raise ValueError("train_split must be in (0, 1]")
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}; known activations: "
                f"{', '.join(ACTIVATIONS)}"
            )
        if self.serve_batch_size <= 0:
            raise ValueError("serve_batch_size must be positive")
        if self.serve_max_wait < 0:
            raise ValueError("serve_max_wait must be non-negative seconds")
        if self.embed_budget < 0:
            raise ValueError("embed_budget must be non-negative bytes")
        if self.compaction_threshold <= 0:
            raise ValueError(
                "compaction_threshold must be positive (the delta-log size, "
                "as a fraction of the base nnz, at which the streaming "
                "overlay compacts into a fresh CSR)"
            )
        # Fleet knobs: import locally — repro.serve imports repro.api.
        from ..serve.admission import SHED_POLICIES
        from ..serve.router import ROUTERS

        if self.replicas <= 0:
            raise ValueError("replicas must be positive")
        if self.router not in ROUTERS:
            raise ValueError(
                f"unknown router {self.router!r}; known routers: "
                f"{', '.join(sorted(ROUTERS))}"
            )
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed policy {self.shed_policy!r}; known policies: "
                f"{', '.join(SHED_POLICIES)}"
            )
        if self.shed_queue_depth <= 0:
            raise ValueError("shed_queue_depth must be positive")
        if self.shed_deadline < 0:
            raise ValueError("shed_deadline must be non-negative seconds")
        if self.slo_p99 < 0:
            raise ValueError("slo_p99 must be non-negative seconds (0 = off)")
        if not (1 <= self.autoscale_min <= self.autoscale_max):
            raise ValueError(
                f"need 1 <= autoscale_min <= autoscale_max, got "
                f"[{self.autoscale_min}, {self.autoscale_max}]"
            )
        if self.autoscale_interval <= 0:
            raise ValueError("autoscale_interval must be positive seconds")
        if self.slo_p99 > 0 and self.replicas > self.autoscale_max:
            raise ValueError(
                "initial replicas exceed autoscale_max; raise the ceiling "
                "or start smaller"
            )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable dict that round-trips via :meth:`from_dict`."""
        out: dict[str, Any] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name == "machine":
                value = machine_to_dict(value)
            elif f.name == "fanout":
                value = list(value)
            elif f.name == "dataset_kwargs":
                value = dict(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunConfig":
        """Build from a (possibly partial) dict; unknown keys are an error
        that names the valid fields."""
        valid = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - valid)
        if unknown:
            raise ValueError(
                f"unknown RunConfig field(s) {', '.join(map(repr, unknown))}; "
                f"valid fields: {', '.join(sorted(valid))}"
            )
        return cls(**data)

    def to_json(self, path: str | Path | None = None, *, indent: int = 2) -> str:
        """Serialize to JSON; also writes ``path`` when given."""
        text = json.dumps(self.to_dict(), indent=indent) + "\n"
        if path is not None:
            Path(path).write_text(text)
        return text

    @classmethod
    def from_json(cls, source: str | Path) -> "RunConfig":
        """Load from a JSON file path or a JSON string."""
        text = str(source)
        if not text.lstrip().startswith("{"):
            text = Path(source).read_text()
        return cls.from_dict(json.loads(text))

    def replace(self, **changes: Any) -> "RunConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------ #
    # Capability checks used by the pipeline
    # ------------------------------------------------------------------ #
    def require_trainable(self) -> None:
        """Raise CapabilityError if the sampler cannot drive training."""
        check_sampler_trains(self.sampler)

    def resolved_conv(self) -> str:
        """The model convolution to use: explicit ``conv`` or the sampler
        registry's ``default_conv``."""
        if self.conv is not None:
            return self.conv
        return SAMPLERS.spec(self.sampler).meta("default_conv", "gcn")
