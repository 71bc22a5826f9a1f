"""RunConfig: one serializable description of an end-to-end run.

A ``RunConfig`` names *what* to run entirely by registry keys — dataset,
sampler, execution algorithm — plus the numeric knobs, so a JSON file fully
reproduces a run::

    cfg = RunConfig(dataset="products", sampler="ladies", fanout=(64,))
    cfg.to_json("run.json")
    Engine.from_json("run.json").train()

The dataclass is the *single declaration* of every knob: each field's
``metadata`` carries its help text, value type, bound and — for a knob
that names a pluggable implementation — the registry it must be a key of.
Validation (:meth:`RunConfig.__post_init__`), the CLI's flags
(:func:`repro.cli.add_config_flags`) and the README's knob table
(:func:`repro.cli.knob_table`) are all read off
``dataclasses.fields(RunConfig)``, so a flag, its help and its check cannot
drift apart.  Validation happens at construction and names the registry's
known keys, so a typo or a missing plugin import fails immediately with the
accepted options listed.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path
from typing import Any

from ..config import DeviceModel, LinkModel, MachineConfig, PERLMUTTER_LIKE
from ..gnn.activations import ACTIVATIONS
from ..gnn.model import CONVS
from ..partition.cache import CACHE_POLICIES
from ..serve.admission import SHED_POLICIES
from ..serve.router import ROUTERS
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


#: What a field's ``bound`` metadata admits; the key is also the wording
#: of the error message.
_BOUNDS = {
    None: lambda v: True,
    "positive": lambda v: v > 0,
    "non-negative": lambda v: v >= 0,
    "in (0, 1]": lambda v: 0 < v <= 1,
    "zero": lambda v: v == 0,
}

#: The abstract numeric type a declared ``type`` accepts: an ``int`` is
#: fine where ``float`` is declared (and numpy scalars are fine for both),
#: ``bool`` for neither.
_NUMERIC = {int: Integral, float: Real}


def _knob(default: Any, help: str, type: type, **meta: Any) -> Any:
    """A RunConfig field carrying its own declaration.

    ``help`` and ``type`` are mandatory; optional metadata: ``bound`` (a
    :data:`_BOUNDS` key), ``registry`` (the collection of names the value
    must be one of — looked up at validation time, so plugin entries
    count), ``optional`` (``None`` is a legal value), ``metavar`` (the
    CLI's placeholder) and ``note`` (appended to the field's error
    message).  A callable ``default`` is a default factory.
    """
    meta.update(help=help, type=type)
    if callable(default):
        return dataclasses.field(default_factory=default, metadata=meta)
    return dataclasses.field(default=default, metadata=meta)


def knob_expectation(f: dataclasses.Field) -> str:
    """What a field accepts, in words: ``"a positive int"``, ``"a
    registered cache policy"``, ``"a float in (0, 1] or None"``."""
    m = f.metadata
    bound, kind = m.get("bound"), m["type"].__name__
    if "registry" in m:
        text = f"a registered {f.name.replace('_', ' ')}"
    elif m["type"] is tuple:
        text = "a non-empty tuple of positive integers"
    elif bound is None:
        text = f"a {kind}"
    else:
        text = f"a {kind} {bound}" if bound.startswith("in ") else f"a {bound} {kind}"
    return text + (" or None" if m.get("optional") else "")


def _check_knob(f: dataclasses.Field, value: Any) -> Any:
    """One field's value, validated against its declaration (and
    normalized: a fanout list becomes a tuple, a machine dict a
    :class:`MachineConfig`)."""
    m, kind = f.metadata, f.metadata["type"]
    if value is None and m.get("optional"):
        return value
    if "registry" in m:
        if value not in list(m["registry"]):
            noun = f.name.replace("_", " ")
            plural = noun[:-1] + "ies" if noun.endswith("y") else noun + "s"
            raise ValueError(
                f"unknown {noun} {value!r}; known {plural}: "
                f"{', '.join(m['registry'])}" + m.get("note", "")
            )
        return value
    if kind is MachineConfig and isinstance(value, dict):
        return machine_from_dict(value)
    if kind is tuple:
        if isinstance(value, (list, tuple)) and value and all(
            isinstance(s, Integral) and not isinstance(s, bool) and s > 0
            for s in value
        ):
            return tuple(int(s) for s in value)
    elif (
        isinstance(value, _NUMERIC.get(kind, kind))
        and (kind is bool or not isinstance(value, bool))
        and _BOUNDS[m.get("bound")](value)
    ):
        return value
    raise ValueError(
        f"{f.name} must be {knob_expectation(f)}, got {value!r}"
        + m.get("note", "")
    )


@dataclass
class RunConfig:
    """Configuration of one run: cluster shape, algorithm/sampler keys,
    model hyper-parameters and (optionally) the dataset to load.

    Every field is declared once, with :func:`_knob`; see the module
    docstring for what is derived from the declarations.
    """

    # -- cluster shape + what runs on it --------------------------------- #
    p: int = _knob(1, "simulated GPU count", int, bound="positive")
    c: int = _knob(
        1, "replication factor of the p/c x c grid; must divide --p (on "
        "the command line c > 1 implies --algorithm partitioned unless given)",
        int, bound="positive",
    )
    algorithm: str = _knob(
        "replicated", "execution algorithm", str, registry=ALGORITHMS
    )
    sampler: str = _knob("sage", "sampling algorithm", str, registry=SAMPLERS)
    fanout: tuple[int, ...] = _knob(
        (15, 10, 5), "per-layer sample counts (their number is the model "
        "depth; serving itself always uses exact full neighborhoods)",
        tuple, metavar="N,N,...",
        note=": keeping every neighbour (None) is the serving mode "
        "Engine.serving(fanout=None), not a training fanout",
    )
    batch_size: int = _knob(1024, "training minibatch size", int, bound="positive")
    k: int | None = _knob(
        None, "bulk size in minibatches; None = the whole epoch", int,
        bound="positive", optional=True,
    )
    hidden: int = _knob(256, "hidden width", int, bound="positive")
    lr: float = _knob(3e-3, "Adam learning rate", float, bound="positive")
    seed: int = _knob(0, "RNG seed", int, bound="non-negative")
    train_model: bool = _knob(
        True, "run the numpy forward/backward (False = charge costs only)", bool
    )
    sparsity_aware: bool = _knob(
        True, "partitioned SpGEMM ships only the rows a block needs", bool
    )
    conv: str | None = _knob(
        None, "model convolution; None = the sampler's registry default",
        str, registry=CONVS, optional=True,
    )
    work_scale: float = _knob(
        1.0, "sim-to-paper workload scale (see Communicator)", float,
        bound="positive",
    )
    machine: MachineConfig = _knob(
        lambda: PERLMUTTER_LIKE, "simulated machine model", MachineConfig
    )
    # -- dataset ---------------------------------------------------------- #
    dataset: str | None = _knob(
        None, "dataset registry key; None = the caller supplies a graph",
        str, registry=DATASETS, optional=True,
    )
    scale: float = _knob(
        1.0, "dataset down-scaling factor", float, bound="positive"
    )
    train_split: float | None = _knob(
        None, "fraction of vertices used for training; None = keep the "
        "dataset's split", float, bound="in (0, 1]", optional=True,
        metavar="FRAC",
    )
    epochs: int = _knob(
        3, "training epochs (before serving, for serve/stream)", int,
        bound="positive",
    )
    dataset_kwargs: dict[str, Any] = _knob(
        dict, "extra keyword arguments for the dataset loader", dict
    )
    # benchmarks/e2e hashes to_dict() and reads cfg.kernel, so the field
    # stays until ROADMAP item 0 retargets its tracer.
    kernel: str = _knob(
        "esc", "legacy name of the one SpGEMM kernel (scipy's csr_matmat), "
        "always 'esc' (no flag; the field is kept so saved configs hash as "
        "before)", str,
        registry=("esc",),
        note=" (the hash and scipy kernels were removed: drop the key or "
        "set it to 'esc')",
    )
    # -- feature cache + bulk scheduling (repro.partition.cache) --------- #
    cache_budget: float = _knob(
        0.0, "per-rank feature-cache budget in bytes; replicated hot rows "
        "are served locally instead of all-to-allv'd (0 = off)", float,
        bound="non-negative", metavar="BYTES",
    )
    cache_policy: str = _knob(
        "degree", "feature-cache replication policy", str,
        registry=CACHE_POLICIES,
    )
    overlap: bool = _knob(
        False, "double-buffer bulks: overlap sampling+fetch of bulk k+1 "
        "with training on bulk k (simulated clock)", bool,
    )
    # -- model ------------------------------------------------------------ #
    activation: str = _knob(
        "relu", "inter-layer nonlinearity", str, registry=ACTIVATIONS
    )
    # -- online serving (repro.serve) ------------------------------------ #
    serve_batch_size: int = _knob(
        8, "micro-batch size cap (1 = per-request)", int, bound="positive"
    )
    serve_max_wait: float = _knob(
        1e-3, "max simulated seconds a request queues", float,
        bound="non-negative", metavar="SECONDS",
    )
    embed_budget: float = _knob(
        0.0, "embedding-cache budget in bytes for hot penultimate-layer "
        "rows; graph updates invalidate dirty rows (0 = off)", float,
        bound="non-negative", metavar="BYTES",
    )
    # -- streaming graphs (repro.stream) --------------------------------- #
    stream_updates: bool = _knob(
        False, "serve over a DeltaCSR that accepts edge churn", bool
    )
    compaction_threshold: float = _knob(
        0.25, "delta-log size, as a fraction of the base nnz, at which the "
        "streaming overlay compacts into a fresh CSR", float,
        bound="positive", metavar="FRAC",
    )
    # -- serving fleet (repro.serve.cluster) ------------------------------ #
    replicas: int = _knob(
        1, "initial serving fleet size (1 = a single server)", int,
        bound="positive",
    )
    router: str = _knob("direct", "fleet routing policy", str, registry=ROUTERS)
    shed_policy: str = _knob(
        "none", "admission control: shed on per-replica queue depth or "
        "request deadline", str, registry=SHED_POLICIES,
    )
    shed_queue_depth: int = _knob(
        64, "per-replica queue bound for shed_policy=queue", int,
        bound="positive", metavar="N",
    )
    shed_deadline: float = _knob(
        0.0, "staleness bound for shed_policy=deadline", float,
        bound="non-negative", metavar="SECONDS",
    )
    slo_p99: float = _knob(
        0.0, "p99 latency SLO driving the autoscaler (0 = autoscaling off)",
        float, bound="non-negative", metavar="SECONDS",
    )
    autoscale_min: int = _knob(
        1, "autoscaler replica floor", int, bound="positive", metavar="N"
    )
    autoscale_max: int = _knob(
        8, "autoscaler replica ceiling", int, bound="positive", metavar="N"
    )
    autoscale_interval: float = _knob(
        0.01, "simulated seconds per autoscaler evaluation window", float,
        bound="positive", metavar="SECONDS",
    )
    # benchmarks/e2e hashes to_dict(), so the field stays until that hash
    # changes anyway, together with ``kernel`` (ROADMAP item 0).
    workers: int = _knob(
        0, "legacy worker-process count, always 0 (no flag; the field is "
        "kept so saved configs hash as before)", int, bound="zero",
        note=" (the shared-memory worker pool was removed: drop the key or "
        "set it to 0)",
    )

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            setattr(self, f.name, _check_knob(f, getattr(self, f.name)))
        # What is left by hand is what no single field can decide.
        check_sampler_supports(self.sampler, self.algorithm)
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
        if self.autoscale_min > self.autoscale_max:
            raise ValueError(
                f"need 1 <= autoscale_min <= autoscale_max, got "
                f"[{self.autoscale_min}, {self.autoscale_max}]"
            )
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
        """Load from a JSON file path or a JSON string.

        Text that is not JSON, or JSON that is not an object, raises
        ``ValueError`` naming the file.
        """
        text = str(source)
        where = "RunConfig JSON text"
        if not text.lstrip().startswith("{"):
            where = f"config {source}"
            text = Path(source).read_text()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{where} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(
                f"{where} must hold a JSON object of RunConfig fields"
            )
        return cls.from_dict(data)

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
