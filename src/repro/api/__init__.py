"""repro.api — the public facade of the reproduction.

Everything user-facing goes through three pieces:

* **Registries** (:data:`SAMPLERS`, :data:`ALGORITHMS`, :data:`DATASETS`)
  — the only name -> implementation tables in the system.
  Plugins register here and become available to the CLI, the pipeline, the
  benchmarks and the Engine at once.
* **RunConfig** — a validated, JSON-round-trippable description of a run.
* **Engine** — owns graph + config + execution backend; exposes
  ``sample()``, ``train()``, ``evaluate()`` and the generator
  ``stream_bulks()``.

Quickstart::

    from repro.api import Engine, RunConfig

    cfg = RunConfig(dataset="products", scale=0.25, p=4, fanout=(5, 3),
                    batch_size=32, hidden=32, epochs=3)
    engine = Engine(cfg)
    engine.train()
    print(engine.evaluate("test"))
"""

from .backends import (
    ExecutionBackend,
    PartitionedBackend,
    ReplicatedBackend,
    SingleDeviceBackend,
)
from .config import RunConfig, machine_from_dict, machine_to_dict
from .registries import (
    ALGORITHMS,
    DATASETS,
    SAMPLERS,
    CapabilityError,
    load_graph_from_registry,
    make_sampler,
    sampler_algorithms,
)
from .registry import Registry, RegistryEntry, RegistryKeyError

__all__ = [
    "Registry",
    "RegistryEntry",
    "RegistryKeyError",
    "CapabilityError",
    "SAMPLERS",
    "ALGORITHMS",
    "DATASETS",
    "make_sampler",
    "load_graph_from_registry",
    "sampler_algorithms",
    "ExecutionBackend",
    "SingleDeviceBackend",
    "ReplicatedBackend",
    "PartitionedBackend",
    "RunConfig",
    "machine_to_dict",
    "machine_from_dict",
    "Engine",
]


def __getattr__(name: str):
    # Engine pulls in the training pipeline, which itself resolves through
    # this package's registries — importing it lazily keeps the facade
    # importable from inside repro.pipeline without a cycle.
    if name == "Engine":
        from .engine import Engine

        return Engine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
