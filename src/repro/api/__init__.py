"""repro.api — the public facade of the reproduction.

Everything user-facing goes through three pieces:

* **Name tables** (:data:`SAMPLERS`, :data:`ALGORITHMS`) — plain dicts of
  classes, like every name table in the system.  A plugin sampler added
  to :data:`SAMPLERS` becomes available to the CLI, the pipeline, the
  benchmarks and the Engine at once; datasets are
  :data:`repro.graphs.PAPER_DATASETS`.
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
    PartitionedBackend,
    ReplicatedBackend,
    SingleDeviceBackend,
)
from .config import RunConfig, machine_from_dict, machine_to_dict
from .registries import ALGORITHMS, SAMPLERS, make_sampler

__all__ = [
    "SAMPLERS",
    "ALGORITHMS",
    "make_sampler",
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
    # this package's name tables — importing it lazily keeps the facade
    # importable from inside repro.pipeline without a cycle.
    if name == "Engine":
        from .engine import Engine

        return Engine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
