"""Golden regression tests: fixed-seed sampler runs have pinned outputs.

SpGEMM bodies may differ in floating-point summation order, but on the
integer-valued probability matrices the built-in samplers produce
(neighbor counts, squared counts, exact divisions) every correct SpGEMM
must yield *bit-identical* sampled minibatches.  These tests pin the full
bulk output of each built-in sampler — frontier ids, per-layer adjacency
structure and values — as a digest, and assert it

1. is identical when the sampler's products run through the retired
   ``hash`` and ``scipy`` bodies (``reference_spgemm.py``) instead of
   :func:`repro.sparse.spgemm` — the digests depend on what is sampled,
   not on which correct SpGEMM computed it — and
2. matches a recorded golden constant (any change to sampler logic or the
   RNG consumption pattern is loud, not silent).

If a deliberate sampler change invalidates a golden, regenerate with::

    PYTHONPATH=src python tests/test_golden_samplers.py --regen
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import (
    FastGCNSampler,
    GraphSaintRWSampler,
    LadiesSampler,
    SageSampler,
)
from repro.core.plan import LocalExecutor
from repro.graphs import rmat
from repro.sparse import spgemm

from reference_spgemm import spgemm_esc, spgemm_hash

SEED = 42
N_BATCHES = 6
BATCH_SIZE = 24

#: (name, factory, fanout) for every built-in sampler, training-shaped.
SAMPLER_CASES = [
    ("sage", lambda: SageSampler(include_dst=True), (5, 3)),
    ("ladies", lambda: LadiesSampler(include_dst=True), (32,)),
    ("fastgcn", lambda: FastGCNSampler(include_dst=True), (32,)),
    ("saint", lambda: GraphSaintRWSampler(walk_length=3), (3, 3)),
]

#: Pinned digests of each sampler's full bulk output (see _bulk_digest).
GOLDEN_DIGESTS = {
    "sage": "2cef8be724c9b6ccfba7cd86bd7639e72bb8e07afef9788be3f139f2930e9535",
    "ladies": "5b1d2b40f518693813af57afd4be00f631dd2b6fdec4a0a76bbf686a09a16057",
    "fastgcn": "55577a0c1d7fbf92e2b21031fb5525b3dd5276987336c4940a0ae7ef808fbf0f",
    "saint": "3144055fffd1d93086a7c05dc7a18910a3bee5fbfdf061d9bbd7ba329a002662",
}


def _graph_and_batches():
    rng = np.random.default_rng(SEED)
    adj = rmat(9, 8, rng)
    batches = [
        rng.choice(adj.shape[0], BATCH_SIZE, replace=False)
        for _ in range(N_BATCHES)
    ]
    return adj, batches


def _bulk_digest(samples) -> str:
    """A canonical sha256 over every array of a bulk's minibatches."""
    h = hashlib.sha256()
    for mb in samples:
        h.update(np.ascontiguousarray(mb.batch, dtype=np.int64).tobytes())
        for layer in mb.layers:
            for arr in (
                layer.adj.indptr,
                layer.adj.indices,
                layer.adj.data,
                np.asarray(layer.src_ids, dtype=np.int64),
                np.asarray(layer.dst_ids, dtype=np.int64),
            ):
                h.update(np.ascontiguousarray(arr).tobytes())
            h.update(repr(layer.adj.shape).encode())
    return h.hexdigest()


def _run(name: str, spgemm_fn=None) -> str:
    adj, batches = _graph_and_batches()
    factory = dict((n, f) for n, f, _ in SAMPLER_CASES)[name]
    fanout = dict((n, fo) for n, _, fo in SAMPLER_CASES)[name]
    samples = factory().sample_bulk(
        adj, batches, fanout, np.random.default_rng(SEED), spgemm_fn=spgemm_fn
    )
    assert len(samples) == N_BATCHES
    return _bulk_digest(samples)


@pytest.mark.parametrize("name", [c[0] for c in SAMPLER_CASES])
def test_kernels_sample_identically(name):
    """Running the products through a retired SpGEMM body never changes
    what gets sampled."""
    digests = {
        body.__name__: _run(name, body)
        for body in (spgemm, spgemm_esc, spgemm_hash)
    }
    assert len(set(digests.values())) == 1, digests


@pytest.mark.parametrize("name", [c[0] for c in SAMPLER_CASES])
def test_golden_digest(name):
    """Fixed-seed output matches the recorded golden: the plan as the
    sampler emits it, run by the executor with NORM in place, samples what
    the optimized (fused) program sampled when the digests were recorded."""
    assert _run(name) == GOLDEN_DIGESTS[name]


@pytest.mark.parametrize("name", [c[0] for c in SAMPLER_CASES])
def test_golden_digest_compiled(name):
    """The golden digests hold for the program handed to the executor
    directly: a freshly emitted plan and the sampler's cached one each
    reproduce the digest that ``sample_bulk`` is pinned to above.

    (Once this compared an optimized program with the plan as emitted;
    the emitted plan is now the only program, so what is left to pin is
    that emission is stable and that the executor alone needs nothing
    ``sample_bulk`` adds.)
    """
    adj, batches = _graph_and_batches()
    factory = dict((n, f) for n, f, _ in SAMPLER_CASES)[name]
    fanout = dict((n, fo) for n, _, fo in SAMPLER_CASES)[name]
    sampler = factory()
    fresh, cached = sampler.plan(fanout), sampler.emitted_plan(fanout)
    assert fresh.steps == cached.steps
    for program in (fresh, cached):
        executor = LocalExecutor(
            sampler, adj, batches, np.random.default_rng(SEED), spgemm
        )
        assert (
            _bulk_digest(executor.run(program)) == GOLDEN_DIGESTS[name]
        ), (name, program.describe())


def test_run_twice_is_deterministic():
    """Same seed, same process: byte-identical output (no hidden state)."""
    for name in GOLDEN_DIGESTS:
        assert _run(name) == _run(name)


if __name__ == "__main__":  # golden regeneration helper
    import sys

    if "--regen" in sys.argv:
        for name in GOLDEN_DIGESTS:
            print(f'    "{name}": "{_run(name)}",')
    else:
        print(__doc__)
