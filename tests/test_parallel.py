"""The multi-core execution layer: shared-memory publication, the warm
worker pool, bit-identity with serial sampling, and — because leaked
segments outlive the process — the lifecycle guarantees: refcounted
release, crash/interrupt cleanup, and the serial path importing nothing
from ``multiprocessing``."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.bulk import assign_round_robin, batch_rng
from repro.distributed.instrument import SamplingWork, record_sampling
from repro.graphs import Graph, rmat
from repro.parallel import (
    SamplerSpec,
    SegmentGroup,
    SharedFeatures,
    SharedGraph,
    WorkerError,
    WorkerPool,
    parallel_support_error,
)
from repro.parallel.shm import (
    attach_array,
    owned_segment_names,
    publish_array,
)
from repro.sparse import CSRMatrix
from repro.stream import EdgeBatch, StreamingGraph

SRC = str(Path(__file__).parent.parent / "src")

pytestmark = pytest.mark.skipif(
    parallel_support_error() is not None,
    reason=f"no shared-memory support here: {parallel_support_error()}",
)


def _digest(samples) -> bytes:
    import hashlib

    h = hashlib.sha256()
    for mb in samples:
        h.update(np.ascontiguousarray(mb.batch, dtype=np.int64).tobytes())
        for layer in mb.layers:
            for arr in (
                layer.adj.indptr, layer.adj.indices, layer.adj.data,
                np.asarray(layer.src_ids, dtype=np.int64),
                np.asarray(layer.dst_ids, dtype=np.int64),
            ):
                h.update(np.ascontiguousarray(arr).tobytes())
            h.update(repr(layer.adj.shape).encode())
    return h.digest()


def _serial(spec: SamplerSpec, adj, batches, seed: int):
    sampler = spec.build(adj)
    rngs = [batch_rng(seed, i) for i in range(len(batches))]
    return sampler.sample_bulk(adj, batches, spec.fanout, rngs)


# Module-level so spawn can pickle them by qualified name.
def _degree_of(adj, features, vertex: int) -> int:
    return int(adj.indptr[vertex + 1] - adj.indptr[vertex])


def _boom(adj, features, payload):
    raise ValueError(f"intentional worker failure on {payload!r}")


@pytest.fixture(scope="module")
def shared_pool(request):
    """One published graph + 2 warm workers shared across the pool tests
    (spawn startup is ~1s per worker, so tests reuse the fleet)."""
    adj = rmat(9, 8, np.random.default_rng(7))
    shared = SharedGraph.publish(adj)
    pool = WorkerPool(2, shared)
    shared.release()  # the pool holds its own reference
    yield adj, pool
    pool.shutdown()


@pytest.fixture()
def pool_batches(rng):
    return [rng.choice(512, 32, replace=False) for _ in range(8)]


# ---------------------------------------------------------------------- #
# Array publication
# ---------------------------------------------------------------------- #
class TestSharedArrays:
    def test_publish_attach_roundtrip(self):
        array = np.arange(37, dtype=np.float64).reshape(-1)
        spec, shm = publish_array(array, "t-roundtrip")
        try:
            view, handle = attach_array(spec)
            np.testing.assert_array_equal(view, array)
            assert not view.flags.writeable
            handle.close()
        finally:
            with SegmentGroup() as group:
                group.adopt(shm)

    def test_attached_view_is_zero_copy(self):
        array = np.arange(16, dtype=np.int64)
        spec, shm = publish_array(array, "t-zerocopy")
        try:
            view, handle = attach_array(spec)
            assert view.base is not None  # backed by the segment buffer
            with pytest.raises((ValueError, RuntimeError)):
                view[0] = 99
            handle.close()
        finally:
            with SegmentGroup() as group:
                group.adopt(shm)

    def test_publication_is_a_copy(self):
        """Mutating the source after publish must not change the segment
        (the published graph is frozen)."""
        array = np.ones(8)
        spec, shm = publish_array(array, "t-frozen")
        try:
            array[:] = -1.0
            view, handle = attach_array(spec)
            assert (np.asarray(view) == 1.0).all()
            handle.close()
        finally:
            with SegmentGroup() as group:
                group.adopt(shm)


class TestSegmentGroup:
    def test_refcounted_release(self, small_adj):
        shared = SharedGraph.publish(small_adj)
        names = {
            shared.handle.indptr.name,
            shared.handle.indices.name,
            shared.handle.data.name,
        }
        assert names <= set(owned_segment_names())
        shared.retain()
        shared.release()  # one of two references gone
        assert names <= set(owned_segment_names())
        shared.release()  # last reference: segments unlink
        assert not (names & set(owned_segment_names()))

    def test_retain_after_close_rejected(self, small_adj):
        shared = SharedGraph.publish(small_adj)
        shared.close()
        with pytest.raises(RuntimeError, match="closed"):
            shared.retain()

    def test_release_is_idempotent(self, small_adj):
        shared = SharedGraph.publish(small_adj)
        shared.release()
        shared.release()  # no error, no double unlink

    def test_context_manager_releases(self, small_adj):
        with SharedGraph.publish(small_adj) as shared:
            names = {
                shared.handle.indptr.name,
                shared.handle.indices.name,
                shared.handle.data.name,
            }
            assert names <= set(owned_segment_names())
        assert not (names & set(owned_segment_names()))


# ---------------------------------------------------------------------- #
# Graph publication and attachment
# ---------------------------------------------------------------------- #
class TestSharedGraph:
    def test_worker_view_matches_source(self, small_adj):
        with SharedGraph.publish(small_adj) as shared:
            adj, handles = shared.handle.attach()
            assert adj.shape == small_adj.shape
            np.testing.assert_array_equal(adj.indptr, small_adj.indptr)
            np.testing.assert_array_equal(adj.indices, small_adj.indices)
            np.testing.assert_array_equal(adj.data, small_adj.data)
            for h in handles:
                h.close()

    def test_republish_bumps_version_and_swaps_arrays(self, small_adj):
        other = rmat(9, 4, np.random.default_rng(11))
        with SharedGraph.publish(small_adj) as shared:
            first = shared.handle
            assert first.version == 0
            second = shared.republish(other)
            assert second.version == 1
            adj, handles = second.attach()
            np.testing.assert_array_equal(adj.indices, other.indices)
            for h in handles:
                h.close()

    def test_republish_after_close_rejected(self, small_adj):
        shared = SharedGraph.publish(small_adj)
        shared.release()
        with pytest.raises(RuntimeError, match="closed"):
            shared.republish(small_adj)

    def test_track_republishes_on_compaction(self, small_adj):
        graph = Graph(name="t", adj=small_adj)
        stream = StreamingGraph(graph, auto_compact=False)
        with SharedGraph.publish(small_adj) as shared:
            shared.track(stream)
            stream.apply(EdgeBatch(
                src=np.array([0, 1, 2]), dst=np.array([5, 6, 7])
            ))
            assert shared.handle.version == 0  # no compaction yet
            stream.compact()
            assert shared.handle.version == 1
            adj, handles = shared.handle.attach()
            np.testing.assert_array_equal(adj.indptr, stream.adj.indptr)
            for h in handles:
                h.close()


class TestSharedFeatures:
    def test_roundtrip_and_republish(self):
        feats = np.random.default_rng(0).standard_normal((64, 8))
        with SharedFeatures.publish(feats) as shared:
            view, handles = shared.handle.attach()
            np.testing.assert_array_equal(view, feats)
            assert not view.flags.writeable
            for h in handles:
                h.close()
            shared.republish(feats * 2.0)
            assert shared.handle.version == 1


# ---------------------------------------------------------------------- #
# SamplerSpec
# ---------------------------------------------------------------------- #
class TestSamplerSpec:
    def test_digest_distinguishes_specs(self):
        a = SamplerSpec(sampler="sage", fanout=(4, 3))
        assert a.digest() == SamplerSpec(sampler="sage", fanout=(4, 3)).digest()
        for other in (
            SamplerSpec(sampler="ladies", fanout=(4, 3)),
            SamplerSpec(sampler="sage", fanout=(4, 2)),
            SamplerSpec(
                sampler="sage", fanout=(4, 3),
                overrides=(("include_dst", False),),
            ),
            SamplerSpec(sampler="sage", fanout=(4, 3), for_training=False),
        ):
            assert a.digest() != other.digest()

    def test_build_matches_registry_sampler(self, small_adj):
        spec = SamplerSpec(sampler="ladies", fanout=(16,))
        sampler = spec.build(small_adj)
        assert type(sampler).__name__ == "LadiesSampler"


# ---------------------------------------------------------------------- #
# WorkerPool
# ---------------------------------------------------------------------- #
class TestWorkerPool:
    def test_rejects_zero_workers(self, small_adj):
        with SharedGraph.publish(small_adj) as shared:
            with pytest.raises(ValueError, match="workers >= 1"):
                WorkerPool(0, shared)

    def test_bulk_bit_identical_to_serial(self, shared_pool, pool_batches):
        adj, pool = shared_pool
        for spec in (
            SamplerSpec(sampler="sage", fanout=(4, 3), for_training=False),
            SamplerSpec(sampler="ladies", fanout=(32,), for_training=False),
        ):
            reference = _digest(_serial(spec, adj, pool_batches, seed=3))
            samples, work = pool.sample_bulk(
                spec, pool_batches, list(range(len(pool_batches))), 3
            )
            assert _digest(samples) == reference
            assert work.flops > 0 and work.kernels > 0

    def test_workers_bill_with_the_serial_rule(self, shared_pool, pool_batches):
        """The pool's summed work is exactly what serial record_sampling
        records on each worker's round-robin share of the bulk."""
        adj, pool = shared_pool
        for spec in (
            SamplerSpec(sampler="sage", fanout=(4, 3), for_training=False),
            SamplerSpec(sampler="ladies", fanout=(32,), for_training=False),
        ):
            _, work = pool.sample_bulk(
                spec, pool_batches, list(range(len(pool_batches))), 5
            )
            sampler = spec.build(adj)
            expected = SamplingWork()
            shares = assign_round_robin(len(pool_batches), len(pool))
            assert len(shares) == 2
            for share in shares:
                _, mine = record_sampling(
                    sampler, adj, [pool_batches[i] for i in share],
                    spec.fanout, [batch_rng(5, int(i)) for i in share],
                )
                expected += mine
            assert work == expected

    def test_global_indices_key_the_streams(self, shared_pool, pool_batches):
        """Sampling a *slice* of the bulk with its original global indices
        reproduces exactly that slice of the full serial run — the property
        that makes the batch partition invisible."""
        adj, pool = shared_pool
        spec = SamplerSpec(sampler="sage", fanout=(4, 3), for_training=False)
        full = _serial(spec, adj, pool_batches, seed=9)
        part, _ = pool.sample_bulk(spec, pool_batches[4:6], [4, 5], 9)
        assert _digest(part) == _digest(full[4:6])

    def test_register_is_idempotent(self, shared_pool):
        _, pool = shared_pool
        spec = SamplerSpec(sampler="sage", fanout=(4, 3), for_training=False)
        assert pool.register(spec) == pool.register(spec) == spec.digest()

    def test_run_preserves_payload_order(self, shared_pool):
        adj, pool = shared_pool
        vertices = [0, 5, 17, 100, 3, 250, 8]
        out = pool.run(_degree_of, vertices)
        expected = [
            int(adj.indptr[v + 1] - adj.indptr[v]) for v in vertices
        ]
        assert out == expected

    def test_worker_exception_propagates_and_pool_survives(
        self, shared_pool, pool_batches
    ):
        adj, pool = shared_pool
        with pytest.raises(WorkerError, match="intentional worker failure"):
            pool.run(_boom, ["mid-batch"])
        # The worker caught the exception and kept serving: the pool is
        # still usable and still bit-identical afterwards.
        spec = SamplerSpec(sampler="sage", fanout=(4, 3), for_training=False)
        samples, _ = pool.sample_bulk(
            spec, pool_batches, list(range(len(pool_batches))), 3
        )
        assert _digest(samples) == _digest(_serial(spec, adj, pool_batches, 3))

    def test_mismatched_indices_rejected(self, shared_pool, pool_batches):
        _, pool = shared_pool
        spec = SamplerSpec(sampler="sage", fanout=(4, 3), for_training=False)
        with pytest.raises(ValueError, match="one global index per batch"):
            pool.sample_bulk(spec, pool_batches, [0], 0)

    def test_pool_rebinds_after_compaction(self, small_adj, rng):
        """A tracked republish reaches warm workers on their next task."""
        graph = Graph(name="t", adj=small_adj)
        stream = StreamingGraph(graph, auto_compact=False)
        shared = SharedGraph.publish(small_adj)
        spec = SamplerSpec(sampler="sage", fanout=(3, 2), for_training=False)
        batches = [rng.choice(512, 16, replace=False) for _ in range(4)]
        with WorkerPool(1, shared) as pool:
            shared.release()
            shared.track(stream)
            stream.apply(EdgeBatch(
                src=rng.integers(0, 512, 40), dst=rng.integers(0, 512, 40)
            ))
            stream.compact()
            samples, _ = pool.sample_bulk(spec, batches, [0, 1, 2, 3], 5)
            assert _digest(samples) == _digest(
                _serial(spec, stream.adj, batches, 5)
            )


# ---------------------------------------------------------------------- #
# Lifecycle: segments must never outlive their owner
# ---------------------------------------------------------------------- #
class TestLifecycle:
    def test_segments_freed_after_pool_shutdown(self, small_adj):
        shared = SharedGraph.publish(small_adj)
        names = {
            shared.handle.indptr.name,
            shared.handle.indices.name,
            shared.handle.data.name,
        }
        pool = WorkerPool(1, shared)
        shared.release()
        assert names <= set(owned_segment_names())  # pool keeps them alive
        pool.shutdown()
        assert not (names & set(owned_segment_names()))
        pool.shutdown()  # idempotent

    def test_sigint_in_owner_unlinks_segments(self, tmp_path):
        """A ^C in the publishing process must not strand /dev/shm files:
        the chained signal handler unlinks before KeyboardInterrupt."""
        script = tmp_path / "owner.py"
        script.write_text(
            "import sys, time\n"
            f"sys.path.insert(0, {SRC!r})\n"
            "import numpy as np\n"
            "from repro.graphs import rmat\n"
            "from repro.parallel import SharedGraph\n"
            "from repro.parallel.shm import owned_segment_names\n"
            "shared = SharedGraph.publish(rmat(8, 4, np.random.default_rng(0)))\n"
            "for name in owned_segment_names():\n"
            "    print(name, flush=True)\n"
            "print('READY', flush=True)\n"
            "time.sleep(60)\n"
        )
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        names = []
        try:
            for line in proc.stdout:
                if line.strip() == "READY":
                    break
                names.append(line.strip())
            assert names, "owner script published no segments"
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30) != 0  # died of KeyboardInterrupt
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if os.path.isdir("/dev/shm"):
            leaked = [n for n in names if os.path.exists(f"/dev/shm/{n}")]
            assert not leaked, f"SIGINT leaked segments: {leaked}"

    def test_normal_exit_unlinks_segments(self, tmp_path):
        """Without any explicit release, the atexit guard still cleans up."""
        script = tmp_path / "owner_exit.py"
        script.write_text(
            "import sys\n"
            f"sys.path.insert(0, {SRC!r})\n"
            "import numpy as np\n"
            "from repro.graphs import rmat\n"
            "from repro.parallel import SharedGraph\n"
            "from repro.parallel.shm import owned_segment_names\n"
            "shared = SharedGraph.publish(rmat(8, 4, np.random.default_rng(0)))\n"
            "for name in owned_segment_names():\n"
            "    print(name, flush=True)\n"
        )
        out = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        names = out.stdout.split()
        assert names
        assert "leaked shared_memory" not in out.stderr
        if os.path.isdir("/dev/shm"):
            leaked = [n for n in names if os.path.exists(f"/dev/shm/{n}")]
            assert not leaked, f"normal exit leaked segments: {leaked}"


# ---------------------------------------------------------------------- #
# Serial purity: workers=0 must not touch multiprocessing
# ---------------------------------------------------------------------- #
class TestSerialPurity:
    def test_workers_zero_never_imports_multiprocessing(self, tmp_path):
        """The default path stays lean: a full workers=0 train (through the
        parallel backend!) must not pull in multiprocessing at all."""
        script = tmp_path / "serial.py"
        script.write_text(
            "import sys\n"
            f"sys.path.insert(0, {SRC!r})\n"
            "from repro.api import Engine, RunConfig\n"
            "cfg = RunConfig(dataset='products', scale=0.05, train_split=0.5,\n"
            "                algorithm='parallel', p=1, sampler='sage',\n"
            "                fanout=(3, 2), batch_size=8, hidden=8, epochs=1,\n"
            "                seed=0, workers=0)\n"
            "engine = Engine(cfg)\n"
            "engine.train(1)\n"
            "engine.close()\n"
            "mods = [m for m in sys.modules if m.split('.')[0] == 'multiprocessing']\n"
            "assert not mods, f'workers=0 imported {mods}'\n"
            "print('SERIAL-PURE')\n"
        )
        out = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert "SERIAL-PURE" in out.stdout

    def test_csr_buffers_roundtrip_aliases(self, small_adj):
        indptr, indices, data = small_adj.buffers()
        assert indptr is small_adj.indptr
        rebuilt = CSRMatrix.from_buffers(
            indptr, indices, data, small_adj.shape
        )
        assert rebuilt.indices is small_adj.indices
        assert rebuilt.equal(small_adj, 0.0)
