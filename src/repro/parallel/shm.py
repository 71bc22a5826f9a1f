"""Shared-memory publication of frozen graph and feature arrays.

The sampling and serving hot paths are read-only over the CSR adjacency
(``indptr``/``indices``/``data``) and the feature matrix.  To run them on
real cores instead of the simulated clock, those arrays are placed into
named ``multiprocessing.shared_memory`` segments **once** by the owning
process; workers attach and get zero-copy ``np.ndarray`` views (marked
read-only, so a buggy worker cannot corrupt the shared graph).

Lifecycle rules, because leaked segments outlive the process:

* Only the publishing process owns segments.  Ownership is tracked in a
  module registry cleaned by ``atexit`` and by chained SIGINT/SIGTERM
  handlers, so segments are unlinked even when the owner crashes or is
  interrupted mid-run.
* :class:`SegmentGroup` refcounts a publication: every consumer that
  stores a handle calls :meth:`~SegmentGroup.retain` and later
  :meth:`~SegmentGroup.release`; the backing segments are unlinked when
  the count reaches zero (or immediately via the context manager).
* Workers *attach* but never own: only the owner ever calls ``unlink``.
  Spawn children share the owner's ``resource_tracker`` process, whose
  cache is a set — a worker's attach-time register dedups against the
  owner's, and the owner's single unlink performs the one matching
  unregister (see :func:`attach_array`).

This module is only imported when parallelism is requested —
``workers=0`` paths never touch ``multiprocessing`` (see
:mod:`repro.parallel.backend`).
"""

from __future__ import annotations

import atexit
import os
import secrets
import signal
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..sparse import CSRMatrix

if TYPE_CHECKING:  # pragma: no cover
    from ..stream.graph import StreamingGraph

__all__ = [
    "parallel_support_error",
    "ensure_parallel_support",
    "SharedArraySpec",
    "SegmentGroup",
    "SharedGraph",
    "SharedFeatures",
    "publish_array",
    "attach_array",
    "owned_segment_names",
]


# ---------------------------------------------------------------------- #
# Support probe
# ---------------------------------------------------------------------- #
def parallel_support_error() -> str | None:
    """``None`` when shared-memory parallelism can work here, else an
    actionable description of why it cannot (missing module, no writable
    ``/dev/shm``, ...).  Probes by creating and unlinking a 1-byte
    segment — the only authoritative test."""
    try:
        from multiprocessing import shared_memory
    except ImportError as exc:  # pragma: no cover - platform-specific
        return (
            f"multiprocessing.shared_memory is unavailable on this "
            f"platform ({exc}); run with workers=0 for the serial path"
        )
    try:
        probe = shared_memory.SharedMemory(create=True, size=1)
    except OSError as exc:  # pragma: no cover - platform-specific
        return (
            f"cannot create shared-memory segments ({exc}); check that "
            f"/dev/shm is mounted and writable, or run with workers=0"
        )
    probe.close()
    probe.unlink()
    return None


def ensure_parallel_support() -> None:
    """Raise ``RuntimeError`` with an actionable message when shared-memory
    parallelism is unsupported.  Called once per pool/publication, *only*
    when parallelism was actually requested."""
    error = parallel_support_error()
    if error is not None:
        raise RuntimeError(f"parallel execution unavailable: {error}")


# ---------------------------------------------------------------------- #
# Owned-segment registry: atexit + signal guards
# ---------------------------------------------------------------------- #
_OWNED: dict[str, "object"] = {}  # name -> SharedMemory owned by this process
_OWNED_LOCK = threading.Lock()
_GUARDS_INSTALLED = False


def owned_segment_names() -> tuple[str, ...]:
    """Names of segments this process currently owns (for tests)."""
    with _OWNED_LOCK:
        return tuple(_OWNED)


def _cleanup_owned() -> None:
    """Unlink every segment this process still owns.  Idempotent; runs at
    interpreter exit and on fatal signals."""
    with _OWNED_LOCK:
        segments = list(_OWNED.values())
        _OWNED.clear()
    for shm in segments:
        try:
            shm.close()
            shm.unlink()
        except OSError:  # pragma: no cover - already gone
            pass


def _install_guards() -> None:
    """Register the atexit hook and chain SIGINT/SIGTERM handlers (once,
    lazily, on first publication — importing this module has no side
    effects).  The signal handlers clean up and then defer to whatever
    handler was installed before, so KeyboardInterrupt semantics are
    preserved."""
    global _GUARDS_INSTALLED
    if _GUARDS_INSTALLED:
        return
    _GUARDS_INSTALLED = True
    atexit.register(_cleanup_owned)
    if threading.current_thread() is not threading.main_thread():
        return  # pragma: no cover - signal API needs the main thread
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous = signal.getsignal(signum)

            def _guard(sig, frame, _previous=previous):
                _cleanup_owned()
                if callable(_previous):
                    _previous(sig, frame)
                else:
                    signal.signal(sig, signal.SIG_DFL)
                    signal.raise_signal(sig)

            signal.signal(signum, _guard)
        except (ValueError, OSError):  # pragma: no cover - exotic runtime
            pass


# ---------------------------------------------------------------------- #
# Array publication / attachment
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SharedArraySpec:
    """The picklable handle a worker needs to attach one published array."""

    name: str
    shape: tuple[int, ...]
    dtype: str


def publish_array(array: np.ndarray, label: str):
    """Copy ``array`` into a fresh named segment owned by this process.

    Returns ``(spec, shm)``: the picklable :class:`SharedArraySpec` and
    the owning ``SharedMemory`` handle (registered for crash cleanup).
    """
    from multiprocessing import shared_memory

    _install_guards()
    array = np.ascontiguousarray(array)
    name = f"repro-{os.getpid()}-{label}-{secrets.token_hex(4)}"
    shm = shared_memory.SharedMemory(
        create=True, size=max(1, array.nbytes), name=name
    )
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
    view[...] = array
    with _OWNED_LOCK:
        _OWNED[name] = shm
    spec = SharedArraySpec(name=name, shape=tuple(array.shape), dtype=str(array.dtype))
    return spec, shm


def attach_array(spec: SharedArraySpec):
    """Attach to a published array from a *worker* process.

    Returns ``(view, shm)``; the view is read-only and zero-copy, and the
    handle must be kept alive as long as the view is used.

    Python 3.11 registers every attach with the ``resource_tracker``; our
    workers are spawn children of the publisher, so they share its tracker
    process and the register is a set-add dedup — the owner's eventual
    ``unlink`` performs the single matching unregister.  Workers must NOT
    unregister here: with a shared tracker that would strip the owner's
    registration and make the tracker error on the owner's own cleanup.
    """
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=spec.name)
    view = np.ndarray(spec.shape, dtype=spec.dtype, buffer=shm.buf)
    view.flags.writeable = False
    return view, shm


def _unpublish(shm) -> None:
    with _OWNED_LOCK:
        _OWNED.pop(shm.name, None)
    try:
        shm.close()
        shm.unlink()
    except OSError:  # pragma: no cover - already cleaned by a guard
        pass


# ---------------------------------------------------------------------- #
# Refcounted publication groups
# ---------------------------------------------------------------------- #
class SegmentGroup:
    """Refcounted ownership of a set of published segments.

    Created with one reference; :meth:`retain`/:meth:`release` let several
    consumers (a worker pool, a fleet run, a benchmark) share one
    publication, with the backing segments unlinked exactly once when the
    last consumer releases.  Usable as a context manager for scoped runs.
    """

    def __init__(self) -> None:
        self._handles: list = []
        self._refs = 1
        self._lock = threading.Lock()
        self.closed = False

    def adopt(self, shm) -> None:
        """Take ownership of one published segment handle."""
        self._handles.append(shm)

    def retain(self) -> "SegmentGroup":
        with self._lock:
            if self.closed:
                raise RuntimeError("segment group is already closed")
            self._refs += 1
        return self

    def release(self) -> None:
        with self._lock:
            if self.closed:
                return
            self._refs -= 1
            if self._refs > 0:
                return
            self.closed = True
        for shm in self._handles:
            _unpublish(shm)
        self._handles.clear()

    def close(self) -> None:
        """Unconditionally unlink now, regardless of refcount (used by the
        crash-path tests; normal code paths release)."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
        for shm in self._handles:
            _unpublish(shm)
        self._handles.clear()

    def __enter__(self) -> "SegmentGroup":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


# ---------------------------------------------------------------------- #
# Graph / feature publications
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class _GraphHandle:
    """Picklable attachment recipe for one published CSR adjacency."""

    indptr: SharedArraySpec
    indices: SharedArraySpec
    data: SharedArraySpec
    shape: tuple[int, int]
    version: int

    def attach(self):
        """Zero-copy :class:`CSRMatrix` view in a worker.  Returns
        ``(adj, handles)`` — keep ``handles`` alive with the matrix."""
        indptr, h1 = attach_array(self.indptr)
        indices, h2 = attach_array(self.indices)
        data, h3 = attach_array(self.data)
        # from_buffers is a no-copy passthrough for these contiguous,
        # correctly-typed views, so the worker's matrix reads the
        # publisher's pages directly.
        adj = CSRMatrix.from_buffers(indptr, indices, data, self.shape)
        return adj, (h1, h2, h3)


class SharedGraph:
    """One frozen CSR adjacency published to shared memory.

    ``publish`` copies the three CSR arrays out once; ``handle`` is the
    small picklable message workers attach from.  ``republish`` swaps in
    a new adjacency (streaming compaction produces one) under a bumped
    ``version`` so warm workers know to re-attach, and :meth:`track`
    wires that into a :class:`~repro.stream.graph.StreamingGraph`'s
    compaction hook.
    """

    def __init__(self, adj: CSRMatrix, *, label: str = "graph") -> None:
        ensure_parallel_support()
        self._label = label
        self.group = SegmentGroup()
        self.handle = self._publish(adj, version=0)

    @classmethod
    def publish(cls, adj: CSRMatrix, *, label: str = "graph") -> "SharedGraph":
        return cls(adj, label=label)

    def _publish(self, adj: CSRMatrix, version: int) -> _GraphHandle:
        indptr, indices, data = adj.buffers()
        spec_p, h_p = publish_array(indptr, f"{self._label}-indptr")
        spec_i, h_i = publish_array(indices, f"{self._label}-indices")
        spec_d, h_d = publish_array(data, f"{self._label}-data")
        for h in (h_p, h_i, h_d):
            self.group.adopt(h)
        return _GraphHandle(
            indptr=spec_p, indices=spec_i, data=spec_d,
            shape=adj.shape, version=version,
        )

    def republish(self, adj: CSRMatrix) -> _GraphHandle:
        """Publish a replacement adjacency (new segments, bumped version).

        The old segments stay linked until the group is released — warm
        workers may still hold views of them mid-batch; they re-attach on
        the next task that carries the new handle.
        """
        if self.group.closed:
            raise RuntimeError("cannot republish through a closed SharedGraph")
        self.handle = self._publish(adj, version=self.handle.version + 1)
        return self.handle

    def track(self, stream: "StreamingGraph") -> None:
        """Re-publish automatically whenever ``stream`` compacts."""
        stream.compaction_hooks.append(lambda adj: self.republish(adj))

    # Delegate lifecycle to the group.
    def retain(self) -> "SharedGraph":
        self.group.retain()
        return self

    def release(self) -> None:
        self.group.release()

    def close(self) -> None:
        self.group.close()

    def __enter__(self) -> "SharedGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


@dataclass(frozen=True)
class _FeatureHandle:
    """Picklable attachment recipe for one published feature matrix."""

    spec: SharedArraySpec
    version: int

    def attach(self):
        """Read-only zero-copy feature view; keep the handle alive."""
        view, h = attach_array(self.spec)
        return view, (h,)


class SharedFeatures:
    """A dense feature matrix published to shared memory (same lifecycle
    contract as :class:`SharedGraph`)."""

    def __init__(self, features: np.ndarray, *, label: str = "features") -> None:
        ensure_parallel_support()
        self._label = label
        self.group = SegmentGroup()
        spec, h = publish_array(np.ascontiguousarray(features), label)
        self.group.adopt(h)
        self.handle = _FeatureHandle(spec=spec, version=0)

    @classmethod
    def publish(
        cls, features: np.ndarray, *, label: str = "features"
    ) -> "SharedFeatures":
        return cls(features, label=label)

    def republish(self, features: np.ndarray) -> _FeatureHandle:
        if self.group.closed:
            raise RuntimeError("cannot republish through closed SharedFeatures")
        spec, h = publish_array(np.ascontiguousarray(features), self._label)
        self.group.adopt(h)
        self.handle = _FeatureHandle(spec=spec, version=self.handle.version + 1)
        return self.handle

    def retain(self) -> "SharedFeatures":
        self.group.retain()
        return self

    def release(self) -> None:
        self.group.release()

    def close(self) -> None:
        self.group.close()

    def __enter__(self) -> "SharedFeatures":
        return self

    def __exit__(self, *exc) -> None:
        self.release()
