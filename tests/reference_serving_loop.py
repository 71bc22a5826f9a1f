"""Reference single-server serving loop — the differential-testing oracle.

This is the control loop ``ServingEngine.process`` ran before
:class:`~repro.serve.ServingCluster` became the only server: one
:class:`~repro.serve.Replica`, one :class:`~repro.serve.RequestQueue`, no
router.  It is kept verbatim (minus the
metrics-registry publish) so ``tests/test_serving_loop_differential.py``
can hold the N = 1 cluster to it on logits, batch composition, every
timing, and cache / stream counters — in sampled mode too, where the
golden digests do not reach.  Nothing under ``src/`` may import it.
"""

from __future__ import annotations

import dataclasses

from repro.serve import Replica, RequestQueue, ServeReport


def reference_process(
    model, graph, config, workload, *, fanout=None, stream=None
) -> ServeReport:
    """Run ``workload`` to exhaustion on one fresh replica."""
    if stream is not None:
        graph = stream.graph
    rep = Replica(model, graph, config, fanout=fanout)

    def apply_update(batch, at):
        return rep.absorb_update(stream.apply(batch), at=at)

    updates = list(workload.updates()) if hasattr(workload, "updates") else []
    queue = RequestQueue()
    for req in workload.initial():
        queue.push(req)
    results = []
    free = 0.0
    batch_index = 0
    next_update = 0
    while True:
        dispatch = rep.batcher.next_dispatch(queue, free)
        if dispatch is None:
            if next_update < len(updates):
                # Requests drained first: apply the remaining churn.
                at = max(free, updates[next_update].at)
                free = at + apply_update(updates[next_update], at)
                next_update += 1
                continue
            break
        t, batch = dispatch
        if next_update < len(updates) and updates[next_update].at <= t:
            # The update is due before this batch would leave: put the
            # batch back (it stays the oldest pending work), apply the
            # update while the server would otherwise idle, and re-take
            # the dispatch decision at the new free time.
            queue.pending = batch + queue.pending
            at = max(free, updates[next_update].at)
            free = at + apply_update(updates[next_update], at)
            next_update += 1
            continue
        batch_results = rep.serve_batch(batch, t, batch_index)
        free = batch_results[0].completed
        results.extend(batch_results)
        for result in batch_results:
            for req in workload.on_complete(result):
                queue.push(req)
        batch_index += 1
    results.sort(key=lambda r: r.request.rid)
    return ServeReport(
        results=results,
        batches=batch_index,
        phase_seconds=rep.clock.breakdown(),
        cache_stats=(
            dataclasses.replace(rep.cache.stats)
            if rep.cache is not None
            else None
        ),
        exact=rep.exact,
        update_stats=(
            dataclasses.replace(stream.stats)
            if stream is not None and updates
            else None
        ),
    )
