"""Double-buffered bulk scheduling under the simulated clock.

The bulk-synchronous pipeline (paper section 6, Figure 3) runs each bulk's
three stages strictly in sequence: sample, fetch, propagate, then start the
next bulk.  On real hardware the sampling + feature fetching of bulk
``k+1`` can run concurrently with training on bulk ``k`` — sampling is
matrix kernels on the device/NIC front while propagation occupies the
compute stream — so a double-buffered schedule hides the smaller of the
two stage times behind the larger (max-overlap charging, not sum).

:func:`overlapped_makespan` computes the simulated epoch time of that
schedule from per-bulk stage durations: a two-stage pipeline with a buffer
depth of one (bulk ``k+2``'s sampling may not start before training on
bulk ``k`` has begun, because only one prefetched bulk can be resident).

The recurrence over prep (sampling+fetch) and train (propagation) times::

    prep_done[k]  = max(prep_done[k-1], train_done[k-2]) + prep[k]
    train_done[k] = max(prep_done[k], train_done[k-1]) + train[k]

``train_done[-1]`` is the epoch makespan.  It is never worse than the
serial sum and never better than ``max(sum(prep), sum(train))`` — the
busiest stage bounds the pipeline.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["overlapped_makespan"]


def overlapped_makespan(
    prep: Sequence[float], train: Sequence[float]
) -> float:
    """Epoch makespan with sampling+fetch of bulk k+1 overlapping training
    on bulk k (double buffering, one bulk in flight).

    ``prep[k]`` / ``train[k]`` are the simulated durations of bulk ``k``'s
    sampling+fetch and propagation stages.
    """
    if len(prep) != len(train):
        raise ValueError(
            f"need one prep and train time per bulk, got "
            f"{len(prep)} and {len(train)}"
        )
    prep_done = 0.0
    train_done_prev = 0.0  # train_done[k-1]
    train_done_prev2 = 0.0  # train_done[k-2]
    for p_k, t_k in zip(prep, train):
        if p_k < 0 or t_k < 0:
            raise ValueError("stage durations must be non-negative")
        prep_done = max(prep_done, train_done_prev2) + p_k
        train_done = max(prep_done, train_done_prev) + t_k
        train_done_prev2, train_done_prev = train_done_prev, train_done
    return train_done_prev
