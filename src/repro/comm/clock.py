"""Per-rank simulated clocks with phase accounting.

The simulator executes distributed algorithms single-threaded but tracks a
separate clock per rank.  Bulk-synchronous steps (the paper's pipeline runs
bulk-synchronously, section 6) synchronize all participants to the latest
clock before advancing.

Every advance is attributed to the currently open *phase* (e.g. "sampling",
"feature_fetch", "propagation"), which is how the benchmark harness produces
the stacked-bar breakdowns of the paper's Figures 4, 6 and 7.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

__all__ = ["SimClock"]


class SimClock:
    """Simulated time for ``world_size`` ranks, split by phase and kind."""

    def __init__(self, world_size: int) -> None:
        if world_size <= 0:
            raise ValueError(f"world_size must be positive, got {world_size}")
        self.world_size = world_size
        self._time = [0.0] * world_size
        # (phase, kind) -> per-rank accumulated seconds; kind is
        # "compute" or "comm" so Figure 7's comm/comp split falls out.
        self._phase_time: dict[tuple[str, str], list[float]] = {}
        self._phase_stack: list[str] = []

    # -------------------------------------------------------------- #
    # Phases
    # -------------------------------------------------------------- #
    @property
    def current_phase(self) -> str:
        return self._phase_stack[-1] if self._phase_stack else "unattributed"

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute all advances inside the block to phase ``name``."""
        self._phase_stack.append(name)
        try:
            yield
        finally:
            self._phase_stack.pop()

    # -------------------------------------------------------------- #
    # Time manipulation
    # -------------------------------------------------------------- #
    def advance(self, rank: int, dt: float, kind: str = "compute") -> None:
        """Move ``rank``'s clock forward ``dt`` seconds in the open phase."""
        if dt < 0:
            raise ValueError(f"cannot advance time by {dt}")
        if kind not in ("compute", "comm"):
            raise ValueError(f"kind must be 'compute' or 'comm', got {kind!r}")
        self._time[rank] += dt
        self._slot((self.current_phase, kind))[rank] += dt

    def _slot(self, key: tuple[str, str]) -> list[float]:
        """Per-rank seconds of one (phase, kind), created on first use."""
        slot = self._phase_time.get(key)
        if slot is None:
            slot = self._phase_time[key] = [0.0] * self.world_size
        return slot

    def barrier(self, ranks: Sequence[int] | None = None) -> float:
        """Synchronize ranks to the maximum clock among them; returns it."""
        ranks = range(self.world_size) if ranks is None else ranks
        t = max(self._time[r] for r in ranks)
        for r in ranks:
            self._time[r] = t
        return t

    # -------------------------------------------------------------- #
    # Readout
    # -------------------------------------------------------------- #
    def time(self, rank: int) -> float:
        """Current simulated time of one rank."""
        return self._time[rank]

    def elapsed(self) -> float:
        """Makespan: the latest clock across all ranks."""
        return max(self._time)

    def phase_seconds(self, phase: str, kind: str | None = None) -> float:
        """Max-over-ranks seconds attributed to ``phase`` (optionally one kind).

        Max over ranks matches how the paper reports bulk-synchronous phase
        times: the slowest participant determines the phase's wall time.
        """
        total = [0.0] * self.world_size
        for (ph, k), per_rank in self._phase_time.items():
            if ph == phase and (kind is None or k == kind):
                total = [a + b for a, b in zip(total, per_rank)]
        return max(total)

    def breakdown(self) -> dict[str, float]:
        """Phase -> max-over-ranks seconds, for reporting."""
        phases = {ph for ph, _ in self._phase_time}
        return {ph: self.phase_seconds(ph) for ph in sorted(phases)}

    def breakdown_by_kind(self) -> dict[tuple[str, str], float]:
        """(phase, kind) -> max-over-ranks seconds."""
        return {
            key: max(per_rank) for key, per_rank in sorted(self._phase_time.items())
        }

    def reset(self) -> None:
        """Zero every clock and all phase accounting."""
        self._time = [0.0] * self.world_size
        self._phase_time.clear()

    @classmethod
    def merged(cls, clocks: Sequence["SimClock"]) -> "SimClock":
        """Concatenate per-server clocks into one fleet-wide clock.

        Each input clock's ranks become consecutive ranks of the merged
        clock, so :meth:`elapsed` is the fleet makespan and
        :meth:`breakdown` reports each phase as the *slowest server's*
        seconds — the same max-over-participants convention the
        bulk-synchronous phase reporting uses.
        """
        if not clocks:
            raise ValueError("need at least one clock to merge")
        total = sum(c.world_size for c in clocks)
        merged = cls(total)
        offset = 0
        for c in clocks:
            for r in range(c.world_size):
                merged._time[offset + r] = c._time[r]
            for key, per_rank in c._phase_time.items():
                slot = merged._slot(key)
                for r, dt in enumerate(per_rank):
                    slot[offset + r] = dt
            offset += c.world_size
        return merged
