"""Named wall-clock span accumulation.

:class:`SpanTimer` is the single timing primitive of the observability
layer: it accumulates total seconds and an invocation count per span name.
The simulation engine is its one caller.  Each lane reads
:func:`time.perf_counter` around the dispatch, scheduler and transmit
phases of every ``span_stride``-th slot, folds the elapsed seconds in with
:meth:`SpanTimer.add`, and at run end publishes the totals as
``engine_phase_seconds{phase=…}`` gauges.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["SpanTimer"]


class SpanTimer:
    """Accumulates ``(total seconds, count)`` per span name."""

    __slots__ = ("totals", "counts")

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    def add(self, name: str, seconds: float) -> None:
        """Fold externally measured ``seconds`` into span ``name``."""
        self.totals[name] = self.totals.get(name, 0.0) + seconds
        self.counts[name] = self.counts.get(name, 0) + 1

    def total(self, name: str) -> float:
        """Accumulated seconds of span ``name`` (0.0 when never recorded)."""
        return self.totals.get(name, 0.0)
