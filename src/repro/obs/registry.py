"""Deterministic in-process metrics registry.

A :class:`MetricsRegistry` hands out *labeled series* of three instrument
kinds — :class:`Counter` (monotone event counts), :class:`Gauge` (last-value
/ high-water readings) and :class:`Histogram` (fixed log-spaced buckets) —
and renders them all as one plain-dict :meth:`~MetricsRegistry.snapshot`.

Determinism is the design constraint, mirroring the rest of the repository:

* a snapshot is a pure function of the *operations applied*, never of wall
  clock, insertion timing or dict iteration order (series are emitted in
  sorted ``name{labels}`` order, and histogram bucket boundaries are fixed
  at construction);
* instruments only ever *record* — they cannot influence the instrumented
  code, which is what lets the engine promise bit-identical summaries with
  observability on or off.

The **no-op fast path**: :data:`NULL_REGISTRY` is a module-singleton
:class:`NullRegistry` whose instrument accessors return shared do-nothing
instruments.  Callers resolve their instruments once at setup time, so a
disabled run performs no per-event allocations at all — each hot-path hook
is a single attribute read plus a no-op method call (or is skipped outright
behind one boolean, which is how the engine guards its per-packet counters).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.exceptions import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "log_spaced_buckets",
]


def log_spaced_buckets(
    start: float = 1e-6, stop: float = 1e4, per_decade: int = 2
) -> Tuple[float, ...]:
    """Fixed log-spaced histogram bucket upper bounds, ``start`` … ``stop``.

    Bounds are ``10**(k / per_decade)`` for consecutive integers ``k``; the
    computation is closed-form per bound (no running products), so the exact
    float boundaries never depend on how many buckets precede them.
    """
    if start <= 0 or stop <= start:
        raise ObservabilityError(
            f"bucket range must satisfy 0 < start < stop, got [{start}, {stop}]"
        )
    if per_decade < 1:
        raise ObservabilityError(f"per_decade must be >= 1, got {per_decade}")
    first = math.ceil(round(math.log10(start) * per_decade, 9))
    last = math.floor(round(math.log10(stop) * per_decade, 9))
    return tuple(10.0 ** (k / per_decade) for k in range(first, last + 1))


#: Default bucket bounds shared by every histogram that does not override
#: them: half-decade steps from one microsecond/chunk to ten thousand.
DEFAULT_BUCKETS = log_spaced_buckets()


def _label_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _series_name(name: str, label_key: Tuple[Tuple[str, str], ...]) -> str:
    if not label_key:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in label_key)
    return f"{name}{{{rendered}}}"


class Counter:
    """Monotone event counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount


class Gauge:
    """Last-value instrument with a high-water helper."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self.value = value

    def set_max(self, value: float) -> None:
        """Keep the running maximum of the observed values."""
        if value > self.value:
            self.value = value


class Histogram:
    """Fixed-bucket histogram with exact count/sum side channels.

    ``buckets`` are ascending upper bounds; one overflow bucket catches
    everything above the last bound.  ``observe`` is a single C-level bisect
    plus two adds, cheap enough for per-slot hot-path use.
    """

    __slots__ = ("buckets", "counts", "count", "sum")

    def __init__(self, buckets: Optional[Sequence[float]] = None) -> None:
        bounds = tuple(DEFAULT_BUCKETS if buckets is None else buckets)
        if not bounds or any(b <= a for b, a in zip(bounds[1:], bounds)):
            raise ObservabilityError(
                f"histogram buckets must be non-empty and strictly increasing, got {bounds}"
            )
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # + overflow
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value


class MetricsRegistry:
    """Factory and store for labeled metric series.

    ``counter(name, **labels)`` (and friends) return the *same* instrument
    object for the same ``(name, labels)`` pair, so call sites may either
    cache the instrument or re-resolve it each time; requesting an existing
    series with a different instrument kind raises
    :class:`~repro.exceptions.ObservabilityError`.
    """

    #: Whether instruments from this registry record anything.  Hot paths may
    #: hoist this single boolean to skip instrumentation blocks wholesale.
    enabled = True

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Tuple[str, Any]] = {}

    def _get(self, kind: str, name: str, labels: Dict[str, Any], factory) -> Any:
        key = (name, _label_key(labels))
        entry = self._series.get(key)
        if entry is None:
            instrument = factory()
            self._series[key] = (kind, instrument)
            return instrument
        existing_kind, instrument = entry
        if existing_kind != kind:
            raise ObservabilityError(
                f"metric series {_series_name(*key)!r} is a {existing_kind}, "
                f"requested as a {kind}"
            )
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter series ``name`` at ``labels`` (created on first use)."""
        return self._get("counter", name, labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge series ``name`` at ``labels`` (created on first use)."""
        return self._get("gauge", name, labels, Gauge)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels: Any
    ) -> Histogram:
        """The histogram series ``name`` at ``labels`` (created on first use)."""
        return self._get("histogram", name, labels, lambda: Histogram(buckets))

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All series as one JSON-ready dict, in sorted series order.

        Shape: ``{"counters": {series: value}, "gauges": {series: value},
        "histograms": {series: {"count", "sum", "buckets", "counts"}}}``.
        A pure function of the operations applied to the registry.
        """
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        for key in sorted(self._series):
            kind, instrument = self._series[key]
            series = _series_name(*key)
            if kind == "counter":
                counters[series] = instrument.value
            elif kind == "gauge":
                gauges[series] = instrument.value
            else:
                histograms[series] = {
                    "count": instrument.count,
                    "sum": instrument.sum,
                    "buckets": list(instrument.buckets),
                    "counts": list(instrument.counts),
                }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullRegistry(MetricsRegistry):
    """Do-nothing registry: shared no-op instruments, empty snapshot.

    Accessors return module-level singleton instruments, so resolving a
    series allocates nothing — the zero-cost default the engine uses when no
    registry is configured.  Use :data:`NULL_REGISTRY` instead of
    constructing more instances.
    """

    enabled = False

    def counter(self, name: str, **labels: Any) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return _NULL_GAUGE

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels: Any
    ) -> Histogram:
        return _NULL_HISTOGRAM

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


#: The module-singleton no-op registry (the default everywhere).
NULL_REGISTRY = NullRegistry()
