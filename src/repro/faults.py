"""Deterministic fault schedules for the reconfigurable fabric.

The paper's setting — per-rack lasers and photodetectors forming
opportunistic links — is exactly the hardware that fails and recovers in
production.  This module models that as a *deterministic, seedable* schedule
of :class:`FaultEvent` records applied by the simulation engine at the start
of each slot:

- ``fail`` / ``recover`` a laser (transmitter), a photodetector (receiver)
  or an individual reconfigurable edge;
- ``degrade`` an edge to a fractional transmission rate (``rate`` of the
  configured engine speed) until it recovers.

Schedules are plain frozen dataclasses: picklable (so they cross process
boundaries inside :class:`~repro.experiments.runner.ExperimentRunner` tasks)
and JSON round-trippable (so scenarios can persist them).  The engine keeps
its two execution backends (reference / indexed) bit-identical under any
schedule; see ``docs/ARCHITECTURE.md`` §10.

Examples
--------
>>> event = FaultEvent(slot=4, action="fail", kind="laser", target="t0")
>>> schedule = FaultSchedule.from_events(
...     [FaultEvent(slot=9, action="recover", kind="laser", target="t0"), event]
... )
>>> [e.slot for e in schedule.events]
[4, 9]
>>> FaultSchedule.from_dict(schedule.to_dict()) == schedule
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.exceptions import FaultError
from repro.utils.rng import SeedSequenceFactory

__all__ = [
    "FAULT_ACTIONS",
    "FAULT_KINDS",
    "ON_FAIL_MODES",
    "FaultEvent",
    "FaultSchedule",
    "FabricState",
    "FaultTopologyView",
    "seeded_fault_schedule",
]

FAULT_ACTIONS: Tuple[str, ...] = ("fail", "recover", "degrade")
FAULT_KINDS: Tuple[str, ...] = ("laser", "photodetector", "edge")
ON_FAIL_MODES: Tuple[str, ...] = ("requeue", "drop", "redispatch")

Edge = Tuple[str, str]
Target = Union[str, Edge]


@dataclass(frozen=True)
class FaultEvent:
    """A single fault-schedule entry applied at the start of ``slot``.

    Attributes
    ----------
    slot:
        Engine slot (``>= 0``) at whose start the event takes effect.
    action:
        One of ``"fail"``, ``"recover"`` or ``"degrade"`` (edges only).
    kind:
        Hardware class: ``"laser"`` (transmitter), ``"photodetector"``
        (receiver) or ``"edge"`` (a single reconfigurable edge).
    target:
        Node name for lasers/photodetectors, ``(transmitter, receiver)``
        for edges.
    rate:
        Fractional rate in ``(0, 1]`` for ``degrade`` events; must be
        ``None`` otherwise.  A recovering edge always returns to rate 1.
    """

    slot: int
    action: str
    kind: str
    target: Target
    rate: Optional[float] = None

    def __post_init__(self) -> None:
        if int(self.slot) != self.slot or self.slot < 0:
            raise FaultError(f"fault slot must be an integer >= 0, got {self.slot!r}")
        if self.action not in FAULT_ACTIONS:
            raise FaultError(f"unknown fault action {self.action!r}; expected one of {FAULT_ACTIONS}")
        if self.kind not in FAULT_KINDS:
            raise FaultError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.kind == "edge":
            if (
                not isinstance(self.target, tuple)
                or len(self.target) != 2
                or not all(isinstance(part, str) for part in self.target)
            ):
                raise FaultError(
                    f"edge fault target must be a (transmitter, receiver) pair, got {self.target!r}"
                )
        elif not isinstance(self.target, str):
            raise FaultError(f"{self.kind} fault target must be a node name, got {self.target!r}")
        if self.action == "degrade":
            if self.kind != "edge":
                raise FaultError("degrade events only apply to edges")
            if self.rate is None or not 0 < self.rate <= 1:
                raise FaultError(f"degrade rate must lie in (0, 1], got {self.rate!r}")
        elif self.rate is not None:
            raise FaultError(f"rate is only meaningful for degrade events, got {self.rate!r}")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable representation (edge targets become lists)."""
        payload: Dict[str, Any] = {
            "slot": self.slot,
            "action": self.action,
            "kind": self.kind,
            "target": list(self.target) if isinstance(self.target, tuple) else self.target,
        }
        if self.rate is not None:
            payload["rate"] = self.rate
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultEvent":
        """Inverse of :meth:`to_dict`."""
        target = payload["target"]
        if isinstance(target, (list, tuple)):
            target = tuple(str(part) for part in target)
        return cls(
            slot=int(payload["slot"]),
            action=str(payload["action"]),
            kind=str(payload["kind"]),
            target=target,
            rate=None if payload.get("rate") is None else float(payload["rate"]),
        )


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, slot-ordered sequence of :class:`FaultEvent` records.

    Events must be non-decreasing in ``slot``; same-slot events apply in
    sequence order.  Use :meth:`from_events` to sort an arbitrary iterable
    stably by slot.
    """

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        for previous, current in zip(events, events[1:]):
            if current.slot < previous.slot:
                raise FaultError(
                    "fault events must be ordered by slot; "
                    f"got slot {current.slot} after {previous.slot} "
                    "(use FaultSchedule.from_events to sort)"
                )

    @classmethod
    def from_events(cls, events: Iterable[FaultEvent]) -> "FaultSchedule":
        """Build a schedule from events in any order (stable sort by slot)."""
        return cls(events=tuple(sorted(events, key=lambda event: event.slot)))

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable representation."""
        return {"events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultSchedule":
        """Inverse of :meth:`to_dict`."""
        return cls(events=tuple(FaultEvent.from_dict(entry) for entry in payload["events"]))


class FabricState:
    """Mutable per-lane view of which hardware is currently failed/degraded.

    ``version`` increments on every applied event, letting
    :class:`FaultTopologyView` invalidate its memoised candidate sets
    lazily instead of eagerly recomputing them per event.
    """

    __slots__ = ("failed_lasers", "failed_photodetectors", "failed_edges", "degraded", "version")

    def __init__(self) -> None:
        self.failed_lasers: set = set()
        self.failed_photodetectors: set = set()
        self.failed_edges: set = set()
        self.degraded: Dict[Edge, float] = {}
        self.version = 0

    def apply(self, event: FaultEvent, topology: Any) -> None:
        """Apply one event, validating the target against ``topology``."""
        if event.kind == "laser":
            if event.target not in topology.transmitters:
                raise FaultError(f"unknown laser {event.target!r} in fault schedule")
            bucket = self.failed_lasers
        elif event.kind == "photodetector":
            if event.target not in topology.receivers:
                raise FaultError(f"unknown photodetector {event.target!r} in fault schedule")
            bucket = self.failed_photodetectors
        else:
            if not topology.has_edge(*event.target):
                raise FaultError(f"unknown reconfigurable edge {event.target!r} in fault schedule")
            bucket = self.failed_edges
        if event.action == "fail":
            bucket.add(event.target)
        elif event.action == "recover":
            bucket.discard(event.target)
            if event.kind == "edge":
                self.degraded.pop(event.target, None)  # recovery resets rate to 1
        else:  # degrade
            if event.rate == 1.0:
                self.degraded.pop(event.target, None)
            else:
                self.degraded[event.target] = float(event.rate)  # type: ignore[arg-type]
        self.version += 1

    def edge_alive(self, transmitter: str, receiver: str) -> bool:
        """Whether the edge and both of its endpoints are currently up."""
        return (
            transmitter not in self.failed_lasers
            and receiver not in self.failed_photodetectors
            and (transmitter, receiver) not in self.failed_edges
        )

    def edge_rate(self, transmitter: str, receiver: str) -> float:
        """Current fractional rate of an edge (1.0 unless degraded)."""
        return self.degraded.get((transmitter, receiver), 1.0)

    @property
    def any_failed(self) -> bool:
        """Whether any hardware is currently failed."""
        return bool(self.failed_lasers or self.failed_photodetectors or self.failed_edges)

    @property
    def any_degraded(self) -> bool:
        """Whether any edge currently runs at a fractional rate."""
        return bool(self.degraded)


class FaultTopologyView:
    """A topology proxy that masks failed hardware out of candidate sets.

    Dispatchers reach reconfigurable edges exclusively through
    ``candidate_edges`` / ``has_edge``, so overriding those two methods (and
    delegating everything else to the frozen base topology) is sufficient to
    keep every dispatch policy away from dead ports.  Filtered candidate
    sets are memoised per ``(source, destination)`` and invalidated by the
    fabric-state version counter.
    """

    __slots__ = ("_base", "_state", "_cache", "_cache_version")

    def __init__(self, base: Any, state: FabricState) -> None:
        self._base = base
        self._state = state
        self._cache: Dict[Tuple[str, str], List[Edge]] = {}
        self._cache_version = state.version

    def candidate_edges(self, source: str, destination: str) -> List[Edge]:
        """Live reconfigurable edges usable by a (source, destination) packet."""
        state = self._state
        if state.version != self._cache_version:
            self._cache.clear()
            self._cache_version = state.version
        key = (source, destination)
        cached = self._cache.get(key)
        if cached is None:
            cached = [
                edge
                for edge in self._base.candidate_edges(source, destination)
                if state.edge_alive(*edge)
            ]
            self._cache[key] = cached
        return list(cached)

    def has_edge(self, transmitter: str, receiver: str) -> bool:
        """Whether the edge exists *and* is currently alive."""
        return self._base.has_edge(transmitter, receiver) and self._state.edge_alive(
            transmitter, receiver
        )

    def can_route(self, source: str, destination: str) -> bool:
        """Whether any live path (reconfigurable or fixed) exists for the pair."""
        return bool(self.candidate_edges(source, destination)) or self._base.has_fixed_link(
            source, destination
        )

    def __getattr__(self, name: str) -> Any:
        return getattr(self._base, name)


def seeded_fault_schedule(
    topology: Any,
    *,
    seed: int,
    num_faults: int = 2,
    horizon: int = 64,
    recover: bool = True,
    degrade_fraction: float = 0.25,
) -> FaultSchedule:
    """Generate a deterministic fail/recover schedule for ``topology``.

    Picks ``num_faults`` distinct targets across lasers, photodetectors and
    reconfigurable edges; each fails (or, for a ``degrade_fraction`` of
    edges, degrades) at a slot in ``[1, horizon/2)`` and — when ``recover``
    is true — recovers after a bounded duration.  The same ``seed`` always
    yields the same schedule, independent of process or job count.
    """
    if num_faults < 1:
        raise FaultError(f"num_faults must be >= 1, got {num_faults}")
    if horizon < 4:
        raise FaultError(f"horizon must be >= 4, got {horizon}")
    rng = SeedSequenceFactory(seed).generator("faults")
    targets: List[Tuple[str, Target]] = []
    targets.extend(("laser", laser) for laser in topology.transmitters)
    targets.extend(("photodetector", pd) for pd in topology.receivers)
    targets.extend(("edge", edge) for edge in topology.reconfigurable_edges)
    if not targets:
        raise FaultError("topology has no hardware to fault")
    count = min(num_faults, len(targets))
    chosen = sorted(int(i) for i in rng.choice(len(targets), size=count, replace=False))
    half = max(2, horizon // 2)
    events: List[FaultEvent] = []
    for index in chosen:
        kind, target = targets[index]
        fail_slot = int(rng.integers(1, half))
        if kind == "edge" and float(rng.random()) < degrade_fraction:
            rate = float(0.25 + 0.5 * float(rng.random()))
            events.append(
                FaultEvent(slot=fail_slot, action="degrade", kind=kind, target=target, rate=rate)
            )
        else:
            events.append(FaultEvent(slot=fail_slot, action="fail", kind=kind, target=target))
        if recover:
            duration = int(rng.integers(1, half))
            events.append(
                FaultEvent(slot=fail_slot + duration, action="recover", kind=kind, target=target)
            )
    return FaultSchedule.from_events(events)
