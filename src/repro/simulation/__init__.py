"""Time-slotted simulation of two-tier reconfigurable datacenter fabrics."""

from repro.simulation.accumulators import CompensatedSum, OnlineSummary, compensated_total
from repro.simulation.engine import ENGINE_MODES, EngineConfig, SimulationEngine, simulate, simulate_multi
from repro.simulation.metrics import (
    LatencyStatistics,
    compare_policies,
    completion_time_statistics,
    latency_statistics,
    matching_occupancy,
    per_source_latency,
    recompute_weighted_latency,
)
from repro.simulation.results import PacketRecord, SimulationResult
from repro.simulation.trace import (
    DispatchEvent,
    SimulationTrace,
    SlotTrace,
    SlotTraceWriter,
    TransmissionEvent,
    iter_slot_traces,
    read_simulation_trace,
)

__all__ = [
    "ENGINE_MODES",
    "EngineConfig",
    "SimulationEngine",
    "simulate",
    "simulate_multi",
    "SimulationResult",
    "PacketRecord",
    "CompensatedSum",
    "OnlineSummary",
    "compensated_total",
    "SimulationTrace",
    "SlotTrace",
    "DispatchEvent",
    "TransmissionEvent",
    "SlotTraceWriter",
    "iter_slot_traces",
    "read_simulation_trace",
    "LatencyStatistics",
    "latency_statistics",
    "completion_time_statistics",
    "matching_occupancy",
    "recompute_weighted_latency",
    "per_source_latency",
    "compare_policies",
]
