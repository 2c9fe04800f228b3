"""Spatially structured synthetic workloads.

Each generator combines a spatial pattern over the routable (source,
destination) pairs of a topology with an arrival process and a weight
distribution.  Every generator exists in two forms sharing one
implementation: an ``iter_*`` generator yielding
:class:`~repro.core.packet.Packet` objects lazily in arrival order (ids
assigned in dispatch order, O(1) memory in the packet count — the form the
streaming engine consumes), and the original list-returning function, a thin
materialising wrapper.  For a fixed seed both forms produce identical packet
sequences.

Random draws are made per packet, interleaved as (arrival gap, spatial
choice, weight), so the stream consumed so far fully determines the RNG
state — the property that lets the lazy and materialised forms coincide.
(Note: this interleaving changed the per-seed packet sequences of the
rate-driven generators relative to the pre-streaming bulk-draw code;
explicit ``arrivals`` lists and deterministic arrivals are unaffected.)
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.packet import Packet
from repro.exceptions import WorkloadError
from repro.network.topology import TwoTierTopology
from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import check_positive_int
from repro.workloads.arrival import resolve_arrival_stream
from repro.workloads.base import (
    PacketSpec,
    build_packets,
    normalize_arrival,
    routable_pairs,
    stream_packets,
)
from repro.workloads.weights import WeightSampler, constant_weights

__all__ = [
    "uniform_random_workload",
    "permutation_workload",
    "all_to_all_workload",
    "hotspot_workload",
    "iter_uniform_random_workload",
    "iter_permutation_workload",
    "iter_all_to_all_workload",
    "iter_hotspot_workload",
]


def _resolve_pairs(
    topology: TwoTierTopology, pairs: Optional[Sequence[Tuple[str, str]]]
) -> List[Tuple[str, str]]:
    resolved = list(pairs) if pairs is not None else routable_pairs(topology)
    if not resolved:
        raise WorkloadError(f"topology {topology.name!r} has no routable (source, destination) pairs")
    for (s, d) in resolved:
        if not topology.can_route(s, d):
            raise WorkloadError(f"pair ({s!r}, {d!r}) is not routable on {topology.name!r}")
    return resolved


def iter_uniform_random_workload(
    topology: TwoTierTopology,
    num_packets: int,
    weight_sampler: Optional[WeightSampler] = None,
    arrival_rate: Optional[float] = None,
    arrivals: Optional[Sequence[int]] = None,
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
    seed: RngLike = None,
) -> Iterator[Packet]:
    """Lazily yield packets over uniformly random routable pairs.

    Parameters
    ----------
    num_packets:
        Number of packets to generate.
    weight_sampler:
        Weight distribution (default: all weights 1).
    arrival_rate:
        If given, Poisson arrivals with this per-slot rate; otherwise one
        packet per slot unless explicit ``arrivals`` are supplied.
    arrivals:
        Explicit arrival slots (overrides ``arrival_rate``).
    pairs:
        Restrict the spatial pattern to these pairs (default: all routable).
    """
    n = check_positive_int(num_packets, "num_packets")
    rng = as_rng(seed)
    sampler = weight_sampler or constant_weights(1.0)
    candidates = _resolve_pairs(topology, pairs)
    slots = resolve_arrival_stream(n, arrivals, arrival_rate, rng)

    def specs() -> Iterator[PacketSpec]:
        for arrival in islice(slots, n):
            s, d = candidates[int(rng.integers(len(candidates)))]
            yield PacketSpec(source=s, destination=d, weight=sampler(rng), arrival=arrival)

    if arrivals is not None:
        normalized = [normalize_arrival(a) for a in arrivals]
        if any(b < a for a, b in zip(normalized, normalized[1:])):
            # A stream cannot be globally sorted, but an explicit arrival
            # list is already O(n) resident — keep the historical behaviour
            # and order the packets through the sorting materialiser.
            return iter(build_packets(list(specs())))
    return stream_packets(specs())


def uniform_random_workload(
    topology: TwoTierTopology,
    num_packets: int,
    weight_sampler: Optional[WeightSampler] = None,
    arrival_rate: Optional[float] = None,
    arrivals: Optional[Sequence[int]] = None,
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
    seed: RngLike = None,
) -> List[Packet]:
    """Materialised form of :func:`iter_uniform_random_workload`."""
    return list(
        iter_uniform_random_workload(
            topology,
            num_packets,
            weight_sampler=weight_sampler,
            arrival_rate=arrival_rate,
            arrivals=arrivals,
            pairs=pairs,
            seed=seed,
        )
    )


def iter_permutation_workload(
    topology: TwoTierTopology,
    num_packets: int,
    weight_sampler: Optional[WeightSampler] = None,
    arrival_rate: Optional[float] = None,
    seed: RngLike = None,
) -> Iterator[Packet]:
    """Lazily yield traffic following a random source→destination permutation.

    Each source is paired with a single destination (a random perfect matching
    on the routable demand graph obtained greedily); all of a source's packets
    go to its matched destination.  Permutation traffic is the canonical
    stress pattern for switch scheduling.
    """
    n = check_positive_int(num_packets, "num_packets")
    rng = as_rng(seed)
    sampler = weight_sampler or constant_weights(1.0)
    pairs = routable_pairs(topology)
    if not pairs:
        raise WorkloadError("topology has no routable pairs")

    by_source: dict[str, List[str]] = {}
    for s, d in pairs:
        by_source.setdefault(s, []).append(d)
    sources = list(by_source)
    rng.shuffle(sources)
    used_destinations: set[str] = set()
    mapping: List[Tuple[str, str]] = []
    for s in sources:
        options = [d for d in by_source[s] if d not in used_destinations]
        if not options:
            options = by_source[s]
        d = options[int(rng.integers(len(options)))]
        used_destinations.add(d)
        mapping.append((s, d))

    slots = resolve_arrival_stream(n, None, arrival_rate, rng)

    def specs() -> Iterator[PacketSpec]:
        for arrival in islice(slots, n):
            s, d = mapping[int(rng.integers(len(mapping)))]
            yield PacketSpec(source=s, destination=d, weight=sampler(rng), arrival=arrival)

    return stream_packets(specs())


def permutation_workload(
    topology: TwoTierTopology,
    num_packets: int,
    weight_sampler: Optional[WeightSampler] = None,
    arrival_rate: Optional[float] = None,
    seed: RngLike = None,
) -> List[Packet]:
    """Materialised form of :func:`iter_permutation_workload`."""
    return list(
        iter_permutation_workload(
            topology,
            num_packets,
            weight_sampler=weight_sampler,
            arrival_rate=arrival_rate,
            seed=seed,
        )
    )


def iter_all_to_all_workload(
    topology: TwoTierTopology,
    packets_per_pair: int = 1,
    weight_sampler: Optional[WeightSampler] = None,
    arrival_slot: int = 1,
    seed: RngLike = None,
) -> Iterator[Packet]:
    """Lazily yield ``packets_per_pair`` packets per routable pair, all at one slot.

    This is the shuffle/all-to-all pattern of distributed analytics jobs and a
    worst case for per-slot matchings (every transmitter and receiver is
    contended).
    """
    k = check_positive_int(packets_per_pair, "packets_per_pair")
    if arrival_slot < 1:
        raise WorkloadError(f"arrival_slot must be >= 1, got {arrival_slot}")
    rng = as_rng(seed)
    sampler = weight_sampler or constant_weights(1.0)
    pairs = routable_pairs(topology)
    if not pairs:
        raise WorkloadError("topology has no routable pairs")

    def specs() -> Iterator[PacketSpec]:
        for (s, d) in pairs:
            for _ in range(k):
                yield PacketSpec(
                    source=s, destination=d, weight=sampler(rng), arrival=arrival_slot
                )

    return stream_packets(specs())


def all_to_all_workload(
    topology: TwoTierTopology,
    packets_per_pair: int = 1,
    weight_sampler: Optional[WeightSampler] = None,
    arrival_slot: int = 1,
    seed: RngLike = None,
) -> List[Packet]:
    """Materialised form of :func:`iter_all_to_all_workload`."""
    return list(
        iter_all_to_all_workload(
            topology,
            packets_per_pair=packets_per_pair,
            weight_sampler=weight_sampler,
            arrival_slot=arrival_slot,
            seed=seed,
        )
    )


def iter_hotspot_workload(
    topology: TwoTierTopology,
    num_packets: int,
    num_hotspots: int = 1,
    hotspot_fraction: float = 0.7,
    weight_sampler: Optional[WeightSampler] = None,
    arrival_rate: Optional[float] = None,
    seed: RngLike = None,
) -> Iterator[Packet]:
    """Lazily yield traffic concentrated on a few hot destinations (incast-style skew).

    A fraction ``hotspot_fraction`` of packets is directed at ``num_hotspots``
    randomly chosen destinations; the rest is uniform over all routable pairs.
    """
    n = check_positive_int(num_packets, "num_packets")
    h = check_positive_int(num_hotspots, "num_hotspots")
    if not 0 <= hotspot_fraction <= 1:
        raise WorkloadError(f"hotspot_fraction must lie in [0,1], got {hotspot_fraction}")
    rng = as_rng(seed)
    sampler = weight_sampler or constant_weights(1.0)
    pairs = routable_pairs(topology)
    if not pairs:
        raise WorkloadError("topology has no routable pairs")

    destinations = sorted({d for (_s, d) in pairs})
    rng.shuffle(destinations)
    hot = set(destinations[: min(h, len(destinations))])
    hot_pairs = [p for p in pairs if p[1] in hot]
    slots = resolve_arrival_stream(n, None, arrival_rate, rng)

    def specs() -> Iterator[PacketSpec]:
        for arrival in islice(slots, n):
            if hot_pairs and rng.random() < hotspot_fraction:
                s, d = hot_pairs[int(rng.integers(len(hot_pairs)))]
            else:
                s, d = pairs[int(rng.integers(len(pairs)))]
            yield PacketSpec(source=s, destination=d, weight=sampler(rng), arrival=arrival)

    return stream_packets(specs())


def hotspot_workload(
    topology: TwoTierTopology,
    num_packets: int,
    num_hotspots: int = 1,
    hotspot_fraction: float = 0.7,
    weight_sampler: Optional[WeightSampler] = None,
    arrival_rate: Optional[float] = None,
    seed: RngLike = None,
) -> List[Packet]:
    """Materialised form of :func:`iter_hotspot_workload`."""
    return list(
        iter_hotspot_workload(
            topology,
            num_packets,
            num_hotspots=num_hotspots,
            hotspot_fraction=hotspot_fraction,
            weight_sampler=weight_sampler,
            arrival_rate=arrival_rate,
            seed=seed,
        )
    )
