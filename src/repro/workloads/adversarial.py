"""Adversarial workloads derived from the paper's charging argument.

The dual-fitting analysis (Section IV) charges every unit of ALG's latency
either to heavier pending chunks that block a packet (``H_p(e)``) or to
lighter chunks it blocks (``L_p(e)``).  The generators here construct the
traffic patterns under which those charge sets are largest — the worst cases
the competitive bound has to absorb:

* :func:`priority_inversion_workload` pre-loads contended edges with light
  traffic and then slams heavy packets into the same edges one slot later, so
  every heavy arrival finds its candidate edges occupied by lower-priority
  chunks (the ``L_p(e)`` term) and the stable matching must reorder around
  them;
* :func:`contention_hotspot_workload` funnels a sustained stream through the
  few lasers of one sending rack (``side="transmitter"``) or the few
  photodetectors of one receiving rack (``side="receiver"``), saturating one
  side of the matching constraint;
* :func:`heavy_tailed_incast_workload` fires repeated incast waves whose
  weights follow a Pareto law, mixing rare very heavy packets into synchronised
  receiver contention — the regime where weight-ordered scheduling matters
  most;
* :func:`saturated_pairs_workload` hammers a few *node-disjoint*
  (source, destination) pairs, so the matching serves every hot edge each
  slot while each edge's pending queue grows linearly in the backlog — the
  deepest per-edge queues a stable matching will ever walk, and the cell
  behind the ``transmit`` bench section.

Every generator exists as a lazy ``iter_*`` form (O(1) memory in the packet
count, arrival slots non-decreasing) plus a thin materialising list wrapper,
exactly like the generators in :mod:`repro.workloads.bursty`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from itertools import islice

from repro.core.packet import Packet
from repro.exceptions import WorkloadError
from repro.network.topology import TwoTierTopology
from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import check_positive_int
from repro.workloads.arrival import iter_poisson_arrivals
from repro.workloads.base import PacketSpec, routable_pairs, stream_packets
from repro.workloads.weights import WeightSampler, pareto_weights

__all__ = [
    "priority_inversion_workload",
    "contention_hotspot_workload",
    "heavy_tailed_incast_workload",
    "saturated_pairs_workload",
    "iter_priority_inversion_workload",
    "iter_contention_hotspot_workload",
    "iter_heavy_tailed_incast_workload",
    "iter_saturated_pairs_workload",
]


def _senders_by_destination(topology: TwoTierTopology) -> Dict[str, List[str]]:
    senders: Dict[str, List[str]] = {}
    for (s, d) in routable_pairs(topology):
        senders.setdefault(d, []).append(s)
    if not senders:
        raise WorkloadError("topology has no routable pairs")
    return senders


def iter_priority_inversion_workload(
    topology: TwoTierTopology,
    num_bursts: int,
    light_per_burst: int = 6,
    heavy_per_burst: int = 3,
    light_weight: Tuple[float, float] = (1.0, 2.0),
    heavy_weight: Tuple[float, float] = (50.0, 100.0),
    burst_gap: int = 8,
    seed: RngLike = None,
) -> Iterator[Packet]:
    """Lazily yield priority-inversion bursts.

    Each burst targets one destination: ``light_per_burst`` light packets
    arrive at the burst slot and commit the destination's candidate edges,
    then ``heavy_per_burst`` heavy packets to the *same* destination arrive
    one slot later — the arrangement that maximises the dispatcher's
    ``d(e) · w(L_p(e))`` charge term and forces the scheduler to serve the
    late heavy chunks ahead of the queued light ones.
    """
    bursts = check_positive_int(num_bursts, "num_bursts")
    light = check_positive_int(light_per_burst, "light_per_burst")
    heavy = check_positive_int(heavy_per_burst, "heavy_per_burst")
    gap = check_positive_int(burst_gap, "burst_gap")
    if gap < 2:
        raise WorkloadError(f"burst_gap must be >= 2 (heavy wave uses slot+1), got {gap}")
    for name, (lo, hi) in (("light_weight", light_weight), ("heavy_weight", heavy_weight)):
        if not 0 < lo <= hi:
            raise WorkloadError(f"{name} must satisfy 0 < low <= high, got {(lo, hi)!r}")
    rng = as_rng(seed)
    senders = _senders_by_destination(topology)
    destinations = sorted(senders)

    def specs() -> Iterator[PacketSpec]:
        slot = 1
        for _ in range(bursts):
            destination = destinations[int(rng.integers(len(destinations)))]
            sources = senders[destination]
            for _ in range(light):
                yield PacketSpec(
                    source=sources[int(rng.integers(len(sources)))],
                    destination=destination,
                    weight=float(rng.uniform(*light_weight)),
                    arrival=slot,
                )
            for _ in range(heavy):
                yield PacketSpec(
                    source=sources[int(rng.integers(len(sources)))],
                    destination=destination,
                    weight=float(rng.uniform(*heavy_weight)),
                    arrival=slot + 1,
                )
            slot += gap

    return stream_packets(specs())


def priority_inversion_workload(
    topology: TwoTierTopology,
    num_bursts: int,
    light_per_burst: int = 6,
    heavy_per_burst: int = 3,
    light_weight: Tuple[float, float] = (1.0, 2.0),
    heavy_weight: Tuple[float, float] = (50.0, 100.0),
    burst_gap: int = 8,
    seed: RngLike = None,
) -> List[Packet]:
    """Materialised form of :func:`iter_priority_inversion_workload`."""
    return list(
        iter_priority_inversion_workload(
            topology,
            num_bursts,
            light_per_burst=light_per_burst,
            heavy_per_burst=heavy_per_burst,
            light_weight=light_weight,
            heavy_weight=heavy_weight,
            burst_gap=burst_gap,
            seed=seed,
        )
    )


def iter_contention_hotspot_workload(
    topology: TwoTierTopology,
    num_packets: int,
    side: str = "transmitter",
    hot_fraction: float = 0.9,
    arrival_rate: float = 3.0,
    weight_sampler: Optional[WeightSampler] = None,
    seed: RngLike = None,
) -> Iterator[Packet]:
    """Lazily yield a sustained stream hammering one side of the matching.

    ``side="transmitter"`` fixes the *source* with the most routable
    destinations, so (nearly) all traffic competes for that rack's few lasers;
    ``side="receiver"`` fixes the analogous *destination*, so traffic from
    many racks converges on its few photodetectors.  A ``1 − hot_fraction``
    share of background traffic over uniformly random routable pairs keeps the
    rest of the fabric lightly loaded, which is what makes the hotspot (and
    not global load) the binding constraint.
    """
    n = check_positive_int(num_packets, "num_packets")
    if side not in ("transmitter", "receiver"):
        raise WorkloadError(f"side must be 'transmitter' or 'receiver', got {side!r}")
    if not 0.0 < hot_fraction <= 1.0:
        raise WorkloadError(f"hot_fraction must lie in (0, 1], got {hot_fraction}")
    if not arrival_rate > 0:
        raise WorkloadError(f"arrival_rate must be positive, got {arrival_rate}")
    rng = as_rng(seed)
    sampler = weight_sampler or pareto_weights(1.5)
    pairs = routable_pairs(topology)
    if not pairs:
        raise WorkloadError("topology has no routable pairs")

    fan: Dict[str, List[str]] = {}
    for (s, d) in pairs:
        key = s if side == "transmitter" else d
        fan.setdefault(key, []).append(d if side == "transmitter" else s)
    # The hot node is the one with the widest fan (ties broken by name so the
    # choice is deterministic for a fixed topology).
    hot = max(sorted(fan), key=lambda node: len(fan[node]))
    peers = fan[hot]

    slots = iter_poisson_arrivals(arrival_rate, seed=rng)

    def specs() -> Iterator[PacketSpec]:
        for arrival in islice(slots, n):
            if rng.random() < hot_fraction:
                peer = peers[int(rng.integers(len(peers)))]
                s, d = (hot, peer) if side == "transmitter" else (peer, hot)
            else:
                s, d = pairs[int(rng.integers(len(pairs)))]
            yield PacketSpec(source=s, destination=d, weight=sampler(rng), arrival=arrival)

    return stream_packets(specs())


def contention_hotspot_workload(
    topology: TwoTierTopology,
    num_packets: int,
    side: str = "transmitter",
    hot_fraction: float = 0.9,
    arrival_rate: float = 3.0,
    weight_sampler: Optional[WeightSampler] = None,
    seed: RngLike = None,
) -> List[Packet]:
    """Materialised form of :func:`iter_contention_hotspot_workload`."""
    return list(
        iter_contention_hotspot_workload(
            topology,
            num_packets,
            side=side,
            hot_fraction=hot_fraction,
            arrival_rate=arrival_rate,
            weight_sampler=weight_sampler,
            seed=seed,
        )
    )


def iter_saturated_pairs_workload(
    topology: TwoTierTopology,
    num_packets: int,
    num_pairs: int = 8,
    hot_fraction: float = 0.95,
    arrival_rate: float = 3.0,
    weight_sampler: Optional[WeightSampler] = None,
    seed: RngLike = None,
) -> Iterator[Packet]:
    """Lazily yield a stream saturating a few node-disjoint edges.

    :func:`contention_hotspot_workload` saturates one *node*, so its backlog
    spreads thinly across every peer edge.  Here the hot set is
    ``num_pairs`` node-disjoint (source, destination) *pairs* (a greedy
    scan over the lexicographically sorted routable pairs, so the choice is
    deterministic for a fixed topology): a stable matching can serve every
    hot edge in every slot, yet each served edge still carries a pending
    queue that grows linearly in the backlog.  That makes the per-edge
    charge sets ``H_p(e)`` / ``L_p(e)`` as deep as they can get without
    inflating the matching itself — the worst case for any per-edge walk in
    the transmission step, and the cell behind the ``transmit`` bench
    section.  The
    ``1 − hot_fraction`` background share over uniformly random routable
    pairs keeps the rest of the fabric lightly loaded.
    """
    n = check_positive_int(num_packets, "num_packets")
    k = check_positive_int(num_pairs, "num_pairs")
    if not 0.0 < hot_fraction <= 1.0:
        raise WorkloadError(f"hot_fraction must lie in (0, 1], got {hot_fraction}")
    if not arrival_rate > 0:
        raise WorkloadError(f"arrival_rate must be positive, got {arrival_rate}")
    rng = as_rng(seed)
    sampler = weight_sampler or pareto_weights(1.5)
    pairs = routable_pairs(topology)
    if not pairs:
        raise WorkloadError("topology has no routable pairs")

    hot_pairs: List[Tuple[str, str]] = []
    used: set = set()
    for s, d in sorted(pairs):
        if s in used or d in used:
            continue
        hot_pairs.append((s, d))
        used.update((s, d))
        if len(hot_pairs) == k:
            break
    if len(hot_pairs) < k:
        raise WorkloadError(
            f"topology admits only {len(hot_pairs)} node-disjoint routable "
            f"pairs, needed num_pairs={k}"
        )

    slots = iter_poisson_arrivals(arrival_rate, seed=rng)

    def specs() -> Iterator[PacketSpec]:
        for arrival in islice(slots, n):
            if rng.random() < hot_fraction:
                s, d = hot_pairs[int(rng.integers(len(hot_pairs)))]
            else:
                s, d = pairs[int(rng.integers(len(pairs)))]
            yield PacketSpec(source=s, destination=d, weight=sampler(rng), arrival=arrival)

    return stream_packets(specs())


def saturated_pairs_workload(
    topology: TwoTierTopology,
    num_packets: int,
    num_pairs: int = 8,
    hot_fraction: float = 0.95,
    arrival_rate: float = 3.0,
    weight_sampler: Optional[WeightSampler] = None,
    seed: RngLike = None,
) -> List[Packet]:
    """Materialised form of :func:`iter_saturated_pairs_workload`."""
    return list(
        iter_saturated_pairs_workload(
            topology,
            num_packets,
            num_pairs=num_pairs,
            hot_fraction=hot_fraction,
            arrival_rate=arrival_rate,
            weight_sampler=weight_sampler,
            seed=seed,
        )
    )


def iter_heavy_tailed_incast_workload(
    topology: TwoTierTopology,
    num_waves: int,
    senders_per_wave: int = 4,
    packets_per_sender: int = 2,
    wave_gap: int = 6,
    pareto_exponent: float = 1.2,
    seed: RngLike = None,
) -> Iterator[Packet]:
    """Lazily yield repeated incast waves with heavy-tailed packet weights.

    All waves target the destination reachable from the most sources (the
    natural incast victim); each wave draws a fresh random subset of its
    senders and every packet's weight from a Pareto law with the given
    exponent, so occasional extremely heavy packets land in the middle of
    synchronised photodetector contention.
    """
    waves = check_positive_int(num_waves, "num_waves")
    per_wave = check_positive_int(senders_per_wave, "senders_per_wave")
    per_sender = check_positive_int(packets_per_sender, "packets_per_sender")
    gap = check_positive_int(wave_gap, "wave_gap")
    if not pareto_exponent > 1.0:
        raise WorkloadError(
            f"pareto_exponent must exceed 1 (finite mean), got {pareto_exponent}"
        )
    rng = as_rng(seed)
    sampler = pareto_weights(pareto_exponent)
    senders = _senders_by_destination(topology)
    destination = max(sorted(senders), key=lambda d: len(senders[d]))
    pool = senders[destination]

    def specs() -> Iterator[PacketSpec]:
        slot = 1
        for _ in range(waves):
            chosen = list(pool)
            rng.shuffle(chosen)
            for source in chosen[: min(per_wave, len(chosen))]:
                for _ in range(per_sender):
                    yield PacketSpec(
                        source=source,
                        destination=destination,
                        weight=sampler(rng),
                        arrival=slot,
                    )
            slot += gap

    return stream_packets(specs())


def heavy_tailed_incast_workload(
    topology: TwoTierTopology,
    num_waves: int,
    senders_per_wave: int = 4,
    packets_per_sender: int = 2,
    wave_gap: int = 6,
    pareto_exponent: float = 1.2,
    seed: RngLike = None,
) -> List[Packet]:
    """Materialised form of :func:`iter_heavy_tailed_incast_workload`."""
    return list(
        iter_heavy_tailed_incast_workload(
            topology,
            num_waves,
            senders_per_wave=senders_per_wave,
            packets_per_sender=packets_per_sender,
            wave_gap=wave_gap,
            pareto_exponent=pareto_exponent,
            seed=seed,
        )
    )
