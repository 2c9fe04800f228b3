"""Property-based tests for the simulation engine's accounting invariants."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import make_fifo_policy, make_maxweight_policy
from repro.core import OpportunisticLinkScheduler, Packet
from repro.network import projector_fabric, random_bipartite
from repro.simulation import recompute_weighted_latency, simulate
from repro.workloads import Instance


@st.composite
def random_instances(draw, max_packets=25):
    """Small random topologies and packet sequences."""
    num_sources = draw(st.integers(min_value=2, max_value=4))
    num_destinations = draw(st.integers(min_value=2, max_value=4))
    topo_seed = draw(st.integers(min_value=0, max_value=10_000))
    delays = draw(st.sampled_from([(1,), (1, 2), (1, 3), (2,)]))
    topology = random_bipartite(
        num_sources,
        num_destinations,
        transmitters_per_source=draw(st.integers(min_value=1, max_value=2)),
        receivers_per_destination=draw(st.integers(min_value=1, max_value=2)),
        edge_probability=0.6,
        delay_choices=delays,
        seed=topo_seed,
    )
    pairs = [
        (s, d)
        for s in topology.sources
        for d in topology.destinations
        if topology.can_route(s, d)
    ]
    n = draw(st.integers(min_value=1, max_value=max_packets))
    packets = []
    for pid in range(n):
        s, d = pairs[draw(st.integers(min_value=0, max_value=len(pairs) - 1))]
        packets.append(
            Packet(
                packet_id=pid,
                source=s,
                destination=d,
                weight=draw(st.floats(min_value=0.1, max_value=20.0, allow_nan=False)),
                arrival=draw(st.integers(min_value=1, max_value=8)),
            )
        )
    return Instance(name="prop", topology=topology, packets=packets)


class TestEngineInvariants:
    @given(random_instances())
    @settings(max_examples=60, deadline=None)
    def test_all_packets_delivered(self, instance):
        result = simulate(instance.topology, OpportunisticLinkScheduler(), instance.packets)
        assert result.all_delivered
        assert len(result) == instance.num_packets

    @given(random_instances())
    @settings(max_examples=60, deadline=None)
    def test_accounting_consistency(self, instance):
        result = simulate(instance.topology, OpportunisticLinkScheduler(), instance.packets)
        assert math.isclose(
            recompute_weighted_latency(result),
            result.total_weighted_latency,
            rel_tol=1e-9,
            abs_tol=1e-9,
        )

    @given(random_instances())
    @settings(max_examples=60, deadline=None)
    def test_latency_lower_bounded_by_path_delay(self, instance):
        result = simulate(instance.topology, OpportunisticLinkScheduler(), instance.packets)
        topo = instance.topology
        for record in result:
            packet = record.packet
            if record.used_fixed_link:
                min_latency = packet.weight * topo.fixed_link_delay(
                    packet.source, packet.destination
                )
            else:
                # The cheapest possible routing of the packet over any candidate edge.
                min_latency = min(
                    packet.weight
                    * (
                        topo.head_delay(t)
                        + (topo.edge_delay(t, r) + 1) / 2
                        + topo.tail_delay(r)
                    )
                    for (t, r) in topo.candidate_edges(packet.source, packet.destination)
                )
            assert record.weighted_latency >= min_latency - 1e-9

    @given(random_instances())
    @settings(max_examples=60, deadline=None)
    def test_completion_after_arrival(self, instance):
        result = simulate(instance.topology, OpportunisticLinkScheduler(), instance.packets)
        for record in result:
            assert record.completion_time > record.packet.arrival

    @given(random_instances())
    @settings(max_examples=40, deadline=None)
    def test_matching_sizes_bounded(self, instance):
        result = simulate(instance.topology, OpportunisticLinkScheduler(), instance.packets)
        bound = min(len(instance.topology.transmitters), len(instance.topology.receivers))
        assert all(0 <= size <= bound for size in result.matching_sizes)

    @given(random_instances(max_packets=15))
    @settings(max_examples=30, deadline=None)
    def test_alpha_upper_bounds_latency_for_alg(self, instance):
        # Lemma 2 corollary: summed charges equal the cost and each packet's
        # charge is at most alpha, so the total cost never exceeds total alpha.
        result = simulate(instance.topology, OpportunisticLinkScheduler(), instance.packets)
        assert result.total_weighted_latency <= result.total_alpha + 1e-6

    @given(random_instances(max_packets=15))
    @settings(max_examples=25, deadline=None)
    def test_speedup_never_hurts(self, instance):
        slow = simulate(
            instance.topology, OpportunisticLinkScheduler(), instance.packets, speed=1.0
        )
        fast = simulate(
            instance.topology, OpportunisticLinkScheduler(), instance.packets, speed=2.0
        )
        assert fast.total_weighted_latency <= slow.total_weighted_latency + 1e-9

    @given(random_instances(max_packets=15))
    @settings(max_examples=25, deadline=None)
    def test_baselines_also_deliver_everything(self, instance):
        for policy in (make_fifo_policy(), make_maxweight_policy()):
            result = simulate(instance.topology, policy, instance.packets)
            assert result.all_delivered

    @given(random_instances(), st.sampled_from([1.0, 1.3, 1.7, 2.0]))
    @settings(max_examples=40, deadline=None)
    def test_engine_backends_bit_identical(self, instance, speed):
        # The indexed engine (including fractional-speed spill walks) must
        # replay the reference engine bit-for-bit on arbitrary instances.
        summaries = {
            engine: simulate(
                instance.topology,
                OpportunisticLinkScheduler(),
                instance.packets,
                speed=speed,
                engine=engine,
            ).summary()
            for engine in ("indexed", "reference")
        }
        assert summaries["indexed"] == summaries["reference"]
