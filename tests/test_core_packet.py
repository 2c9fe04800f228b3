"""Tests for repro.core.packet."""

from __future__ import annotations

import pytest

from repro.core.packet import (
    EdgeAssignment,
    FixedLinkAssignment,
    Packet,
    split_into_chunks,
)
from repro.exceptions import DispatchError
from repro.utils.ordering import chunk_priority_key


class TestPacket:
    def test_valid_packet(self):
        p = Packet(0, "s", "d", weight=2.5, arrival=3)
        assert p.size == 1.0
        assert p.weight == 2.5

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            Packet(-1, "s", "d", weight=1.0, arrival=1)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            Packet(0, "s", "d", weight=0.0, arrival=1)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Packet(0, "s", "d", weight=-2.0, arrival=1)

    def test_arrival_below_one_rejected(self):
        with pytest.raises(ValueError):
            Packet(0, "s", "d", weight=1.0, arrival=0)

    def test_packet_is_frozen(self):
        p = Packet(0, "s", "d", weight=1.0, arrival=1)
        with pytest.raises(AttributeError):
            p.weight = 2.0  # type: ignore[misc]

    def test_repr_contains_route(self):
        assert "s->d" in repr(Packet(0, "s", "d", weight=1.0, arrival=1))


class TestChunking:
    def test_split_counts_and_sizes(self):
        p = Packet(0, "s", "d", weight=6.0, arrival=2)
        chunks = split_into_chunks(p, "t", "r", edge_delay=3)
        assert len(chunks) == 3
        assert all(c.size == pytest.approx(1 / 3) for c in chunks)
        assert all(c.weight == pytest.approx(2.0) for c in chunks)

    def test_chunk_weights_sum_to_packet_weight(self):
        p = Packet(0, "s", "d", weight=5.0, arrival=1)
        chunks = split_into_chunks(p, "t", "r", edge_delay=4)
        assert sum(c.weight for c in chunks) == pytest.approx(5.0)

    def test_eligible_time_includes_head_delay(self):
        p = Packet(0, "s", "d", weight=1.0, arrival=2)
        chunks = split_into_chunks(p, "t", "r", edge_delay=1, head_delay=3)
        assert chunks[0].eligible_time == 5

    def test_tail_delay_stored(self):
        p = Packet(0, "s", "d", weight=1.0, arrival=1)
        chunks = split_into_chunks(p, "t", "r", edge_delay=1, tail_delay=2)
        assert chunks[0].tail_delay == 2

    def test_invalid_edge_delay(self):
        p = Packet(0, "s", "d", weight=1.0, arrival=1)
        with pytest.raises(DispatchError):
            split_into_chunks(p, "t", "r", edge_delay=0)

    def test_chunk_indices_are_one_based(self):
        p = Packet(0, "s", "d", weight=1.0, arrival=1)
        chunks = split_into_chunks(p, "t", "r", edge_delay=2)
        assert [c.index for c in chunks] == [1, 2]

    def test_chunk_state_transitions(self):
        p = Packet(0, "s", "d", weight=1.0, arrival=1)
        chunk = split_into_chunks(p, "t", "r", edge_delay=1)[0]
        assert chunk.pending and not chunk.delivered
        chunk.remaining_work = 0.0
        chunk.delivery_time = 2.0
        assert not chunk.pending and chunk.delivered
        assert chunk.latency() == pytest.approx(1.0)

    def test_latency_before_delivery_raises(self):
        p = Packet(0, "s", "d", weight=1.0, arrival=1)
        chunk = split_into_chunks(p, "t", "r", edge_delay=1)[0]
        with pytest.raises(DispatchError):
            chunk.latency()

    def test_chunk_edge_property(self):
        p = Packet(0, "s", "d", weight=1.0, arrival=1)
        chunk = split_into_chunks(p, "tx", "rx", edge_delay=1)[0]
        assert chunk.edge == ("tx", "rx")

    def test_priority_key_computed_at_split(self):
        p = Packet(7, "s", "d", weight=5.0, arrival=3)
        chunks = split_into_chunks(p, "t", "r", edge_delay=3, head_delay=2)
        for c in chunks:
            assert c.key == (-c.weight, c.packet.arrival, c.packet.packet_id, c.index)
            assert chunk_priority_key(c) is c.key
        assert [c.key for c in chunks] == sorted(c.key for c in chunks)


class TestAssignments:
    def test_fixed_link_assignment_properties(self):
        p = Packet(0, "s", "d", weight=3.0, arrival=2)
        a = FixedLinkAssignment(packet=p, link_delay=4, impact=12.0)
        assert a.uses_fixed_link
        assert a.completion_time == 6
        assert a.weighted_latency == pytest.approx(12.0)

    def test_edge_assignment_properties(self):
        p = Packet(0, "s", "d", weight=3.0, arrival=2)
        chunks = split_into_chunks(p, "t", "r", edge_delay=2)
        a = EdgeAssignment(
            packet=p, transmitter="t", receiver="r", edge_delay=2, impact=5.0, chunks=chunks
        )
        assert not a.uses_fixed_link
        assert a.edge == ("t", "r")
        assert len(a.chunks) == 2
