"""The frozen topology's E_p index against a per-pair reference scan.

:meth:`TwoTierTopology.freeze` groups every reconfigurable edge by its
(source, destination) pair in one pass; dispatchers, the LP, the charging
scheme and workload generation then read ``candidate_edges`` / ``can_route``
from that index.  These tests pin it, order included, to the definition of
Section III: ``E_p`` holds the edges ``(t, r)`` with ``src(t) = s`` and
``dest(r) = d``, listed transmitter by transmitter in attachment order and,
per transmitter, in edge insertion order.
"""

from __future__ import annotations

import pytest

from repro.exceptions import TopologyError
from repro.network import (
    TwoTierTopology,
    add_uniform_fixed_links,
    figure1_topology,
    projector_fabric,
    random_bipartite,
    single_tier_crossbar,
)
from repro.workloads.base import routable_pairs

BUILDERS = {
    "projector-sparse": lambda: projector_fabric(
        6, lasers_per_rack=3, photodetectors_per_rack=2, connectivity=0.4, seed=11
    ),
    "random-bipartite": lambda: random_bipartite(
        4, 5, transmitters_per_source=2, receivers_per_destination=3,
        edge_probability=0.3, delay_choices=(1, 2, 3), seed=5,
    ),
    "crossbar": lambda: single_tier_crossbar(4),
    "hybrid": lambda: add_uniform_fixed_links(
        projector_fabric(4, connectivity=0.5, seed=3), delay=3,
        pair_filter=lambda s, d: s.split(":")[0] != d.split(":")[0],
    ),
    "figure1": figure1_topology,
}


def reference_candidates(topology, source, destination):
    """``E_p`` by a direct scan over the source's transmitters."""
    return [
        (t, r)
        for t in topology.transmitters_of_source(source)
        for r in topology.receivers_of(t)
        if topology.destination_of(r) == destination
    ]


@pytest.fixture(params=sorted(BUILDERS))
def topology(request):
    return BUILDERS[request.param]()


def test_every_pair_matches_the_reference_scan(topology):
    assert topology.frozen
    nonempty = 0
    for s in topology.sources:
        for d in topology.destinations:
            expected = reference_candidates(topology, s, d)
            assert topology.candidate_edges(s, d) == expected, (s, d)
            nonempty += bool(expected)
    assert nonempty > 0


def test_can_route_and_routable_pairs_unchanged(topology):
    expected_pairs = []
    for s in topology.sources:
        for d in topology.destinations:
            routable = bool(reference_candidates(topology, s, d)) or topology.has_fixed_link(s, d)
            assert topology.can_route(s, d) is routable, (s, d)
            if routable:
                expected_pairs.append((s, d))
    assert routable_pairs(topology) == expected_pairs


def test_hybrid_fixed_link_without_edges_is_routable():
    topo = TwoTierTopology()
    topo.add_source("s")
    topo.add_destination("d")
    topo.add_fixed_link("s", "d", delay=2)
    topo.freeze()
    assert topo.candidate_edges("s", "d") == []
    assert topo.can_route("s", "d")


def test_returned_list_is_a_fresh_copy():
    topo = figure1_topology()
    edges = topo.candidate_edges("s1", "d1")
    edges.append(("t9", "r9"))
    assert topo.candidate_edges("s1", "d1") == [("t1", "r1")]
    assert topo.candidate_edges("s1", "d1") is not topo.candidate_edges("s1", "d1")


def test_unknown_nodes_still_raise():
    topo = figure1_topology()
    for source, destination in (("nope", "d1"), ("s1", "nope"), ("t1", "r1")):
        with pytest.raises(TopologyError):
            topo.candidate_edges(source, destination)
        with pytest.raises(TopologyError):
            topo.can_route(source, destination)


def test_unfrozen_topology_answers_without_caching():
    topo = TwoTierTopology()
    topo.add_source("s")
    topo.add_destination("d")
    topo.add_transmitter("t1", "s")
    topo.add_transmitter("t2", "s")
    topo.add_receiver("r1", "d")
    assert topo.candidate_edges("s", "d") == []
    assert not topo.can_route("s", "d")
    topo.add_reconfigurable_edge("t2", "r1")
    assert topo.candidate_edges("s", "d") == [("t2", "r1")]
    topo.add_reconfigurable_edge("t1", "r1")
    assert topo.candidate_edges("s", "d") == [("t1", "r1"), ("t2", "r1")]
    assert topo.can_route("s", "d")
    assert not topo.frozen
    topo.freeze()
    assert topo.candidate_edges("s", "d") == [("t1", "r1"), ("t2", "r1")]
