"""A topology stores each node name and each reconfigurable edge once.

Every ``add_*`` call maps its name arguments to the string stored when that
node was added, and ``freeze()`` fills every ``E_p`` with the ``(t, r)``
tuples keyed in the edge-delay map.  These tests check the sharing on every
builder, on a fixed-link clone and on a serialization round trip (whose JSON
decoder hands over a fresh string per occurrence), and bound what one
64-rack ProjecToR fabric allocates.
"""

from __future__ import annotations

import gc
import json
import tracemalloc

import pytest

from repro.network import (
    TwoTierTopology,
    add_uniform_fixed_links,
    figure1_topology,
    figure2_topology,
    projector_fabric,
    random_bipartite,
    single_tier_crossbar,
)
from repro.network.serialization import topology_from_dict, topology_to_dict

BUILDS = {
    "projector-full": lambda: projector_fabric(6, 2, 3, delay=2),
    "projector-partial": lambda: projector_fabric(6, 2, 2, connectivity=0.4, seed=11),
    "random-bipartite": lambda: random_bipartite(5, 4, 2, 3, 0.5, (1, 2, 3), seed=7),
    "crossbar": lambda: single_tier_crossbar(5, delay=3),
    "figure1": figure1_topology,
    "figure2": figure2_topology,
    "fixed-clone": lambda: add_uniform_fixed_links(projector_fabric(4, seed=1), delay=5),
    "round-trip": lambda: topology_from_dict(json.loads(json.dumps(topology_to_dict(
        projector_fabric(5, 2, 2, connectivity=0.5, seed=3)
    )))),
}


def name_occurrences(topo: TwoTierTopology) -> list:
    """Every node name the topology hands out, through every query."""
    names = [*topo.sources, *topo.destinations, *topo.transmitters, *topo.receivers]
    for s in topo.sources:
        names.extend(topo.transmitters_of_source(s))
    for d in topo.destinations:
        names.extend(topo.receivers_of_destination(d))
    for t in topo.transmitters:
        names.append(topo.source_of(t))
        names.extend(topo.receivers_of(t))
    for r in topo.receivers:
        names.append(topo.destination_of(r))
        names.extend(topo.transmitters_of(r))
    for s in topo.sources:
        for d in topo.destinations:
            for edge in topo.candidate_edges(s, d):
                names.extend(edge)
    for edge in topo.reconfigurable_edges:
        names.extend(edge)
    for link in topo.fixed_links:
        names.extend(link)
    return names


@pytest.mark.parametrize("build", list(BUILDS.values()), ids=list(BUILDS))
def test_candidate_edges_are_the_stored_edges(build) -> None:
    topo = build()
    stored = {edge: edge for edge in topo.reconfigurable_edges}
    seen = 0
    for s in topo.sources:
        for d in topo.destinations:
            for edge in topo.candidate_edges(s, d):
                assert edge is stored[edge]
                seen += 1
    assert seen == len(stored)


@pytest.mark.parametrize("build", list(BUILDS.values()), ids=list(BUILDS))
def test_each_node_name_is_one_object(build) -> None:
    topo = build()
    canonical: dict = {}
    for name in name_occurrences(topo):
        assert canonical.setdefault(name, name) is name, name
    assert len(canonical) == topo.num_nodes()


def test_unfrozen_scan_returns_the_stored_edges() -> None:
    topo = TwoTierTopology()
    topo.add_source("s")
    topo.add_destination("d")
    transmitter, receiver = "laser-0", "photo-0"
    topo.add_transmitter(transmitter, "s")
    topo.add_receiver(receiver, "d")
    # Equal names built afresh map to the stored ones.
    topo.add_reconfigurable_edge("-".join(["laser", "0"]), "-".join(["photo", "0"]))
    [edge] = topo.candidate_edges("s", "d")
    assert edge is topo.reconfigurable_edges[0]
    assert edge[0] is transmitter and edge[1] is receiver


class Name(str):
    """A ``str`` subclass node name (``sys.intern`` would reject it)."""


def test_str_subclass_names_are_stored_and_shared() -> None:
    topo = TwoTierTopology()
    source, destination = Name("s"), Name("d")
    transmitter, receiver = Name("t"), Name("r")
    topo.add_source(source)
    topo.add_destination(destination)
    # Plain-str references resolve to the subclass objects stored at add time.
    topo.add_transmitter(transmitter, "s")
    topo.add_receiver(receiver, "d")
    topo.add_reconfigurable_edge("t", "r", delay=2)
    topo.add_fixed_link("s", "d", delay=3)
    topo.freeze()
    [edge] = topo.candidate_edges("s", "d")
    assert edge[0] is transmitter and edge[1] is receiver
    assert topo.source_of("t") is source
    assert topo.destination_of("r") is destination
    assert next(iter(topo.fixed_links)) == ("s", "d")
    assert all(type(name) is Name for name in next(iter(topo.fixed_links)))
    assert topo.edge_delay("t", "r") == 2


def test_projector_fabric_allocation_bound() -> None:
    """One 64-rack fabric (16128 edges) allocates at most 3 MiB."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        gc.collect()
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        topo = projector_fabric(64, 2, 2, delay=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert len(topo.reconfigurable_edges) == 64 * 63 * 4
    assert peak - before <= 3 * 2**20, f"{(peak - before) / 2**20:.2f} MiB"
