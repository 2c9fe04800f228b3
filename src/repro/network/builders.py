"""Topology builders for common experimental setups.

Each builder returns a frozen :class:`~repro.network.topology.TwoTierTopology`.
The builders cover:

* the classic single-tier crossbar switch (one transmitter per source, one
  receiver per destination, complete bipartite connectivity) — the setting of
  classic switch-scheduling papers that Section V relates to;
* ProjecToR-style rack fabrics with ``k`` lasers and photodetectors per rack
  and configurable (possibly partial) laser→photodetector connectivity;
* random bipartite reconfigurable networks;
* hybrid variants of the above with fixed source→destination links;
* the exact example graphs of Figure 1 and Figure 2 of the paper.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.exceptions import TopologyError
from repro.network.topology import TwoTierTopology
from repro.utils.rng import RngLike, as_rng
from repro.utils.validation import check_positive_int, check_probability

__all__ = [
    "single_tier_crossbar",
    "projector_fabric",
    "random_bipartite",
    "add_uniform_fixed_links",
    "figure1_topology",
    "figure2_topology",
]


def single_tier_crossbar(
    num_ports: int,
    delay: int = 1,
    name: str = "crossbar",
) -> TwoTierTopology:
    """Build an ``n x n`` single-tier crossbar switch.

    Every input port ``i`` is a source with exactly one transmitter, every
    output port ``j`` is a destination with exactly one receiver, and every
    transmitter is connected to every receiver with the same delay.  This is
    the classic input-queued switch model (McKeown; Chuang et al.) that the
    paper's two-tier model generalises.

    Parameters
    ----------
    num_ports:
        Number of input ports (= number of output ports).
    delay:
        Uniform reconfigurable-edge delay ``d(e)`` (default 1).
    """
    n = check_positive_int(num_ports, "num_ports")
    transmitters = [f"t{i}" for i in range(n)]
    receivers = [f"r{i}" for i in range(n)]
    topo = TwoTierTopology(name=name)
    for i in range(n):
        topo.add_source(f"s{i}")
        topo.add_destination(f"d{i}")
    for i in range(n):
        topo.add_transmitter(transmitters[i], f"s{i}")
        topo.add_receiver(receivers[i], f"d{i}")
    for t in transmitters:
        for r in receivers:
            topo.add_reconfigurable_edge(t, r, delay=delay)
    return topo.freeze()


def projector_fabric(
    num_racks: int,
    lasers_per_rack: int = 2,
    photodetectors_per_rack: int = 2,
    delay: int = 1,
    connectivity: float = 1.0,
    head_delay: int = 0,
    tail_delay: int = 0,
    seed: RngLike = None,
    name: str = "projector",
) -> TwoTierTopology:
    """Build a ProjecToR-style two-tier rack fabric.

    Each rack appears both as a source (its sending side) and as a destination
    (its receiving side).  Rack ``i`` owns ``lasers_per_rack`` transmitters and
    ``photodetectors_per_rack`` receivers.  A laser can reach a photodetector
    of any *other* rack; with ``connectivity < 1`` only a random subset of
    those laser→photodetector pairs is available (modelling limited steering
    range of free-space optics).

    Parameters
    ----------
    num_racks:
        Number of racks (>= 2).
    lasers_per_rack, photodetectors_per_rack:
        Transmitters / receivers per rack.
    delay:
        Uniform reconfigurable-edge delay.
    connectivity:
        Probability that a cross-rack laser→photodetector pair is connected.
        ``1.0`` yields full connectivity; the builder guarantees every
        cross-rack (source, destination) pair keeps at least one candidate
        edge so all traffic remains routable.
    head_delay, tail_delay:
        Attachment-edge delays.
    seed:
        RNG seed used only when ``connectivity < 1``.
    """
    racks = check_positive_int(num_racks, "num_racks")
    if racks < 2:
        raise TopologyError("projector_fabric requires at least 2 racks")
    lasers = check_positive_int(lasers_per_rack, "lasers_per_rack")
    photos = check_positive_int(photodetectors_per_rack, "photodetectors_per_rack")
    p_connect = check_probability(connectivity, "connectivity")
    rng = as_rng(seed)

    # Each port name is built once and passed to every edge that uses it.
    lasers_of = [[f"rack{i}:laser{l}" for l in range(lasers)] for i in range(racks)]
    photos_of = [[f"rack{i}:photo{p}" for p in range(photos)] for i in range(racks)]
    topo = TwoTierTopology(name=name)
    for i in range(racks):
        topo.add_source(f"rack{i}:src")
        topo.add_destination(f"rack{i}:dst")
    for i in range(racks):
        for laser in lasers_of[i]:
            topo.add_transmitter(laser, f"rack{i}:src", head_delay=head_delay)
        for photo in photos_of[i]:
            topo.add_receiver(photo, f"rack{i}:dst", tail_delay=tail_delay)

    for i in range(racks):
        for j in range(racks):
            if i == j:
                continue
            pair_edges = [(laser, photo) for laser in lasers_of[i] for photo in photos_of[j]]
            if p_connect >= 1.0:
                chosen = pair_edges
            else:
                mask = rng.random(len(pair_edges)) < p_connect
                chosen = [e for e, keep in zip(pair_edges, mask) if keep]
                if not chosen:
                    # Keep the pair routable: retain one uniformly random edge.
                    chosen = [pair_edges[int(rng.integers(len(pair_edges)))]]
            for (t, r) in chosen:
                topo.add_reconfigurable_edge(t, r, delay=delay)
    return topo.freeze()


def random_bipartite(
    num_sources: int,
    num_destinations: int,
    transmitters_per_source: int = 1,
    receivers_per_destination: int = 1,
    edge_probability: float = 0.5,
    delay_choices: Sequence[int] = (1,),
    seed: RngLike = None,
    name: str = "random-bipartite",
) -> TwoTierTopology:
    """Build a random two-tier topology with heterogeneous edge delays.

    Each (source, destination) pair is guaranteed at least one candidate edge
    so that every possible packet is routable through the reconfigurable
    network.

    Parameters
    ----------
    edge_probability:
        Probability of each candidate transmitter→receiver edge existing.
    delay_choices:
        Pool of integer delays (each >= 1); each created edge draws its delay
        uniformly from this pool.
    """
    ns = check_positive_int(num_sources, "num_sources")
    nd = check_positive_int(num_destinations, "num_destinations")
    tps = check_positive_int(transmitters_per_source, "transmitters_per_source")
    rpd = check_positive_int(receivers_per_destination, "receivers_per_destination")
    prob = check_probability(edge_probability, "edge_probability")
    delays = [int(d) for d in delay_choices]
    if not delays or any(d < 1 for d in delays):
        raise TopologyError(f"delay_choices must be non-empty integers >= 1, got {delay_choices!r}")
    rng = as_rng(seed)

    transmitters_of = [[f"s{i}:t{k}" for k in range(tps)] for i in range(ns)]
    receivers_of = [[f"d{j}:r{k}" for k in range(rpd)] for j in range(nd)]
    topo = TwoTierTopology(name=name)
    for i in range(ns):
        topo.add_source(f"s{i}")
    for j in range(nd):
        topo.add_destination(f"d{j}")
    for i, transmitters in enumerate(transmitters_of):
        for t in transmitters:
            topo.add_transmitter(t, f"s{i}")
    for j, receivers in enumerate(receivers_of):
        for r in receivers:
            topo.add_receiver(r, f"d{j}")

    for transmitters in transmitters_of:
        for receivers in receivers_of:
            pair_edges = [(t, r) for t in transmitters for r in receivers]
            mask = rng.random(len(pair_edges)) < prob
            chosen = [e for e, keep in zip(pair_edges, mask) if keep]
            if not chosen:
                chosen = [pair_edges[int(rng.integers(len(pair_edges)))]]
            for (t, r) in chosen:
                delay = delays[int(rng.integers(len(delays)))]
                topo.add_reconfigurable_edge(t, r, delay=delay)
    return topo.freeze()


def add_uniform_fixed_links(
    topology: TwoTierTopology,
    delay: int,
    pair_filter: Optional[Callable[[str, str], bool]] = None,
) -> TwoTierTopology:
    """Return a copy of ``topology`` with fixed links added between all pairs.

    The input topology is not modified.  A fixed link of delay ``delay`` is
    added between every (source, destination) pair accepted by
    ``pair_filter`` (default: all pairs whose source and destination differ in
    name).  This converts a purely reconfigurable topology into a hybrid one
    (Section II's set ``E_l``).
    """
    if delay < 1:
        raise TopologyError(f"fixed link delay must be >= 1, got {delay!r}")
    clone = TwoTierTopology(name=f"{topology.name}+fixed")
    for s in topology.sources:
        clone.add_source(s)
    for d in topology.destinations:
        clone.add_destination(d)
    for t in topology.transmitters:
        clone.add_transmitter(t, topology.source_of(t), head_delay=topology.head_delay(t))
    for r in topology.receivers:
        clone.add_receiver(r, topology.destination_of(r), tail_delay=topology.tail_delay(r))
    for (t, r) in topology.reconfigurable_edges:
        clone.add_reconfigurable_edge(t, r, delay=topology.edge_delay(t, r))
    for (s, d), existing_delay in topology.fixed_links.items():
        clone.add_fixed_link(s, d, existing_delay)

    existing = set(topology.fixed_links)
    for s in topology.sources:
        for d in topology.destinations:
            if (s, d) in existing:
                continue
            if pair_filter is not None and not pair_filter(s, d):
                continue
            if pair_filter is None and s == d:
                continue
            clone.add_fixed_link(s, d, delay)
    return clone.freeze()


def figure1_topology() -> TwoTierTopology:
    """The topology of Figure 1 of the paper.

    Two sources ``s1, s2``; transmitters ``t1`` (of ``s1``), ``t2`` and ``t3``
    (of ``s2``); receivers ``r1`` (of ``d1``), ``r2, r3`` (of ``d2``), ``r4``
    (of ``d3``); destinations ``d1, d2, d3``.  All reconfigurable-edge delays
    are 1, a fixed link ``(s2, d3)`` with delay 4 models the double line, and
    all attachment edges have delay 0.

    The paper shows the dashed (available) reconfigurable connections only as
    a drawing; the edge set used here —
    ``(t1,r1), (t1,r2), (t2,r1), (t3,r3), (t3,r4)`` — is the one consistent
    with every number stated in the example: the tabulated feasible schedule
    (packets ``p1..p4`` over ``(t1,r1), (t1,r2), (t3,r3)`` and ``p5`` over the
    fixed link) costs 9, and the optimal schedule (``p5`` in the third slot
    via ``(t3,r4)``) costs 7.  In particular ``s2 → d2`` traffic has a single
    candidate edge ``(t3,r3)``, which is what makes 7 optimal.
    """
    topo = TwoTierTopology(name="figure1")
    for s in ("s1", "s2"):
        topo.add_source(s)
    for d in ("d1", "d2", "d3"):
        topo.add_destination(d)
    topo.add_transmitter("t1", "s1")
    topo.add_transmitter("t2", "s2")
    topo.add_transmitter("t3", "s2")
    topo.add_receiver("r1", "d1")
    topo.add_receiver("r2", "d2")
    topo.add_receiver("r3", "d2")
    topo.add_receiver("r4", "d3")
    for (t, r) in (("t1", "r1"), ("t1", "r2"), ("t2", "r1"), ("t3", "r3"), ("t3", "r4")):
        topo.add_reconfigurable_edge(t, r, delay=1)
    topo.add_fixed_link("s2", "d3", delay=4)
    return topo.freeze()


def figure2_topology() -> TwoTierTopology:
    """The exact topology of Figure 2 of the paper.

    Two sources ``s1, s2`` and three destinations ``d1, d2, d3``.  Each source
    has exactly one transmitter and each destination exactly one receiver
    (the figure omits them).  The available reconfigurable edges connect
    ``s1``'s transmitter with the receivers of ``d1`` and ``d2`` and ``s2``'s
    transmitter with the receivers of ``d2`` and ``d3``; all delays are 1 and
    there are no fixed links.
    """
    topo = TwoTierTopology(name="figure2")
    for s in ("s1", "s2"):
        topo.add_source(s)
    for d in ("d1", "d2", "d3"):
        topo.add_destination(d)
    topo.add_transmitter("t(s1)", "s1")
    topo.add_transmitter("t(s2)", "s2")
    for d in ("d1", "d2", "d3"):
        topo.add_receiver(f"r({d})", d)
    for (t, r) in (
        ("t(s1)", "r(d1)"),
        ("t(s1)", "r(d2)"),
        ("t(s2)", "r(d2)"),
        ("t(s2)", "r(d3)"),
    ):
        topo.add_reconfigurable_edge(t, r, delay=1)
    return topo.freeze()
