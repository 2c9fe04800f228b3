"""Two-tier hybrid datacenter topology model.

This module implements the graph model of Section II of the paper:

* the vertex set is partitioned into four layers — sources ``S``,
  transmitters ``T``, receivers ``R`` and destinations ``D``;
* each transmitter is attached to exactly one source and each receiver to
  exactly one destination (a source/destination may own several
  transmitters/receivers — e.g. a ToR with several lasers / photodetectors);
* transmitter–receiver edges form the *reconfigurable* (opportunistic)
  network; each such edge has an integer delay ``d(e) >= 1``;
* an optional set of *fixed* direct source–destination links with delay
  ``d_l`` models the hybrid part of the topology;
* source→transmitter and receiver→destination attachment edges may carry a
  (possibly zero) delay.

The class :class:`TwoTierTopology` is an immutable-after-``freeze`` container
with O(1) lookups for the queries the algorithm needs at runtime:
``R(t)``, ``T(r)``, the candidate edge set ``E_p`` of a (source, destination)
pair, the fixed-link delay ``d_l(p)``, and the end-to-end path delay
``d_hat(e)``.  networkx is imported only by the export helpers
(:meth:`TwoTierTopology.to_networkx`,
:meth:`TwoTierTopology.reconfigurable_bipartite_graph`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Tuple

from repro.exceptions import TopologyError

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Edge", "TwoTierTopology", "EdgeView"]

#: A reconfigurable edge is identified by its (transmitter, receiver) pair.
Edge = Tuple[str, str]


@dataclass(frozen=True)
class EdgeView:
    """Read-only view of a reconfigurable edge and its delays.

    Attributes
    ----------
    transmitter, receiver:
        Endpoint node names.
    delay:
        The transmitter→receiver delay ``d(e)`` (>= 1).
    source, destination:
        The source owning the transmitter and the destination owning the
        receiver.
    head_delay:
        Source→transmitter delay ``d(src, t)``.
    tail_delay:
        Receiver→destination delay ``d(r, dest)``.
    """

    transmitter: str
    receiver: str
    delay: int
    source: str
    destination: str
    head_delay: int
    tail_delay: int

    @property
    def edge(self) -> Edge:
        """The ``(transmitter, receiver)`` pair identifying this edge."""
        return (self.transmitter, self.receiver)

    @property
    def path_delay(self) -> int:
        """End-to-end path delay ``d_hat(e) = d(src,t) + d(e) + d(r,dest)``."""
        return self.head_delay + self.delay + self.tail_delay


class TwoTierTopology:
    """The two-tier hybrid network ``G = (S ∪ T ∪ R ∪ D, E, d)``.

    Nodes are identified by strings.  The four layers must be disjoint.
    Construction is incremental (``add_source``, ``add_transmitter``, …);
    :meth:`freeze` validates the topology, indexes every candidate edge set
    ``E_p`` and switches it to read-only mode.  Query methods answer on an
    unfrozen topology too, and never freeze it.

    Each node name and each reconfigurable edge is stored once: ``add_*``
    calls map name arguments to the string stored when that node was added
    (a name table, so ``str`` subclasses work), and every ``E_p`` holds the
    ``(t, r)`` tuples keyed in the edge-delay map.

    Examples
    --------
    >>> topo = TwoTierTopology()
    >>> topo.add_source("s1"); topo.add_destination("d1")
    >>> topo.add_transmitter("t1", "s1"); topo.add_receiver("r1", "d1")
    >>> topo.add_reconfigurable_edge("t1", "r1", delay=1)
    >>> topo.freeze()
    TwoTierTopology(name='two-tier', sources=1, transmitters=1, receivers=1, destinations=1, edges=1, fixed_links=0)
    >>> topo.candidate_edges("s1", "d1")
    [('t1', 'r1')]
    """

    def __init__(self, name: str = "two-tier") -> None:
        self.name = name
        self._frozen = False

        #: node name -> the one string object stored for it, in every layer
        self._names: Dict[str, str] = {}
        self._sources: Dict[str, None] = {}
        self._destinations: Dict[str, None] = {}
        self._transmitters: Dict[str, str] = {}  # t -> source
        self._receivers: Dict[str, str] = {}  # r -> destination
        self._source_transmitters: Dict[str, List[str]] = {}
        self._destination_receivers: Dict[str, List[str]] = {}

        self._edge_delay: Dict[Edge, int] = {}
        self._edges_of_transmitter: Dict[str, List[Edge]] = {}  # the _edge_delay keys
        self._transmitters_of_receiver: Dict[str, List[str]] = {}

        self._fixed_links: Dict[Tuple[str, str], int] = {}
        self._head_delay: Dict[str, int] = {}  # transmitter -> d(src, t)
        self._tail_delay: Dict[str, int] = {}  # receiver -> d(r, dest)

        #: (source, destination) -> E_p (the _edge_delay keys), filled by
        #: :meth:`freeze` for every pair with at least one reconfigurable edge
        self._candidates: Dict[Tuple[str, str], Tuple[Edge, ...]] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _require_mutable(self) -> None:
        if self._frozen:
            raise TopologyError(f"topology {self.name!r} is frozen and cannot be modified")

    def _require_new_node(self, node: str) -> None:
        if not isinstance(node, str) or not node:
            raise TopologyError(f"node names must be non-empty strings, got {node!r}")
        if node in self._names:
            raise TopologyError(f"node {node!r} already exists in topology {self.name!r}")

    def add_source(self, source: str) -> None:
        """Add a source (e.g. a sending ToR switch)."""
        self._require_mutable()
        self._require_new_node(source)
        self._names[source] = source
        self._sources[source] = None
        self._source_transmitters[source] = []

    def add_destination(self, destination: str) -> None:
        """Add a destination (e.g. a receiving ToR switch)."""
        self._require_mutable()
        self._require_new_node(destination)
        self._names[destination] = destination
        self._destinations[destination] = None
        self._destination_receivers[destination] = []

    def add_transmitter(self, transmitter: str, source: str, head_delay: int = 0) -> None:
        """Attach transmitter ``transmitter`` (e.g. a laser) to ``source``.

        Parameters
        ----------
        head_delay:
            Delay ``d(src, t)`` of the attachment edge (non-negative integer,
            default 0 as in the paper's Figure 1 example).
        """
        self._require_mutable()
        self._require_new_node(transmitter)
        if source not in self._sources:
            raise TopologyError(f"unknown source {source!r} for transmitter {transmitter!r}")
        if not isinstance(head_delay, int) or head_delay < 0:
            raise TopologyError(f"head_delay must be a non-negative integer, got {head_delay!r}")
        self._names[transmitter] = transmitter
        source = self._names[source]
        self._transmitters[transmitter] = source
        self._source_transmitters[source].append(transmitter)
        self._edges_of_transmitter[transmitter] = []
        self._head_delay[transmitter] = head_delay

    def add_receiver(self, receiver: str, destination: str, tail_delay: int = 0) -> None:
        """Attach receiver ``receiver`` (e.g. a photodetector) to ``destination``."""
        self._require_mutable()
        self._require_new_node(receiver)
        if destination not in self._destinations:
            raise TopologyError(f"unknown destination {destination!r} for receiver {receiver!r}")
        if not isinstance(tail_delay, int) or tail_delay < 0:
            raise TopologyError(f"tail_delay must be a non-negative integer, got {tail_delay!r}")
        self._names[receiver] = receiver
        destination = self._names[destination]
        self._receivers[receiver] = destination
        self._destination_receivers[destination].append(receiver)
        self._transmitters_of_receiver[receiver] = []
        self._tail_delay[receiver] = tail_delay

    def add_reconfigurable_edge(self, transmitter: str, receiver: str, delay: int = 1) -> None:
        """Add an opportunistic transmitter→receiver edge with delay ``d(e) >= 1``."""
        self._require_mutable()
        if transmitter not in self._transmitters:
            raise TopologyError(f"unknown transmitter {transmitter!r}")
        if receiver not in self._receivers:
            raise TopologyError(f"unknown receiver {receiver!r}")
        if not isinstance(delay, int) or delay < 1:
            raise TopologyError(
                f"reconfigurable edge delay must be an integer >= 1, got {delay!r}"
            )
        names = self._names
        edge = (names[transmitter], names[receiver])
        if edge in self._edge_delay:
            raise TopologyError(f"edge {edge!r} already exists")
        self._edge_delay[edge] = delay
        self._edges_of_transmitter[edge[0]].append(edge)
        self._transmitters_of_receiver[edge[1]].append(edge[0])

    def add_fixed_link(self, source: str, destination: str, delay: int) -> None:
        """Add a direct (fixed-network) source→destination link with delay ``delay >= 1``."""
        self._require_mutable()
        if source not in self._sources:
            raise TopologyError(f"unknown source {source!r} for fixed link")
        if destination not in self._destinations:
            raise TopologyError(f"unknown destination {destination!r} for fixed link")
        if not isinstance(delay, int) or delay < 1:
            raise TopologyError(f"fixed link delay must be an integer >= 1, got {delay!r}")
        key = (self._names[source], self._names[destination])
        if key in self._fixed_links:
            raise TopologyError(f"fixed link {key!r} already exists")
        self._fixed_links[key] = delay

    def freeze(self) -> "TwoTierTopology":
        """Validate the topology, index every ``E_p`` and make it read-only.

        The index is one pass over the reconfigurable edges, grouped by
        (source, destination) in the order :meth:`candidate_edges` scans an
        unfrozen topology; it holds the stored edge tuples.  Returns ``self``.
        """
        if not self._frozen:
            self.validate()
            receivers = self._receivers
            for source, transmitters in self._source_transmitters.items():
                by_destination: Dict[str, List[Edge]] = {}
                for t in transmitters:
                    for edge in self._edges_of_transmitter[t]:
                        by_destination.setdefault(receivers[edge[1]], []).append(edge)
                for destination, edges in by_destination.items():
                    self._candidates[(source, destination)] = tuple(edges)
            self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        """Whether the topology has been frozen (made read-only)."""
        return self._frozen

    def validate(self) -> None:
        """Check structural invariants, raising :class:`TopologyError` on failure."""
        if not self._sources:
            raise TopologyError("topology has no sources")
        if not self._destinations:
            raise TopologyError("topology has no destinations")
        for t, s in self._transmitters.items():
            if s not in self._sources:
                raise TopologyError(f"transmitter {t!r} attached to unknown source {s!r}")
        for r, d in self._receivers.items():
            if d not in self._destinations:
                raise TopologyError(f"receiver {r!r} attached to unknown destination {d!r}")
        for (t, r), delay in self._edge_delay.items():
            if delay < 1:
                raise TopologyError(f"edge {(t, r)!r} has delay {delay} < 1")

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def sources(self) -> Tuple[str, ...]:
        """All source nodes, in insertion order."""
        return tuple(self._sources)

    @property
    def destinations(self) -> Tuple[str, ...]:
        """All destination nodes, in insertion order."""
        return tuple(self._destinations)

    @property
    def transmitters(self) -> Tuple[str, ...]:
        """All transmitter nodes, in insertion order."""
        return tuple(self._transmitters)

    @property
    def receivers(self) -> Tuple[str, ...]:
        """All receiver nodes, in insertion order."""
        return tuple(self._receivers)

    @property
    def reconfigurable_edges(self) -> Tuple[Edge, ...]:
        """All transmitter→receiver edges, in insertion order."""
        return tuple(self._edge_delay)

    @property
    def fixed_links(self) -> Mapping[Tuple[str, str], int]:
        """Mapping ``(source, destination) -> delay`` of direct links."""
        return dict(self._fixed_links)

    def num_nodes(self) -> int:
        """Total number of nodes across all four layers."""
        return (
            len(self._sources)
            + len(self._destinations)
            + len(self._transmitters)
            + len(self._receivers)
        )

    def source_of(self, transmitter: str) -> str:
        """The source a transmitter is attached to."""
        try:
            return self._transmitters[transmitter]
        except KeyError:
            raise TopologyError(f"unknown transmitter {transmitter!r}") from None

    def destination_of(self, receiver: str) -> str:
        """The destination a receiver is attached to."""
        try:
            return self._receivers[receiver]
        except KeyError:
            raise TopologyError(f"unknown receiver {receiver!r}") from None

    def transmitters_of_source(self, source: str) -> Tuple[str, ...]:
        """All transmitters attached to ``source``."""
        try:
            return tuple(self._source_transmitters[source])
        except KeyError:
            raise TopologyError(f"unknown source {source!r}") from None

    def receivers_of_destination(self, destination: str) -> Tuple[str, ...]:
        """All receivers attached to ``destination``."""
        try:
            return tuple(self._destination_receivers[destination])
        except KeyError:
            raise TopologyError(f"unknown destination {destination!r}") from None

    def receivers_of(self, transmitter: str) -> Tuple[str, ...]:
        """``R(t)``: receivers adjacent to ``transmitter`` in the reconfigurable network."""
        try:
            return tuple(r for _, r in self._edges_of_transmitter[transmitter])
        except KeyError:
            raise TopologyError(f"unknown transmitter {transmitter!r}") from None

    def transmitters_of(self, receiver: str) -> Tuple[str, ...]:
        """``T(r)``: transmitters adjacent to ``receiver`` in the reconfigurable network."""
        try:
            return tuple(self._transmitters_of_receiver[receiver])
        except KeyError:
            raise TopologyError(f"unknown receiver {receiver!r}") from None

    def has_edge(self, transmitter: str, receiver: str) -> bool:
        """Whether the reconfigurable edge ``(transmitter, receiver)`` exists."""
        return (transmitter, receiver) in self._edge_delay

    def edge_delay(self, transmitter: str, receiver: str) -> int:
        """Delay ``d(e)`` of a reconfigurable edge."""
        try:
            return self._edge_delay[(transmitter, receiver)]
        except KeyError:
            raise TopologyError(f"unknown reconfigurable edge {(transmitter, receiver)!r}") from None

    def head_delay(self, transmitter: str) -> int:
        """Delay ``d(src, t)`` of the source→transmitter attachment edge."""
        try:
            return self._head_delay[transmitter]
        except KeyError:
            raise TopologyError(f"unknown transmitter {transmitter!r}") from None

    def tail_delay(self, receiver: str) -> int:
        """Delay ``d(r, dest)`` of the receiver→destination attachment edge."""
        try:
            return self._tail_delay[receiver]
        except KeyError:
            raise TopologyError(f"unknown receiver {receiver!r}") from None

    def path_delay(self, transmitter: str, receiver: str) -> int:
        """End-to-end delay ``d_hat(e) = d(src,t) + d(e) + d(r,dest)`` of edge ``e``."""
        return (
            self.head_delay(transmitter)
            + self.edge_delay(transmitter, receiver)
            + self.tail_delay(receiver)
        )

    def edge_view(self, transmitter: str, receiver: str) -> EdgeView:
        """Return an :class:`EdgeView` for the edge ``(transmitter, receiver)``."""
        return EdgeView(
            transmitter=transmitter,
            receiver=receiver,
            delay=self.edge_delay(transmitter, receiver),
            source=self.source_of(transmitter),
            destination=self.destination_of(receiver),
            head_delay=self.head_delay(transmitter),
            tail_delay=self.tail_delay(receiver),
        )

    def iter_edge_views(self) -> Iterator[EdgeView]:
        """Iterate over :class:`EdgeView` objects for all reconfigurable edges."""
        for (t, r) in self._edge_delay:
            yield self.edge_view(t, r)

    def candidate_edges(self, source: str, destination: str) -> List[Edge]:
        """``E_p``: reconfigurable edges usable by a (source, destination) packet.

        These are all ``(t, r)`` pairs with ``src(t) = source``,
        ``dest(r) = destination`` and an existing reconfigurable edge.
        A frozen topology answers from the index :meth:`freeze` built; an
        unfrozen one scans the pair's transmitters.  Either way the result
        is a fresh list the caller may mutate.
        """
        indexed = self._candidates.get((source, destination))
        if indexed is not None:
            return list(indexed)
        if source not in self._sources:
            raise TopologyError(f"unknown source {source!r}")
        if destination not in self._destinations:
            raise TopologyError(f"unknown destination {destination!r}")
        if self._frozen:
            return []
        return [
            edge
            for t in self._source_transmitters[source]
            for edge in self._edges_of_transmitter[t]
            if self._receivers[edge[1]] == destination
        ]

    def has_fixed_link(self, source: str, destination: str) -> bool:
        """Whether a direct source→destination link exists."""
        return (source, destination) in self._fixed_links

    def fixed_link_delay(self, source: str, destination: str) -> int:
        """Delay ``d_l`` of the direct source→destination link."""
        try:
            return self._fixed_links[(source, destination)]
        except KeyError:
            raise TopologyError(f"no fixed link between {source!r} and {destination!r}") from None

    def can_route(self, source: str, destination: str) -> bool:
        """Whether *any* path (reconfigurable or fixed) exists for the pair."""
        if (source, destination) in self._candidates:
            return True
        return bool(self.candidate_edges(source, destination)) or self.has_fixed_link(
            source, destination
        )

    # ------------------------------------------------------------------ #
    # aggregate properties / export
    # ------------------------------------------------------------------ #
    def max_path_delay(self) -> int:
        """Maximum over reconfigurable edges of ``d_hat(e)`` (0 if no edges)."""
        best = 0
        for view in self.iter_edge_views():
            best = max(best, view.path_delay)
        return best

    def degree_statistics(self) -> Dict[str, float]:
        """Simple degree statistics of the reconfigurable bipartite graph."""
        t_degrees = [len(v) for v in self._edges_of_transmitter.values()] or [0]
        r_degrees = [len(v) for v in self._transmitters_of_receiver.values()] or [0]
        return {
            "num_transmitters": float(len(self._transmitters)),
            "num_receivers": float(len(self._receivers)),
            "num_edges": float(len(self._edge_delay)),
            "max_transmitter_degree": float(max(t_degrees)),
            "max_receiver_degree": float(max(r_degrees)),
            "mean_transmitter_degree": float(sum(t_degrees)) / max(len(t_degrees), 1),
            "mean_receiver_degree": float(sum(r_degrees)) / max(len(r_degrees), 1),
        }

    def to_networkx(self) -> nx.DiGraph:
        """Export the full four-layer graph as a :class:`networkx.DiGraph`.

        Node attribute ``layer`` is one of ``source``, ``transmitter``,
        ``receiver``, ``destination``; edge attribute ``kind`` is one of
        ``attach``, ``reconfigurable``, ``fixed``; edge attribute ``delay``
        carries the delay.
        """
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        for s in self._sources:
            g.add_node(s, layer="source")
        for d in self._destinations:
            g.add_node(d, layer="destination")
        for t, s in self._transmitters.items():
            g.add_node(t, layer="transmitter")
            g.add_edge(s, t, kind="attach", delay=self._head_delay[t])
        for r, d in self._receivers.items():
            g.add_node(r, layer="receiver")
            g.add_edge(r, d, kind="attach", delay=self._tail_delay[r])
        for (t, r), delay in self._edge_delay.items():
            g.add_edge(t, r, kind="reconfigurable", delay=delay)
        for (s, d), delay in self._fixed_links.items():
            g.add_edge(s, d, kind="fixed", delay=delay)
        return g

    def reconfigurable_bipartite_graph(self) -> nx.Graph:
        """Export only the transmitter–receiver bipartite graph (undirected)."""
        import networkx as nx

        g = nx.Graph(name=f"{self.name}-reconfigurable")
        g.add_nodes_from(self._transmitters, bipartite=0)
        g.add_nodes_from(self._receivers, bipartite=1)
        for (t, r), delay in self._edge_delay.items():
            g.add_edge(t, r, delay=delay)
        return g

    # ------------------------------------------------------------------ #
    # dunder
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TwoTierTopology(name={self.name!r}, sources={len(self._sources)}, "
            f"transmitters={len(self._transmitters)}, receivers={len(self._receivers)}, "
            f"destinations={len(self._destinations)}, edges={len(self._edge_delay)}, "
            f"fixed_links={len(self._fixed_links)})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TwoTierTopology):
            return NotImplemented
        return (
            self._sources == other._sources
            and self._destinations == other._destinations
            and self._transmitters == other._transmitters
            and self._receivers == other._receivers
            and self._edge_delay == other._edge_delay
            and self._fixed_links == other._fixed_links
            and self._head_delay == other._head_delay
            and self._tail_delay == other._tail_delay
        )

    def __hash__(self) -> int:  # topologies are mutable until frozen
        return id(self)
