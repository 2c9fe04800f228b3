"""Baseline per-slot schedulers.

All schedulers consume the same :class:`~repro.core.queues.PendingChunkPool`
as the paper's stable-matching scheduler and must return a matching of
eligible pending chunks.  They quantify the value of the stable-matching
(weight-ordered) rule against classic alternatives:

* FIFO greedy matching (arrival-ordered instead of weight-ordered);
* maximum-weight matching recomputed every slot (the throughput-optimal
  crossbar schedule): an exact tree DP when the slot graph is a forest
  with a unique optimum, networkx's blossom for cyclic or tied graphs;
* iSLIP-style iterative round-robin matching (the de-facto standard in
  commercial input-queued switches);
* random-order greedy matching.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.core.interfaces import Scheduler
from repro.core.packet import Chunk
from repro.core.queues import PendingChunkPool
from repro.core.scheduler import OrderedGreedyScheduler
from repro.network.topology import TwoTierTopology
from repro.utils.ordering import chunk_fifo_key
from repro.utils.rng import RngLike, as_rng

__all__ = [
    "FIFOScheduler",
    "RandomOrderScheduler",
    "MaxWeightMatchingScheduler",
    "ISLIPScheduler",
]

_KEY = attrgetter("key")
#: a node of a slot graph: ``("T", transmitter)`` or ``("R", receiver)``
_Node = Tuple[str, str]


def _iter_eligible(pool: PendingChunkPool, now: int):
    """Iterate the eligible chunks of ``pool`` without materialising a list.

    MaxWeight and iSLIP only bucket the eligible chunks by edge, so they can
    stream straight off the pool's eligible partition; minimal pool stand-ins
    (the differential harness's naive pool) fall back to the materialised
    query.
    """
    iter_eligible = getattr(pool, "iter_eligible", None)
    if iter_eligible is not None:
        return iter_eligible(now)
    return pool.eligible_chunks(now)


class FIFOScheduler(OrderedGreedyScheduler):
    """Greedy matching in arrival order (oldest chunk first).

    This is the natural work-conserving policy a weight-oblivious system
    would use; comparing it against the stable-matching scheduler isolates
    the benefit of weight-aware ordering.
    """

    name = "fifo"

    def __init__(self) -> None:
        super().__init__(key=chunk_fifo_key, name=self.name)


class RandomOrderScheduler(Scheduler):
    """Greedy matching in a fresh uniformly random chunk order each slot.

    The order (and so the returned list) follows the seeded RNG over the
    pool's priority-ordered eligible list.
    """

    name = "random-order"

    def __init__(self, seed: RngLike = None) -> None:
        self._seed = seed
        self._rng = as_rng(seed)

    def reset(self) -> None:
        """Re-seed so repeated runs are identical."""
        self._rng = as_rng(self._seed)

    def select_matching(
        self, pool: PendingChunkPool, topology: TwoTierTopology, now: int
    ) -> List[Chunk]:
        eligible = pool.eligible_chunks(now)
        order = self._rng.permutation(len(eligible))
        selected: List[Chunk] = []
        used_t: set[str] = set()
        used_r: set[str] = set()
        for idx in order:
            chunk = eligible[int(idx)]
            if chunk.transmitter in used_t or chunk.receiver in used_r:
                continue
            selected.append(chunk)
            used_t.add(chunk.transmitter)
            used_r.add(chunk.receiver)
        return selected


#: relative margin (of the graph's total weight) below which two options of
#: the forest DP count as tied; far above the rounding of either solver's
#: float sums, so a shortcut answer is never a rounding artefact
_TIE_MARGIN = 1e-9


def _forest_matching(
    edge_weight: Dict[Tuple[str, str], float]
) -> Optional[List[Tuple[str, str]]]:
    """The maximum-weight matching of a forest, or ``None`` if not unique here.

    ``edge_weight`` maps ``(transmitter, receiver)`` edges of a bipartite
    graph to positive weights.  If every component is a tree, a bottom-up
    DP solves it exactly: a node's *gain* is the most it adds by being
    matched to one of its children rather than left free, ``max(0,
    max_c(w(v, c) - gain(c)))``.  Any node whose best and second-best
    options tie (within ``_TIE_MARGIN`` of the total weight), or a graph
    with a cycle, returns ``None`` so the caller can run the blossom
    instead.  Otherwise the optimum is strictly unique, so it is the set
    every exact solver (networkx included) returns.
    """
    adjacency: Dict[_Node, List[Tuple[_Node, float]]] = {}
    total = 0.0
    for (t, r), weight in edge_weight.items():
        # Prefix node names to keep the two sides disjoint even if a
        # transmitter and receiver share a name.
        tx, rx = ("T", t), ("R", r)
        adjacency.setdefault(tx, []).append((rx, weight))
        adjacency.setdefault(rx, []).append((tx, weight))
        total += weight

    # Breadth-first order, parents before children, one tree at a time.
    parent: Dict[_Node, Optional[_Node]] = {}
    order: List[_Node] = []
    trees = 0
    for root in adjacency:
        if root in parent:
            continue
        trees += 1
        parent[root] = None
        head = len(order)
        order.append(root)
        while head < len(order):
            node = order[head]
            head += 1
            for other, _weight in adjacency[node]:
                if other not in parent:
                    parent[other] = node
                    order.append(other)
    if len(edge_weight) != len(order) - trees:
        return None  # a cycle

    margin = total * _TIE_MARGIN
    gain: Dict[_Node, float] = {}
    pick: Dict[_Node, _Node] = {}
    for node in reversed(order):
        up = parent[node]
        best, second, choice = 0.0, None, None  # leaving the node free
        for child, weight in adjacency[node]:
            if child == up:
                continue
            option = weight - gain[child]
            if option > best:
                best, second, choice = option, best, child
            elif second is None or option > second:
                second = option
        if second is not None and best - second <= margin:
            return None  # tied options: leave the choice to the blossom
        gain[node] = best
        if choice is not None:
            pick[node] = choice

    matching: List[Tuple[str, str]] = []
    taken = set()
    for node in order:
        if node in taken or node not in pick:
            continue
        child = pick[node]
        taken.add(child)
        if node[0] == "T":
            matching.append((node[1], child[1]))
        else:
            matching.append((child[1], node[1]))
    return matching


def _blossom_matching(edge_weight: Dict[Tuple[str, str], float]) -> List[Tuple[str, str]]:
    """The maximum-weight matching by networkx's blossom (any graph, any ties)."""
    import networkx as nx

    graph = nx.Graph()
    for (t, r), weight in edge_weight.items():
        graph.add_edge(("T", t), ("R", r), weight=weight)
    matching = nx.algorithms.matching.max_weight_matching(graph, maxcardinality=False)
    return [(a[1], b[1]) if a[0] == "T" else (b[1], a[1]) for a, b in matching]


class MaxWeightMatchingScheduler(Scheduler):
    """Maximum-weight matching over the pending-chunk bipartite graph.

    Each slot, the transmitter–receiver graph is built with one edge per
    reconfigurable edge that has at least one eligible chunk; the edge weight
    is either the heaviest eligible chunk (``mode="max"``, the classic
    MaxWeight policy on per-edge virtual output queues) or the total eligible
    weight (``mode="sum"``).  The maximum-weight matching comes from an exact
    forest DP (:func:`_forest_matching`) when the graph is a forest with a
    unique optimum, and otherwise, for cyclic or tied graphs, from
    :func:`networkx.algorithms.matching.max_weight_matching`; both give the
    same set wherever the DP answers.  The highest-priority chunk of each
    matched edge is transmitted, and the matching is returned in priority
    (``Chunk.key``) order, independent of ``PYTHONHASHSEED``.
    """

    name = "max-weight-matching"

    def __init__(self, mode: str = "max") -> None:
        if mode not in ("max", "sum"):
            raise ValueError(f"mode must be 'max' or 'sum', got {mode!r}")
        self.mode = mode
        self.name = f"max-weight-matching({mode})"

    def select_matching(
        self, pool: PendingChunkPool, topology: TwoTierTopology, now: int
    ) -> List[Chunk]:
        best_chunk: Dict[Tuple[str, str], Chunk] = {}
        edge_weight: Dict[Tuple[str, str], float] = {}
        add_up = self.mode == "sum"
        for chunk in _iter_eligible(pool, now):
            edge = chunk.edge
            best = best_chunk.get(edge)
            if best is None or chunk.key < best.key:
                best_chunk[edge] = chunk
            weight = edge_weight.get(edge, 0.0)
            edge_weight[edge] = weight + chunk.weight if add_up else max(weight, chunk.weight)
        if not edge_weight:
            return []
        matching = _forest_matching(edge_weight)
        if matching is None:
            matching = _blossom_matching(edge_weight)
        return sorted((best_chunk[edge] for edge in matching), key=_KEY)


class ISLIPScheduler(Scheduler):
    """iSLIP-style iterative round-robin matching (McKeown 1999), adapted to chunks.

    Each reconfigurable edge with eligible chunks acts as a virtual output
    queue.  In every iteration, unmatched transmitters request all receivers
    for which they hold eligible chunks; each receiver grants to the first
    requesting transmitter at or after its grant pointer; each transmitter
    accepts the first granting receiver at or after its accept pointer.
    Pointers advance past an accepted partner only for grants accepted in the
    first iteration (the standard desynchronisation rule).  The oldest
    eligible chunk on each matched edge is transmitted, listed in the dict
    insertion order of the matched transmitters (sorted names, then the
    pool's eligible order), so no ``set`` order leaks into the output.
    """

    name = "islip"

    def __init__(self, iterations: int = 3) -> None:
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        self.iterations = iterations
        self._grant_pointer: Dict[str, int] = {}
        self._accept_pointer: Dict[str, int] = {}

    def reset(self) -> None:
        """Reset the round-robin pointers."""
        self._grant_pointer = {}
        self._accept_pointer = {}

    @staticmethod
    def _oldest(chunks: List[Chunk]) -> Chunk:
        return min(chunks, key=chunk_fifo_key)

    def select_matching(
        self, pool: PendingChunkPool, topology: TwoTierTopology, now: int
    ) -> List[Chunk]:
        by_edge: Dict[Tuple[str, str], List[Chunk]] = {}
        for chunk in _iter_eligible(pool, now):
            by_edge.setdefault(chunk.edge, []).append(chunk)
        if not by_edge:
            return []

        transmitters = sorted({t for (t, _r) in by_edge})
        receivers = sorted({r for (_t, r) in by_edge})
        t_index = {t: i for i, t in enumerate(transmitters)}
        r_index = {r: i for i, r in enumerate(receivers)}
        requests_by_t: Dict[str, List[str]] = {}
        for (t, r) in by_edge:
            requests_by_t.setdefault(t, []).append(r)

        matched_t: Dict[str, str] = {}
        matched_r: Dict[str, str] = {}

        for iteration in range(self.iterations):
            # Request phase: every unmatched transmitter requests all receivers
            # of its non-empty VOQs that are still unmatched.
            grants: Dict[str, List[str]] = {}
            for t in transmitters:
                if t in matched_t:
                    continue
                for r in requests_by_t.get(t, ()):
                    if r in matched_r:
                        continue
                    grants.setdefault(r, []).append(t)

            # Grant phase: each receiver grants to the first requester at or
            # after its pointer (in transmitter index order).
            accepts: Dict[str, List[str]] = {}
            for r, requesters in grants.items():
                pointer = self._grant_pointer.get(r, 0) % max(len(transmitters), 1)
                chosen = min(
                    requesters, key=lambda t: ((t_index[t] - pointer) % len(transmitters), t)
                )
                accepts.setdefault(chosen, []).append(r)

            # Accept phase: each transmitter accepts the first granting
            # receiver at or after its pointer.
            newly_matched = []
            for t, granting in accepts.items():
                pointer = self._accept_pointer.get(t, 0) % max(len(receivers), 1)
                chosen = min(
                    granting, key=lambda r: ((r_index[r] - pointer) % len(receivers), r)
                )
                matched_t[t] = chosen
                matched_r[chosen] = t
                newly_matched.append((t, chosen))

            if iteration == 0:
                for (t, r) in newly_matched:
                    self._grant_pointer[r] = (t_index[t] + 1) % len(transmitters)
                    self._accept_pointer[t] = (r_index[r] + 1) % len(receivers)
            if not newly_matched:
                break

        return [self._oldest(by_edge[(t, r)]) for t, r in matched_t.items()]
