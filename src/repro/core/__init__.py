"""The paper's primary contribution: online two-tier link scheduling.

This subpackage contains the data model (packets, chunks, assignments), the
policy interfaces, the worst-case-impact dispatcher, the greedy
stable-matching scheduler, and the combined algorithm ALG.
"""

from repro.core.algorithm import (
    OpportunisticLinkScheduler,
    make_paper_policy,
    theoretical_competitive_ratio,
)
from repro.core.dispatcher import (
    EdgeImpact,
    ImpactDispatcher,
    SharedDispatchMemo,
    compute_edge_impact,
)
from repro.core.impact_index import ImpactIndex
from repro.core.interfaces import Dispatcher, Policy, Scheduler
from repro.core.matching_index import MatchingIndex
from repro.core.packet import (
    Assignment,
    Chunk,
    EdgeAssignment,
    FixedLinkAssignment,
    Packet,
    split_into_chunks,
)
from repro.core.queues import PendingChunkPool
from repro.core.scheduler import OrderedGreedyScheduler, StableMatchingScheduler
from repro.core.stable_matching import (
    blocking_chunk,
    greedy_stable_matching,
    greedy_stable_matching_on_edges,
    is_chunk_matching,
    is_stable_edge_matching,
    is_stable_matching,
)

__all__ = [
    "Packet",
    "Chunk",
    "Assignment",
    "EdgeAssignment",
    "FixedLinkAssignment",
    "split_into_chunks",
    "PendingChunkPool",
    "Dispatcher",
    "Scheduler",
    "Policy",
    "ImpactDispatcher",
    "ImpactIndex",
    "MatchingIndex",
    "SharedDispatchMemo",
    "EdgeImpact",
    "compute_edge_impact",
    "StableMatchingScheduler",
    "OrderedGreedyScheduler",
    "OpportunisticLinkScheduler",
    "make_paper_policy",
    "theoretical_competitive_ratio",
    "greedy_stable_matching",
    "greedy_stable_matching_on_edges",
    "is_stable_matching",
    "is_stable_edge_matching",
    "is_chunk_matching",
    "blocking_chunk",
]
