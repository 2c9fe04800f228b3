"""Named policy combinations used by the experiments.

The paper's algorithm is the pair (impact dispatcher, stable-matching
scheduler).  The factories here build the comparison policies of experiment
E7 and the ablation policies that swap exactly one of the two components, so
the contribution of each can be measured separately.
"""

from __future__ import annotations

from typing import Dict

from repro.baselines.dispatchers import (
    DirectFirstDispatcher,
    LeastLoadedDispatcher,
    RandomDispatcher,
    ShortestPathDispatcher,
)
from repro.baselines.schedulers import (
    FIFOScheduler,
    ISLIPScheduler,
    MaxWeightMatchingScheduler,
    RandomOrderScheduler,
)
from repro.core.algorithm import OpportunisticLinkScheduler
from repro.core.dispatcher import ImpactDispatcher
from repro.core.interfaces import Policy
from repro.core.scheduler import StableMatchingScheduler
from repro.utils.rng import RngLike

__all__ = [
    "make_fifo_policy",
    "make_random_policy",
    "make_maxweight_policy",
    "make_islip_policy",
    "make_direct_first_policy",
    "make_least_loaded_stable_policy",
    "make_impact_fifo_policy",
    "make_shortest_path_policy",
    "standard_baselines",
    "ablation_policies",
    "all_policies",
]


def make_fifo_policy() -> Policy:
    """Join-the-shortest-queue dispatch with FIFO greedy matching."""
    return Policy("fifo", LeastLoadedDispatcher(), FIFOScheduler())


def make_random_policy(seed: RngLike = 0) -> Policy:
    """Uniformly random dispatch with random-order greedy matching."""
    return Policy("random", RandomDispatcher(seed=seed), RandomOrderScheduler(seed=seed))


def make_maxweight_policy(mode: str = "max") -> Policy:
    """Join-the-shortest-queue dispatch with per-slot maximum-weight matching."""
    return Policy(f"maxweight({mode})", LeastLoadedDispatcher(), MaxWeightMatchingScheduler(mode))


def make_islip_policy(iterations: int = 3) -> Policy:
    """Join-the-shortest-queue dispatch with iSLIP round-robin matching."""
    return Policy("islip", LeastLoadedDispatcher(), ISLIPScheduler(iterations=iterations))


def make_direct_first_policy() -> Policy:
    """Fixed-link-first dispatch with stable-matching scheduling of the rest."""
    return Policy("direct-first", DirectFirstDispatcher(), StableMatchingScheduler())


def make_shortest_path_policy() -> Policy:
    """Queue-oblivious shortest-path dispatch with stable-matching scheduling."""
    return Policy("shortest-path", ShortestPathDispatcher(), StableMatchingScheduler())


def make_least_loaded_stable_policy() -> Policy:
    """Ablation: paper's scheduler with the least-loaded dispatcher."""
    return Policy("least-loaded+stable", LeastLoadedDispatcher(), StableMatchingScheduler())


def make_impact_fifo_policy() -> Policy:
    """Ablation: paper's dispatcher with a FIFO scheduler."""
    return Policy("impact+fifo", ImpactDispatcher(), FIFOScheduler())


def standard_baselines(seed: RngLike = 0) -> Dict[str, Policy]:
    """The baseline set of experiment E7 (does not include the paper's ALG)."""
    return {
        "fifo": make_fifo_policy(),
        "random": make_random_policy(seed=seed),
        "maxweight": make_maxweight_policy(),
        "islip": make_islip_policy(),
        "shortest-path": make_shortest_path_policy(),
    }


def ablation_policies() -> Dict[str, Policy]:
    """Single-component swaps isolating the dispatcher and the scheduler."""
    return {
        "least-loaded+stable": make_least_loaded_stable_policy(),
        "impact+fifo": make_impact_fifo_policy(),
    }


def all_policies(seed: RngLike = 0, include_direct_first: bool = False) -> Dict[str, Policy]:
    """ALG plus every baseline and ablation policy, keyed by name."""
    policies: Dict[str, Policy] = {"alg": OpportunisticLinkScheduler()}
    policies.update(standard_baselines(seed=seed))
    policies.update(ablation_policies())
    if include_direct_first:
        policies["direct-first"] = make_direct_first_policy()
    return policies
