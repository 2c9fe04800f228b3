"""Packet-weight distributions.

The paper treats packet weights as given (they encode flow priority or, after
the standard reduction, the per-unit weight of a larger flow).  The
experimental evaluation uses several weight models commonly assumed for
datacenter traffic: constant, uniform, Pareto-like heavy-tailed, and the
bimodal elephant/mice split.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.exceptions import WorkloadError

__all__ = [
    "WeightSampler",
    "constant_weights",
    "uniform_weights",
    "pareto_weights",
    "bimodal_weights",
]

#: A weight sampler maps a Generator to one positive float sample.
WeightSampler = Callable[[np.random.Generator], float]


def constant_weights(value: float = 1.0) -> WeightSampler:
    """All packets share the same positive weight ``value``."""
    if value <= 0:
        raise WorkloadError(f"weight must be positive, got {value}")

    def sample(_rng: np.random.Generator) -> float:
        return float(value)

    return sample


def uniform_weights(low: float = 1.0, high: float = 10.0) -> WeightSampler:
    """Weights drawn uniformly from ``[low, high]``."""
    if not 0 < low <= high:
        raise WorkloadError(f"need 0 < low <= high, got low={low}, high={high}")

    def sample(rng: np.random.Generator) -> float:
        return float(rng.uniform(low, high))

    return sample


def pareto_weights(shape: float = 1.5, scale: float = 1.0, cap: float = 1000.0) -> WeightSampler:
    """Heavy-tailed weights ``scale · (1 + Pareto(shape))`` capped at ``cap``.

    Models the skewed flow-size distributions reported for datacenter traffic
    (a few very heavy elephants, many light mice).
    """
    if shape <= 0 or scale <= 0 or cap <= 0:
        raise WorkloadError("pareto shape, scale and cap must be positive")

    def sample(rng: np.random.Generator) -> float:
        return float(min(scale * (1.0 + rng.pareto(shape)), cap))

    return sample


def bimodal_weights(
    heavy_weight: float = 20.0,
    light_weight: float = 1.0,
    heavy_fraction: float = 0.1,
) -> WeightSampler:
    """Elephant/mice mixture: weight ``heavy_weight`` with prob. ``heavy_fraction``."""
    if heavy_weight <= 0 or light_weight <= 0:
        raise WorkloadError("weights must be positive")
    if not 0 <= heavy_fraction <= 1:
        raise WorkloadError(f"heavy_fraction must lie in [0,1], got {heavy_fraction}")

    def sample(rng: np.random.Generator) -> float:
        return float(heavy_weight if rng.random() < heavy_fraction else light_weight)

    return sample
