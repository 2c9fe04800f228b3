"""Construction of the dual solution of Figure 4 from a simulation run.

Section IV-B of the paper defines the dual assignment used by the analysis:

* ``α_p`` is the worst-case impact estimated by the dispatcher when packet
  ``p`` arrived (``Δ_p(e_p)`` for packets routed over the reconfigurable
  network, ``w_p · d_l(p)`` for fixed-link packets) — the simulation engine
  records exactly this value on every assignment;
* ``β_{t,τ}`` (resp. ``β_{r,τ}``) is the total weight of chunks assigned to an
  edge incident to transmitter ``t`` (receiver ``r``) that have arrived but
  not yet reached their destination at slot ``τ``.

The dual objective for augmentation parameter ``ε`` is

.. math::

    D = Σ_p α_p − \\frac{1}{2+ε} ( Σ_{t,τ} β_{t,τ} + Σ_{r,τ} β_{r,τ} ).

Halving every variable yields a feasible dual solution (Lemma 5), whose value
is therefore a valid lower bound on the slowed-down OPT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.exceptions import AnalysisError
from repro.simulation.results import SimulationResult

__all__ = ["DualSolution", "build_dual_solution"]


@dataclass
class DualSolution:
    """The paper's dual assignment extracted from one simulation run."""

    alphas: Dict[int, float]
    beta_transmitter: Dict[Tuple[str, int], float]
    beta_receiver: Dict[Tuple[str, int], float]
    max_slot: int

    # ------------------------------------------------------------------ #
    @property
    def total_alpha(self) -> float:
        """``Σ_p α_p``."""
        return sum(self.alphas.values())

    @property
    def total_beta_transmitter(self) -> float:
        """``Σ_t Σ_τ β_{t,τ}``."""
        return sum(self.beta_transmitter.values())

    @property
    def total_beta_receiver(self) -> float:
        """``Σ_r Σ_τ β_{r,τ}``."""
        return sum(self.beta_receiver.values())

    def beta_t(self, transmitter: str, slot: int) -> float:
        """``β_{t,τ}`` (0 when no chunk assigned to ``t`` is active at ``τ``)."""
        return self.beta_transmitter.get((transmitter, slot), 0.0)

    def beta_r(self, receiver: str, slot: int) -> float:
        """``β_{r,τ}``."""
        return self.beta_receiver.get((receiver, slot), 0.0)

    def objective(self, epsilon: float, scale: float = 1.0) -> float:
        """Dual objective with every variable multiplied by ``scale``.

        ``scale = 1`` gives the raw (possibly infeasible) assignment of
        Section IV-B; ``scale = 0.5`` gives the provably feasible halved
        solution of Lemma 5.
        """
        if epsilon <= 0:
            raise AnalysisError(f"epsilon must be > 0, got {epsilon}")
        beta_sum = self.total_beta_transmitter + self.total_beta_receiver
        return scale * (self.total_alpha - beta_sum / (2.0 + epsilon))

    def feasible_lower_bound(self, epsilon: float) -> float:
        """The Lemma 5 lower bound on the slowed-down OPT: the halved objective."""
        return self.objective(epsilon, scale=0.5)


def build_dual_solution(result: SimulationResult) -> DualSolution:
    """Extract the Section IV-B dual assignment from ``result``.

    Requires a completed run (every chunk delivered); the ``β`` variables are
    reconstructed from each chunk's active interval ``[a_p, delivery_time)``.
    """
    alphas: Dict[int, float] = {}
    beta_t: Dict[Tuple[str, int], float] = {}
    beta_r: Dict[Tuple[str, int], float] = {}
    max_slot = 0

    for record in result:
        alphas[record.packet.packet_id] = record.alpha
        if record.used_fixed_link:
            continue
        arrival = record.packet.arrival
        for chunk in record.chunks:
            if chunk.delivery_time is None:
                raise AnalysisError(
                    f"chunk {chunk!r} was never delivered; dual construction needs a "
                    "completed run"
                )
            end = int(math.ceil(chunk.delivery_time))
            for slot in range(arrival, end):
                beta_t[(chunk.transmitter, slot)] = (
                    beta_t.get((chunk.transmitter, slot), 0.0) + chunk.weight
                )
                beta_r[(chunk.receiver, slot)] = (
                    beta_r.get((chunk.receiver, slot), 0.0) + chunk.weight
                )
            max_slot = max(max_slot, end)

    return DualSolution(
        alphas=alphas,
        beta_transmitter=beta_t,
        beta_receiver=beta_r,
        max_slot=max_slot,
    )
