"""The primal LP relaxation of Figure 3 and its solver.

The LP describes every (fractional, preemptive, migratory) schedule that
transmits all packets while respecting a per-transmitter and per-receiver
capacity of ``capacity`` units of transmission time per slot.  With
``capacity = 1`` its optimum lower-bounds the unaugmented offline optimum;
with ``capacity = 1/(2+ε)`` it lower-bounds the slowed-down OPT that
Theorem 1 compares against (the paper's resource-augmentation model).

Variables
---------
``x[p, e, τ]``
    Fraction of packet ``p`` sent over reconfigurable edge ``e = (t, r)``
    starting at slot ``τ >= a_p``; contributes
    ``w_p · x · (τ + d_hat(e) − a_p)`` to the objective.
``y[p]``
    Fraction of packet ``p`` sent over its direct fixed link (only for
    ``p ∈ Π_l``); contributes ``w_p · d_l(p) · y``.

Objective variants
------------------
The Figure 3 objective (``objective="paper"``, the default) charges every
transmitted fraction the *full* path delay ``d_hat(e)``, i.e. it accounts for
packets as if they complete only when the whole packet would have crossed the
edge.  Under the paper's weighted *fractional* latency (Section II), a
fraction crossing a multi-slot edge is credited as soon as it arrives, so on
topologies with ``d(e) > 1`` the Figure 3 optimum can exceed the fractional
optimum.  For experiments that need a certified lower bound on the fractional
objective (the one the simulator and the algorithm optimise), pass
``objective="fractional"``: each fraction transmitted during slot ``τ`` is
charged ``w_p · x · (τ + 1 + d(r,dest) − a_p)`` and may only be scheduled once
the packet has reached the transmitter (``τ >= a_p + d(src,t)``).  Every
schedule the simulation engine can produce (and every preemptive, migratory
schedule) maps to a feasible solution of this variant with the same cost, so
its optimum is a valid lower bound.  With unit edge delays and zero
attachment delays the two variants coincide.

Constraints
-----------
* every packet is fully transmitted (reconfigurable fractions plus, when
  available, the fixed-link fraction sum to at least 1);
* for every slot and transmitter: ``Σ d(e) · x ≤ capacity``;
* for every slot and receiver: ``Σ d(e) · x ≤ capacity``.

The solver uses :func:`scipy.optimize.linprog` (HiGHS) on sparse matrices;
scipy is imported on first use, so importing this module does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import LPError
from repro.workloads.base import Instance

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["PrimalLP", "LPSolution", "build_primal_lp", "solve_lp_lower_bound"]

#: Key of an x-variable: (packet_id, (transmitter, receiver), slot).
XKey = Tuple[int, Tuple[str, str], int]


@dataclass
class PrimalLP:
    """A fully materialised instance of the Figure 3 LP (standard ``linprog`` form)."""

    instance_name: str
    capacity: float
    horizon: int
    objective_kind: str
    objective: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    x_index: Dict[XKey, int]
    y_index: Dict[int, int]

    @property
    def num_variables(self) -> int:
        """Total number of LP variables."""
        return int(self.objective.size)

    @property
    def num_constraints(self) -> int:
        """Total number of inequality constraints."""
        return int(self.b_ub.size)


@dataclass
class LPSolution:
    """Solution of the Figure 3 LP."""

    objective_value: float
    status: str
    capacity: float
    horizon: int
    num_variables: int
    num_constraints: int
    objective_kind: str = "paper"
    x_values: Dict[XKey, float] = field(default_factory=dict)
    y_values: Dict[int, float] = field(default_factory=dict)

    @property
    def optimal(self) -> bool:
        """Whether the solver reported an optimal solution."""
        return self.status == "optimal"


def build_primal_lp(
    instance: Instance,
    capacity: float = 1.0,
    horizon: Optional[int] = None,
    objective: str = "paper",
) -> PrimalLP:
    """Construct the Figure 3 LP for ``instance`` in ``scipy.linprog`` form.

    Parameters
    ----------
    capacity:
        Per-node transmission-time budget per slot (``1`` for the unaugmented
        optimum, ``1/(2+ε)`` for the paper's slowed-down OPT).
    horizon:
        Last slot at which transmissions may start.  Defaults to the
        instance's work-conserving horizon estimate at speed ``capacity``;
        too small a horizon makes the LP infeasible.
    objective:
        ``"paper"`` for the verbatim Figure 3 objective, ``"fractional"`` for
        the fractional-latency lower-bound variant (see the module docstring).
    """
    from scipy import sparse

    if not 0 < capacity <= 1:
        raise LPError(f"capacity must lie in (0, 1], got {capacity}")
    if objective not in ("paper", "fractional"):
        raise LPError(f"objective must be 'paper' or 'fractional', got {objective!r}")
    if not instance.packets:
        raise LPError("cannot build an LP for an empty instance")
    instance.validate()
    topology = instance.topology
    if horizon is None:
        horizon = instance.horizon_estimate(speed=capacity)
    if horizon < instance.max_arrival:
        raise LPError(
            f"horizon {horizon} is smaller than the latest arrival {instance.max_arrival}"
        )

    x_index: Dict[XKey, int] = {}
    y_index: Dict[int, int] = {}
    objective_coeffs: List[float] = []

    # --- variables -----------------------------------------------------
    for packet in instance.packets:
        edges = topology.candidate_edges(packet.source, packet.destination)
        for (t, r) in edges:
            d_hat = topology.path_delay(t, r)
            head = topology.head_delay(t)
            tail = topology.tail_delay(r)
            first_slot = packet.arrival if objective == "paper" else packet.arrival + head
            for tau in range(first_slot, horizon + 1):
                x_index[(packet.packet_id, (t, r), tau)] = len(objective_coeffs)
                if objective == "paper":
                    coeff = packet.weight * (tau + d_hat - packet.arrival)
                else:
                    coeff = packet.weight * (tau + 1 + tail - packet.arrival)
                objective_coeffs.append(coeff)
        if topology.has_fixed_link(packet.source, packet.destination):
            y_index[packet.packet_id] = len(objective_coeffs)
            objective_coeffs.append(
                packet.weight * topology.fixed_link_delay(packet.source, packet.destination)
            )

    num_vars = len(objective_coeffs)
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    b_ub: List[float] = []

    def add_entry(row: int, col: int, value: float) -> None:
        rows.append(row)
        cols.append(col)
        vals.append(value)

    # --- coverage constraints:  -(Σ x + y) <= -1 ------------------------
    row = 0
    packet_columns: Dict[int, List[int]] = {}
    for (pid, _edge, _tau), col in x_index.items():
        packet_columns.setdefault(pid, []).append(col)
    for packet in instance.packets:
        any_var = False
        for col in packet_columns.get(packet.packet_id, ()):
            add_entry(row, col, -1.0)
            any_var = True
        if packet.packet_id in y_index:
            add_entry(row, y_index[packet.packet_id], -1.0)
            any_var = True
        if not any_var:  # pragma: no cover - instance.validate() prevents this
            raise LPError(f"packet {packet.packet_id} has no variables")
        b_ub.append(-1.0)
        row += 1

    # --- capacity constraints -------------------------------------------
    # Group the x-variables by (transmitter, slot) and by (receiver, slot).
    tx_rows: Dict[Tuple[str, int], int] = {}
    rx_rows: Dict[Tuple[str, int], int] = {}
    for (pid, (t, r), tau), col in x_index.items():
        delay = topology.edge_delay(t, r)
        key_t = (t, tau)
        if key_t not in tx_rows:
            tx_rows[key_t] = row
            b_ub.append(capacity)
            row += 1
        add_entry(tx_rows[key_t], col, float(delay))
        key_r = (r, tau)
        if key_r not in rx_rows:
            rx_rows[key_r] = row
            b_ub.append(capacity)
            row += 1
        add_entry(rx_rows[key_r], col, float(delay))

    a_ub = sparse.coo_matrix((vals, (rows, cols)), shape=(row, num_vars)).tocsr()
    return PrimalLP(
        instance_name=instance.name,
        capacity=capacity,
        horizon=horizon,
        objective_kind=objective,
        objective=np.asarray(objective_coeffs, dtype=float),
        a_ub=a_ub,
        b_ub=np.asarray(b_ub, dtype=float),
        x_index=x_index,
        y_index=y_index,
    )


def solve_lp_lower_bound(
    instance: Instance,
    capacity: float = 1.0,
    horizon: Optional[int] = None,
    keep_solution: bool = False,
    value_threshold: float = 1e-9,
    objective: str = "paper",
) -> LPSolution:
    """Solve the Figure 3 LP and return its optimum (a lower bound on OPT).

    Use ``objective="fractional"`` whenever the value is compared against the
    simulator's fractional-latency costs on topologies with edge delays above
    1 (see the module docstring).

    Parameters
    ----------
    capacity, horizon, objective:
        See :func:`build_primal_lp`.
    keep_solution:
        When set, the nonzero primal variable values are returned as well
        (useful for inspecting what the fractional optimum does).
    value_threshold:
        Variables below this magnitude are dropped from the returned solution.

    Raises
    ------
    LPError
        If the LP cannot be built or the solver does not reach optimality.
    """
    from scipy.optimize import linprog

    lp = build_primal_lp(instance, capacity=capacity, horizon=horizon, objective=objective)
    result = linprog(
        c=lp.objective,
        A_ub=lp.a_ub,
        b_ub=lp.b_ub,
        bounds=(0, None),
        method="highs",
    )
    status = "optimal" if result.status == 0 else result.message
    if result.status != 0:
        raise LPError(
            f"LP for instance {instance.name!r} did not solve to optimality: {result.message} "
            f"(horizon={lp.horizon}, capacity={capacity}); "
            "a larger horizon usually fixes infeasibility"
        )
    solution = LPSolution(
        objective_value=float(result.fun),
        status=status,
        capacity=capacity,
        horizon=lp.horizon,
        num_variables=lp.num_variables,
        num_constraints=lp.num_constraints,
        objective_kind=objective,
    )
    if keep_solution:
        values = np.asarray(result.x)
        for key, col in lp.x_index.items():
            if values[col] > value_threshold:
                solution.x_values[key] = float(values[col])
        for pid, col in lp.y_index.items():
            if values[col] > value_threshold:
                solution.y_values[pid] = float(values[col])
    return solution
