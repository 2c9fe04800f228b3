"""Cold start: scipy and networkx load only where they are used.

ALG, the workloads and the whole set-up path need neither library; only the
Figure 3 LP bound needs scipy, and only MaxWeight's blossom fallback and the
topology export helpers need networkx.  Each check runs in a fresh
interpreter, so modules imported by the rest of the suite cannot hide an
eager import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

HEAVY = ("scipy", "networkx")


def run_fresh(script: str) -> dict:
    """Run ``script`` in a new interpreter and parse the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "module", ["repro", "repro.cli", "repro.scenarios", "repro.experiments", "repro.analysis"]
)
def test_import_loads_neither_scipy_nor_networkx(module):
    loaded = run_fresh(
        f"""
        import importlib, json, sys
        importlib.import_module({module!r})
        print(json.dumps(sorted(m for m in {HEAVY!r} if m in sys.modules)))
        """
    )
    assert loaded == []


def test_lp_lower_bound_loads_scipy_on_demand():
    result = run_fresh(
        """
        import json, sys
        from repro.analysis import solve_lp_lower_bound
        from repro.workloads import figure1_instance
        before = "scipy" in sys.modules
        value = solve_lp_lower_bound(figure1_instance(), capacity=1.0).objective_value
        print(json.dumps({"before": before, "after": "scipy" in sys.modules, "value": value}))
        """
    )
    assert result["before"] is False and result["after"] is True
    assert result["value"] == pytest.approx(7.0, abs=1e-6)


def test_cyclic_maxweight_slot_loads_networkx_on_demand():
    # A 4-cycle slot graph: the forest shortcut declines, the blossom answers.
    result = run_fresh(
        """
        import json, sys
        from repro.baselines import MaxWeightMatchingScheduler
        from repro.baselines.schedulers import _forest_matching
        from repro.core import Packet
        from repro.core.packet import split_into_chunks
        from repro.core.queues import PendingChunkPool
        from repro.network import single_tier_crossbar

        weights = {("t0", "r0"): 1.0, ("t0", "r1"): 2.0, ("t1", "r0"): 3.0, ("t1", "r1"): 5.0}
        pool = PendingChunkPool()
        for pid, ((t, r), weight) in enumerate(weights.items()):
            packet = Packet(pid, "s", "d", weight=weight, arrival=1)
            pool.add(split_into_chunks(packet, t, r, edge_delay=1)[0])
        before = "networkx" in sys.modules
        shortcut = _forest_matching(weights)
        chunks = MaxWeightMatchingScheduler().select_matching(pool, single_tier_crossbar(2), 1)
        print(json.dumps({
            "before": before,
            "after": "networkx" in sys.modules,
            "shortcut": shortcut,
            "edges": sorted(list(chunk.edge) for chunk in chunks),
        }))
        """
    )
    assert result["before"] is False and result["after"] is True
    assert result["shortcut"] is None
    assert result["edges"] == [["t0", "r0"], ["t1", "r1"]]


def test_topology_exports_load_networkx_on_demand():
    result = run_fresh(
        """
        import json, sys
        from repro.network import figure1_topology
        topo = figure1_topology()
        before = "networkx" in sys.modules
        graph = topo.to_networkx()
        bipartite = topo.reconfigurable_bipartite_graph()
        print(json.dumps({
            "before": before,
            "after": "networkx" in sys.modules,
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "bipartite_edges": bipartite.number_of_edges(),
        }))
        """
    )
    assert result["before"] is False and result["after"] is True
    # 2 sources + 3 transmitters + 4 receivers + 3 destinations; 3 + 4
    # attachment edges, 5 reconfigurable edges and 1 fixed link.
    assert result["nodes"] == 12
    assert result["edges"] == 13
    assert result["bipartite_edges"] == 5
