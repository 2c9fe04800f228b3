"""Tests for repro.experiments (generators, comparison, sweeps, report)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines import standard_baselines
from repro.core import OpportunisticLinkScheduler
from repro.experiments import (
    PolicyComparisonRow,
    compare_policies_on_instance,
    compare_policies_on_suite,
    competitive_ratio_sweep,
    crossbar_instance,
    delay_heterogeneity_sweep,
    format_comparison_table,
    hybrid_fixed_link_sweep,
    hybrid_instance,
    rows_to_csv,
    rows_to_table,
    run_policy,
    small_lp_instances,
    speedup_sweep,
    standard_projector_instances,
    two_tier_sweep,
    write_csv,
)
from repro.exceptions import ExperimentError


@pytest.fixture(scope="module")
def tiny_suite():
    """A reduced instance suite so experiment tests stay fast."""
    return standard_projector_instances(num_racks=4, lasers_per_rack=2, num_packets=40, seed=1)


class TestGenerators:
    def test_standard_suite_names_and_validity(self, tiny_suite):
        assert set(tiny_suite) == {
            "uniform", "zipf", "elephant-mice", "hotspot", "bursty", "incast",
        }
        for instance in tiny_suite.values():
            instance.validate()
            assert instance.num_packets > 0

    def test_standard_suite_deterministic(self):
        a = standard_projector_instances(num_racks=4, num_packets=20, seed=5)
        b = standard_projector_instances(num_racks=4, num_packets=20, seed=5)
        for key in a:
            assert a[key].packets == b[key].packets

    def test_small_lp_instances(self):
        instances = small_lp_instances(num_instances=2, num_packets=6, seed=3)
        assert len(instances) == 2
        for instance in instances.values():
            instance.validate()
            assert len(instance.topology.fixed_links) > 0

    def test_crossbar_instance(self):
        instance = crossbar_instance(num_ports=4, num_packets=30, seed=2)
        instance.validate()
        assert instance.topology.name == "crossbar"

    def test_hybrid_instance(self):
        instance = hybrid_instance(num_racks=4, num_packets=30, fixed_link_delay=3, seed=2)
        instance.validate()
        assert all(d == 3 for d in instance.topology.fixed_links.values())


class TestComparison:
    def test_single_policy_default(self, tiny_suite):
        rows = compare_policies_on_instance(tiny_suite["uniform"])
        assert len(rows) == 1
        assert rows[0].ratio_to_alg == pytest.approx(1.0)

    def test_multiple_policies_normalised_to_alg(self, tiny_suite):
        policies = {"alg": OpportunisticLinkScheduler(), **standard_baselines(seed=0)}
        rows = compare_policies_on_instance(tiny_suite["zipf"], policies)
        assert len(rows) == len(policies)
        alg_row = next(r for r in rows if r.policy == "alg")
        assert alg_row.ratio_to_alg == pytest.approx(1.0)
        assert rows == sorted(rows, key=lambda r: r.total_weighted_latency)

    def test_suite_cross_product(self, tiny_suite):
        two = {k: tiny_suite[k] for k in ("uniform", "incast")}
        policies = {"alg": OpportunisticLinkScheduler()}
        rows = compare_policies_on_suite(two, policies)
        assert {r.instance for r in rows} == {"uniform", "incast"}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_suite_rows_equal_a_per_policy_loop(self, tiny_suite, jobs):
        """One task per instance gives the rows of one run per (instance, policy)."""
        two = {k: tiny_suite[k] for k in ("uniform", "incast")}

        def fresh_policies():
            return {"alg": OpportunisticLinkScheduler(), **standard_baselines(seed=0)}

        expected = []
        for instance in two.values():
            results = {
                name: run_policy(instance, policy)
                for name, policy in fresh_policies().items()
            }
            baseline = results["alg"].total_weighted_latency
            expected.extend(sorted(
                (
                    PolicyComparisonRow(
                        instance=instance.name,
                        policy=name,
                        total_weighted_latency=result.total_weighted_latency,
                        ratio_to_alg=result.total_weighted_latency / baseline,
                        num_slots=result.num_slots,
                        fixed_link_fraction=result.fixed_link_fraction,
                    )
                    for name, result in results.items()
                ),
                key=lambda row: row.total_weighted_latency,
            ))
        assert compare_policies_on_suite(two, fresh_policies(), jobs=jobs) == expected

    def test_one_policy_object_under_two_names_raises(self, tiny_suite):
        alg = OpportunisticLinkScheduler()
        with pytest.raises(ExperimentError, match="distinct policy object"):
            compare_policies_on_instance(tiny_suite["uniform"], {"a": alg, "b": alg})

    def test_format_table(self, tiny_suite):
        rows = compare_policies_on_instance(tiny_suite["uniform"])
        text = format_comparison_table(rows, title="E7")
        assert "E7" in text and "uniform" in text


class TestSweeps:
    def test_competitive_ratio_sweep_within_bounds(self):
        instances = small_lp_instances(num_instances=1, num_packets=8, seed=4)
        rows = competitive_ratio_sweep(instances, epsilons=(1.0, 2.0), use_lp=True)
        assert len(rows) == 2
        assert all(row.within_bound for row in rows)
        assert all(row.empirical_ratio <= row.theoretical_bound for row in rows)

    def test_speedup_sweep_monotone(self):
        instances = small_lp_instances(num_instances=1, num_packets=8, seed=6)
        instance = list(instances.values())[0]
        rows = speedup_sweep(instance, speeds=(1.0, 2.0, 3.0))
        costs = [row.algorithm_cost for row in rows]
        assert costs[0] >= costs[1] >= costs[2]
        # The LP value bounds the *speed-1* optimum, so only the speed-1 run
        # is guaranteed to sit above it; faster runs may beat it.
        assert rows[0].ratio >= 1.0 - 1e-9
        assert rows[0].ratio >= rows[1].ratio >= rows[2].ratio

    def test_delay_heterogeneity_sweep_shape(self):
        policies = {"alg": OpportunisticLinkScheduler()}
        rows = delay_heterogeneity_sweep(
            policies, delay_pools=((1,), (1, 4)), num_packets=30, seed=1
        )
        assert len(rows) == 2
        pools = {row.delay_pool for row in rows}
        assert pools == {"1", "1/4"}

    def test_hybrid_sweep_offload_shrinks_with_delay(self):
        rows = hybrid_fixed_link_sweep(
            fixed_link_delays=(1, 16), num_racks=4, num_packets=60, seed=2
        )
        assert len(rows) == 2
        fast, slow = rows[0], rows[1]
        assert fast.fixed_link_fraction >= slow.fixed_link_fraction
        assert fast.fixed_link_fraction > 0.5  # delay-1 fixed links absorb most traffic

    def test_two_tier_sweep_more_lasers_never_hurt(self):
        rows = two_tier_sweep(lasers_per_rack=(1, 3), num_racks=4, num_packets=60, seed=3)
        assert len(rows) == 2
        assert rows[1].total_weighted_latency <= rows[0].total_weighted_latency


class TestReport:
    def test_rows_to_table_dataclass(self):
        @dataclasses.dataclass
        class Row:
            a: int
            b: float

        text = rows_to_table([Row(1, 2.5), Row(3, 4.5)], title="T")
        assert "T" in text and "2.5" in text

    def test_rows_to_table_empty(self):
        assert rows_to_table([], title="nothing") == "nothing"

    def test_rows_to_csv_and_write(self, tmp_path):
        @dataclasses.dataclass
        class Row:
            a: int
            b: float

        path = write_csv([Row(1, 2.0)], tmp_path / "out.csv")
        assert path.read_text().startswith("a,b")

    def test_mixed_rows_rejected(self):
        @dataclasses.dataclass
        class RowA:
            a: int

        @dataclasses.dataclass
        class RowB:
            b: int

        with pytest.raises(ExperimentError):
            rows_to_table([RowA(1), RowB(2)])

    def test_non_dataclass_rejected(self):
        with pytest.raises(ExperimentError):
            rows_to_csv([object()])

    def test_dict_rows_accepted(self):
        text = rows_to_table([{"x": 1, "y": 2}])
        assert "x" in text and "y" in text
