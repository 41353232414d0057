import math
import random

from hypothesis import given, strategies as st

from carbonledger.model import (
    AnnualIntensityRecord,
    Bundle,
    CarbonIntensityRecord,
    ClusterTopology,
    GcuUsageRecord,
    MachineRecord,
    PueRecord,
    ResourceAllocationRecord,
    ResourceVector,
    Sharing,
    SkuRecord,
    SkuUsageRecord,
    ZoneMapRow,
    format_hour,
    parse_hour,
    validate_bundle,
    validate_fleet,
)

from conftest import H, dedicated_machine, sample, shared_machine


def test_parse_and_format_hour_roundtrip():
    text = "2023-09-18T14:00Z"
    assert format_hour(parse_hour(text)) == text


def test_well_formed_fleet_has_no_violations(topology_one_cluster):
    machines = [dedicated_machine("m0"), shared_machine("m1")]
    samples = [sample("m0", 0, 50.0), sample("m1", 0, 80.0)]
    assert validate_fleet(machines, samples, topology_one_cluster) == []


def test_dedicated_machine_without_owner_flagged(topology_one_cluster):
    machine = MachineRecord("m0", "c0", Sharing.DEDICATED, None, 10.0)
    report = validate_fleet([machine], [], topology_one_cluster)
    assert [v.code for v in report] == ["missing-owner"]


def test_duplicate_sample_flagged(topology_one_cluster):
    machines = [shared_machine("m0")]
    samples = [sample("m0", 0, 10.0), sample("m0", 0, 12.0)]
    report = validate_fleet(machines, samples, topology_one_cluster)
    assert [v.code for v in report] == ["duplicate-sample"]


def test_unknown_cluster_and_negative_values_flagged(topology_one_cluster):
    machines = [
        MachineRecord("m0", "nowhere", Sharing.SHARED, None, 5.0),
        MachineRecord("m1", "c0", Sharing.SHARED, None, -1.0),
    ]
    samples = [sample("m1", 0, -3.0)]
    codes = {v.code for v in validate_fleet(machines, samples, topology_one_cluster)}
    assert codes == {"unknown-cluster", "negative-value"}


def test_dangling_gcu_usage_reference_flagged(topology_one_cluster):
    machines = [shared_machine("m0")]
    usage = [GcuUsageRecord("alice", "ghost", H(0), 1.0)]
    report = validate_fleet(machines, [], topology_one_cluster, usage)
    assert [(v.code, v.subject) for v in report] == [("unknown-machine", "ghost")]


def test_owner_on_shared_machine_flagged(topology_one_cluster):
    machine = MachineRecord("m0", "c0", Sharing.SHARED, "alice", 5.0)
    report = validate_fleet([machine], [], topology_one_cluster)
    assert [v.code for v in report] == ["owner-on-shared"]


@given(st.randoms(use_true_random=False))
def test_validate_fleet_is_order_insensitive_and_idempotent(rng: random.Random):
    machines = [
        dedicated_machine("m0"),
        MachineRecord("m1", "c0", Sharing.DEDICATED, None, 10.0),
        shared_machine("m2"),
        MachineRecord("m3", "lost", Sharing.SHARED, None, 1.0),
    ]
    samples = [sample("m2", 0, 10.0), sample("m2", 0, 11.0), sample("m0", 1, -2.0)]
    topology = ClusterTopology.from_rows([ZoneMapRow("c0", "z0", "r0")])
    baseline = validate_fleet(machines, samples, topology)
    shuffled_machines = machines[:]
    shuffled_samples = samples[:]
    rng.shuffle(shuffled_machines)
    rng.shuffle(shuffled_samples)
    report = validate_fleet(shuffled_machines, shuffled_samples, topology)
    assert report == baseline
    assert validate_fleet(shuffled_machines, shuffled_samples, topology) == report


def test_validate_bundle_flags_cross_table_problems():
    bundle = Bundle()
    bundle.zone_map.append(ZoneMapRow("c0", "z0", "r0"))
    bundle.zone_map.append(ZoneMapRow("c0", "z0", "r-other"))
    bundle.machines.append(shared_machine("m0"))
    bundle.sku_catalog.append(SkuRecord("sku-x", "prod-x", "alice", 0.0))
    bundle.billing_usage.append(SkuUsageRecord("sku-ghost", "r0", "acct", "2023-06", 1.0))
    codes = {v.code for v in validate_bundle(bundle)}
    assert {"conflicting-region", "nonpositive-price", "unknown-sku"} <= codes


def test_bundle_topology_partial_zone_map():
    topology = ClusterTopology.from_rows(
        [ZoneMapRow("c0", "z0", "r0"), ZoneMapRow("c1", None, "r0")]
    )
    assert topology.cluster_to_zone == {"c0": "z0"}
    assert topology.cluster_to_region == {"c0": "r0", "c1": "r0"}


def test_non_finite_numbers_flagged():
    bundle = Bundle()
    bundle.zone_map.append(ZoneMapRow("c0", "z0", "r0"))
    bundle.machines.append(shared_machine("m0"))
    bundle.power_samples.append(sample("m0", 0, math.nan))
    bundle.resource_allocations.append(ResourceAllocationRecord("alice", "c0", H(0), ResourceVector(ssd_tib=math.inf)))
    bundle.pue.append(PueRecord("c0", H(0), 1.2))
    found = [(v.subject, v.detail) for v in validate_bundle(bundle) if v.code == "non-finite-value"]
    assert found == [
        ("alice", "resource_allocations allocation.ssd_tib is inf"),
        ("m0", "power_samples measured_power_watts is nan"),
    ]


def test_duplicate_feed_rows_flagged():
    # A second row for a feed key would otherwise silently replace the first.
    bundle = Bundle()
    bundle.zone_map.append(ZoneMapRow("c0", "z0", "r0"))
    bundle.pue += [PueRecord("c0", H(0), 1.2), PueRecord("c0", H(1), 1.2), PueRecord("c0", H(0), 3.0)]
    bundle.carbon_intensity += [CarbonIntensityRecord("z0", H(0), 100.0), CarbonIntensityRecord("z0", H(0), 100.0)]
    bundle.annual_intensity += [AnnualIntensityRecord("z0", 2023, 300.0), AnnualIntensityRecord("z0", 2023, 400.0)]
    bundle.annual_intensity.append(AnnualIntensityRecord("z0", 2024, 300.0))
    assert [(v.code, v.subject, v.detail) for v in validate_bundle(bundle)] == [
        ("duplicate-intensity", "z0", "second annual row for year 2023"),
        ("duplicate-intensity", "z0", f"second hourly row for hour {format_hour(H(0))}"),
        ("duplicate-pue", "c0", f"second pue row for hour {format_hour(H(0))}"),
    ]
