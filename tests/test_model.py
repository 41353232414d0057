import math
import random
from array import array
from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

from carbonledger.carbon import IntensitySource, compute_emissions
from carbonledger.footprint import compute_customer_footprints
from carbonledger.model import (
    AnnualIntensityRecord,
    Bundle,
    CarbonIntensityRecord,
    GcuUsageRecord,
    GcuUsageTable,
    MachineRecord,
    NetCostRecord,
    NonServiceCostRecord,
    PowerSampleTable,
    PueRecord,
    ResourceAllocationRecord,
    ResourceAllocationTable,
    ServiceUsageRecord,
    ServiceUsageTable,
    Sharing,
    SkuRecord,
    SkuUsageRecord,
    ZoneMapRow,
    format_hour,
    parse_hour,
)
from carbonledger.tables import validate_bundle

from conftest import H, alloc, dedicated_machine, ledger_of, sample, shared_machine


def test_parse_and_format_hour_roundtrip():
    text = "2023-09-18T14:00Z"
    assert format_hour(parse_hour(text)) == text


ALLOCATIONS = [alloc("bob", "c1", 1, gcu=2.0, ram_gib=40.0, hdd_tib=6.0), alloc("alice", gcu=0.5, ssd_tib=1.5)]
SERVICE_USAGE = [
    ServiceUsageRecord("alice", "svc", "c0", H(0), gcu=1.0, ssd_tib=2.0, hdd_tib=3.0, colossus_style=True),
    ServiceUsageRecord("bob", "api", "c1", H(1), gcu=4.0, ram_gib=8.0),
]


def test_column_table_gives_back_its_records_in_order():
    samples = [sample("m1", 1, 80.0), sample("m0", 0, 50.5), sample("m1", 0, 0.0)]
    usage = [GcuUsageRecord("bob", "m1", H(1), 2.5), GcuUsageRecord("alice", "m0", H(0), 1.0)]
    for table, records in (
        (PowerSampleTable(samples), samples), (GcuUsageTable(usage), usage),
        (ResourceAllocationTable(ALLOCATIONS), ALLOCATIONS), (ServiceUsageTable(SERVICE_USAGE), SERVICE_USAGE),
    ):
        assert len(table) == len(records)
        assert list(table) == records
        assert [table[i] for i in range(-len(records), len(records))] == records + records
        assert list(table.where([False] + [True] * (len(records) - 1))) == records[1:]
        with pytest.raises(TypeError):
            table[1:]  # a slice is no row
    assert PowerSampleTable(samples).measured_power_watts == array("d", [80.0, 50.5, 0.0])
    assert GcuUsageTable(usage).user == ["bob", "alice"]
    # Each resource field is a float column named after it; the flag stays a list.
    allocations, services = ResourceAllocationTable(ALLOCATIONS), ServiceUsageTable(SERVICE_USAGE)
    assert allocations.__slots__ == ("user", "cluster_id", "hour", "gcu", "ram_gib", "ssd_tib", "hdd_tib")
    assert [allocations.gcu, allocations.ram_gib, allocations.ssd_tib, allocations.hdd_tib] == [
        array("d", [2.0, 0.5]), array("d", [40.0, 0.0]), array("d", [0.0, 1.5]), array("d", [6.0, 0.0]),
    ]
    assert services.consumer == ["alice", "bob"] and services.colossus_style == [True, False]
    for table in (allocations, services):
        for name in ("gcu", "ram_gib", "ssd_tib", "hdd_tib"):
            assert type(getattr(table, name)) is array and getattr(table, name).typecode == "d"
    assert allocations[1] == ResourceAllocationRecord("alice", "c0", H(0), gcu=0.5, ssd_tib=1.5)
    assert services[-1] == ServiceUsageRecord("bob", "api", "c1", H(1), gcu=4.0, ram_gib=8.0)


def test_column_table_edits_like_a_list_of_records():
    records = [sample("m0", 0, 1.0), sample("m1", 0, 2.0), sample("m2", 1, 3.0)]
    table, expected = PowerSampleTable(records), list(records)
    table.append(sample("m3", 2, 4.0))
    expected.append(sample("m3", 2, 4.0))
    assert list(table) == expected
    part = table.where([True, False, True, True])
    assert type(part) is PowerSampleTable
    assert list(part) == [expected[0], expected[2], expected[3]]
    assert part.measured_power_watts == array("d", [1.0, 3.0, 4.0])
    assert list(table) == expected  # selection copies; the table is unchanged
    empty = table.where([False] * len(table))
    assert type(empty) is PowerSampleTable and len(empty) == 0 and empty == PowerSampleTable()
    for selected in (part, empty):
        assert type(selected.measured_power_watts) is array and selected.measured_power_watts.typecode == "d"
    usage = [GcuUsageRecord("a", "m0", H(0), 1.0), GcuUsageRecord("b", "m1", H(1), 2.0)]
    assert GcuUsageTable(usage).where([False, True]) == GcuUsageTable(usage[1:])
    assert table == PowerSampleTable(expected)
    assert table != PowerSampleTable(expected[::-1])
    assert table != PowerSampleTable(expected[:-1])
    assert table != expected  # a list of records is not a column table
    assert GcuUsageTable() != PowerSampleTable()
    for kind, records in ((ResourceAllocationTable, ALLOCATIONS), (ServiceUsageTable, SERVICE_USAGE)):
        grown = kind(records[:1])
        grown.append(records[1])
        assert grown == kind(records) and list(grown) == records
        extended = kind()
        extended.extend(map(kind.cells, records))  # rows of cells in column order
        assert extended == grown
        part = grown.where([False, True])
        assert type(part) is kind and list(part) == records[1:] and part == kind(records[1:])
        assert type(part.hdd_tib) is array and part.hdd_tib.typecode == "d"
        assert grown != kind(records[::-1])
        assert grown != records
    assert ResourceAllocationTable() != ServiceUsageTable() and ResourceAllocationTable() != GcuUsageTable()


def test_column_table_refuses_a_narrow_row_and_stays_unchanged():
    table = ResourceAllocationTable()
    with pytest.raises(ValueError, match="rows need 7 cells; one has 4"):
        table.extend([("u", "c", H(0), 1.0)])
    assert [len(column) for column in table.columns()] == [0] * 7 and table == ResourceAllocationTable()
    table = ResourceAllocationTable(ALLOCATIONS)
    wide = ResourceAllocationTable.cells(ALLOCATIONS[0])
    with pytest.raises(ValueError, match="one has 3"):
        table.extend([wide, wide[:3], wide])
    with pytest.raises(ValueError, match="one has 0"):
        table.extend([()])
    assert [len(column) for column in table.columns()] == [2] * 7 and list(table) == ALLOCATIONS
    table.extend([])
    table.extend([wide])
    assert list(table) == [*ALLOCATIONS, ALLOCATIONS[0]]


def test_bundle_stores_sample_and_usage_records_as_columns():
    bundle = Bundle(power_samples=[sample("m0", 0, 5.0)], gcu_usage=[GcuUsageRecord("a", "m0", H(0), 1.0)])
    assert type(bundle.power_samples) is PowerSampleTable and type(bundle.gcu_usage) is GcuUsageTable
    bundle.power_samples = [sample("m1", 1, 6.0)]
    assert bundle.power_samples == PowerSampleTable([sample("m1", 1, 6.0)])
    assert type(Bundle().gcu_usage) is GcuUsageTable
    bundle = Bundle(resource_allocations=ALLOCATIONS, service_usage=SERVICE_USAGE)
    assert bundle.resource_allocations == ResourceAllocationTable(ALLOCATIONS)
    assert bundle.service_usage == ServiceUsageTable(SERVICE_USAGE)
    bundle.resource_allocations, bundle.service_usage = ALLOCATIONS[1:], SERVICE_USAGE[:1]
    assert bundle.resource_allocations == ResourceAllocationTable(ALLOCATIONS[1:])
    assert bundle.service_usage == ServiceUsageTable(SERVICE_USAGE[:1])
    empty = Bundle()
    assert type(empty.resource_allocations) is ResourceAllocationTable and type(empty.service_usage) is ServiceUsageTable


def _fleet(machines, samples=(), usage=()) -> Bundle:
    return Bundle(
        machines=list(machines), power_samples=list(samples), gcu_usage=list(usage),
        zone_map=[ZoneMapRow("c0", "z0", "r0")],
    )


def test_well_formed_fleet_has_no_violations():
    machines = [dedicated_machine("m0"), shared_machine("m1")]
    samples = [sample("m0", 0, 50.0), sample("m1", 0, 80.0)]
    assert validate_bundle(_fleet(machines, samples)) == []


def test_dedicated_machine_without_owner_flagged():
    machine = MachineRecord("m0", "c0", Sharing.DEDICATED, None, 10.0)
    report = validate_bundle(_fleet([machine]))
    assert [v.code for v in report] == ["missing-owner"]


def test_duplicate_sample_flagged():
    machines = [shared_machine("m0")]
    samples = [sample("m0", 0, 10.0), sample("m0", 0, 12.0)]
    report = validate_bundle(_fleet(machines, samples))
    assert [v.code for v in report] == ["duplicate-sample"]


def test_unknown_cluster_and_negative_values_flagged():
    machines = [
        MachineRecord("m0", "nowhere", Sharing.SHARED, None, 5.0),
        MachineRecord("m1", "c0", Sharing.SHARED, None, -1.0),
    ]
    samples = [sample("m1", 0, -3.0)]
    codes = {v.code for v in validate_bundle(_fleet(machines, samples))}
    assert codes == {"unknown-cluster", "negative-value"}


def test_dangling_gcu_usage_reference_flagged():
    machines = [shared_machine("m0")]
    usage = [GcuUsageRecord("alice", "ghost", H(0), 1.0)]
    report = validate_bundle(_fleet(machines, usage=usage))
    assert [(v.code, v.subject) for v in report] == [("unknown-machine", "ghost")]


def test_owner_on_shared_machine_flagged():
    machine = MachineRecord("m0", "c0", Sharing.SHARED, "alice", 5.0)
    report = validate_bundle(_fleet([machine]))
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
    # The second bundle holds one violation per rule.
    every_rule = _clean_bundle()
    for table, record, _ in RULE_CASES.values():
        getattr(every_rule, table).append(record)
    expected = sorted(pair for *_, pairs in RULE_CASES.values() for pair in pairs)
    assert [(v.code, v.subject) for v in validate_bundle(every_rule)] == expected
    for bundle in (_fleet(machines, samples), every_rule):
        baseline = validate_bundle(bundle)
        for table in fields(bundle):
            rows = list(getattr(bundle, table.name))
            rng.shuffle(rows)
            setattr(bundle, table.name, rows)
        report = validate_bundle(bundle)
        assert report == baseline
        assert validate_bundle(bundle) == report


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
    # c1 has a region but no zone: it takes the missing-intensity value, and its carbon still reports under r1.
    bundle = Bundle(
        pue=[PueRecord("c0", H(0), 1.0), PueRecord("c1", H(0), 1.0)],
        carbon_intensity=[CarbonIntensityRecord("z0", H(0), 100.0)],
        zone_map=[ZoneMapRow("c0", "z0", "r0"), ZoneMapRow("c1", None, "r1")],
        sku_catalog=[SkuRecord("k0", "p0", "svc", 1.0)],
        billing_usage=[
            SkuUsageRecord("k0", "r0", "a", "2023-06", 1.0), SkuUsageRecord("k0", "r1", "b", "2023-06", 1.0),
        ],
    )
    cells = {("svc", cluster, H(0)): (1000.0, 0.0) for cluster in ("c0", "c1")}
    emissions = compute_emissions(ledger_of(cells), bundle, missing_intensity=50.0)
    assert [(cluster, source) for (_, cluster, _), *_, source in emissions.rows()] == [
        ("c0", IntensitySource.HOURLY), ("c1", IntensitySource.DEFAULT),
    ]
    reports = compute_customer_footprints(emissions, bundle).reports
    assert [(r.billing_account, r.region_id) for r in reports] == [("a", "r0"), ("b", "r1")]
    assert [r.kg_co2e for r in reports] == pytest.approx([0.1, 0.05], rel=1e-12)


def test_non_finite_numbers_flagged():
    bundle = Bundle()
    bundle.zone_map.append(ZoneMapRow("c0", "z0", "r0"))
    bundle.machines.append(shared_machine("m0"))
    bundle.power_samples.append(sample("m0", 0, math.nan))
    bundle.resource_allocations.append(ResourceAllocationRecord("alice", "c0", H(0), ssd_tib=math.inf))
    bundle.pue.append(PueRecord("c0", H(0), 1.2))
    found = [(v.subject, v.detail) for v in validate_bundle(bundle) if v.code == "non-finite-value"]
    assert found == [
        ("alice", "resource_allocations ssd_tib is inf"),
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
        ("duplicate-intensity", "z0", "annual_intensity repeats key (z0, 2023)"),
        ("duplicate-intensity", "z0", f"carbon_intensity repeats key (z0, {format_hour(H(0))})"),
        ("duplicate-pue", "c0", f"pue repeats key (c0, {format_hour(H(0))})"),
    ]


def _clean_bundle() -> Bundle:
    """One or two records per table, every reference resolved: no violations."""
    return Bundle(
        machines=[dedicated_machine("m0"), shared_machine("m1")],
        power_samples=[sample("m0", 0, 50.0), sample("m1", 0, 80.0)],
        resource_allocations=[alloc("alice", gcu=1.0)],
        gcu_usage=[GcuUsageRecord("alice", "m1", H(0), 1.0)],
        service_usage=[ServiceUsageRecord("alice", "svc", "c0", H(0), gcu=1.0)],
        net_costs=[NetCostRecord("alice", "svc", H(0).date(), 1.0)],
        non_service_costs=[NonServiceCostRecord("alice", H(0).date(), 2.0)],
        pue=[PueRecord("c0", H(0), 1.2)],
        carbon_intensity=[CarbonIntensityRecord("z0", H(0), 100.0)],
        annual_intensity=[AnnualIntensityRecord("z0", 2023, 300.0)],
        zone_map=[ZoneMapRow("c0", "z0", "r0")],
        sku_catalog=[SkuRecord("k0", "p0", "svc", 1.0)],
        billing_usage=[SkuUsageRecord("k0", "r0", "acct", "2023-06", 5.0)],
    )


#: One case per rule: the table a record is added to, the record, and the
#: exact (code, subject) list the corrupted bundle yields.
RULE_CASES = {
    # repeated keys
    "duplicate-machine": ("machines", shared_machine("m1"), [("duplicate-machine", "m1")]),
    "duplicate-sample": ("power_samples", sample("m0", 0, 60.0), [("duplicate-sample", "m0")]),
    "duplicate-pue": ("pue", PueRecord("c0", H(0), 1.5), [("duplicate-pue", "c0")]),
    "duplicate-intensity-hourly": (
        "carbon_intensity", CarbonIntensityRecord("z0", H(0), 90.0), [("duplicate-intensity", "z0")],
    ),
    "duplicate-intensity-annual": (
        "annual_intensity", AnnualIntensityRecord("z0", 2023, 200.0), [("duplicate-intensity", "z0")],
    ),
    "duplicate-sku": ("sku_catalog", SkuRecord("k0", "p1", "other", 2.0), [("duplicate-sku", "k0")]),
    # bounds
    "negative-idle-rating": ("machines", shared_machine("m2", idle=-1.0), [("negative-value", "m2")]),
    "negative-power": ("power_samples", sample("m1", 1, -3.0), [("negative-value", "m1")]),
    "negative-gcu-usage": ("gcu_usage", GcuUsageRecord("bob", "m0", H(1), -1.0), [("negative-value", "m0")]),
    "negative-allocation": ("resource_allocations", alloc("bob", ram_gib=-2.0), [("negative-value", "bob")]),
    "negative-service-usage": (
        "service_usage", ServiceUsageRecord("bob", "svc", "c0", H(0), hdd_tib=-1.0),
        [("negative-value", "bob")],
    ),
    "negative-hourly-intensity": (
        "carbon_intensity", CarbonIntensityRecord("z1", H(0), -5.0), [("negative-value", "z1")],
    ),
    "negative-annual-intensity": (
        "annual_intensity", AnnualIntensityRecord("z1", 2023, -5.0), [("negative-value", "z1")],
    ),
    "negative-billing-usage": (
        "billing_usage", SkuUsageRecord("k0", "r0", "acct2", "2023-06", -1.0), [("negative-value", "k0")],
    ),
    "pue-below-one": ("pue", PueRecord("c1", H(0), 0.9), [("pue-below-one", "c1")]),
    "nonpositive-price": ("sku_catalog", SkuRecord("k1", "p1", "svc", 0.0), [("nonpositive-price", "k1")]),
    # non-finite numbers
    "non-finite-power": ("power_samples", sample("m0", 2, math.nan), [("non-finite-value", "m0")]),
    "non-finite-gcu-usage": (
        "gcu_usage", GcuUsageRecord("carol", "m1", H(2), math.nan), [("non-finite-value", "m1")],
    ),
    "non-finite-net-cost": (
        "net_costs", NetCostRecord("dave", "svc", H(0).date(), math.inf), [("non-finite-value", "dave")],
    ),
    "non-finite-unbounded-minus-inf": (
        "net_costs", NetCostRecord("gina", "svc", H(0).date(), -math.inf), [("non-finite-value", "gina")],
    ),
    "non-finite-non-service-cost": (
        "non_service_costs", NonServiceCostRecord("erin", H(0).date(), math.nan), [("non-finite-value", "erin")],
    ),
    "non-finite-pue": (
        "pue", PueRecord("c2", H(0), -math.inf), [("non-finite-value", "c2"), ("pue-below-one", "c2")],
    ),
    "non-finite-price": ("sku_catalog", SkuRecord("k2", "p2", "svc", math.nan), [("non-finite-value", "k2")]),
    # references
    "unknown-cluster-machine": (
        "machines", MachineRecord("m3", "ghost", Sharing.SHARED, None, 1.0), [("unknown-cluster", "m3")],
    ),
    "unknown-cluster-allocation": (
        "resource_allocations", alloc("frank", cluster="ghost", gcu=1.0), [("unknown-cluster", "frank")],
    ),
    "unknown-cluster-service-usage": (
        "service_usage", ServiceUsageRecord("bob", "svc", "ghost", H(0), gcu=1.0),
        [("unknown-cluster", "bob")],
    ),
    "unknown-machine-sample": ("power_samples", sample("m9", 0, 1.0), [("unknown-machine", "m9")]),
    "unknown-machine-usage": (
        "gcu_usage", GcuUsageRecord("alice", "m8", H(0), 1.0), [("unknown-machine", "m8")],
    ),
    "unknown-sku": ("billing_usage", SkuUsageRecord("k9", "r0", "acct", "2023-06", 1.0), [("unknown-sku", "k9")]),
    # rules that span two fields or two records
    "missing-owner": (
        "machines", MachineRecord("m4", "c0", Sharing.DEDICATED, None, 1.0), [("missing-owner", "m4")],
    ),
    "owner-on-shared": (
        "machines", MachineRecord("m5", "c0", Sharing.SHARED, "alice", 1.0), [("owner-on-shared", "m5")],
    ),
    "conflicting-region": ("zone_map", ZoneMapRow("c0", "z0", "r1"), [("conflicting-region", "c0")]),
    "conflicting-zone": ("zone_map", ZoneMapRow("c0", "z1", "r0"), [("conflicting-zone", "c0")]),
    "self-service-usage": (
        "service_usage", ServiceUsageRecord("svc", "svc", "c0", H(1), gcu=1.0),
        [("self-service-usage", "svc")],
    ),
    "mixed-service-style": (
        "service_usage", ServiceUsageRecord("bob", "svc", "c0", H(1), gcu=1.0, colossus_style=True),
        [("mixed-service-style", "svc")],
    ),
}


@pytest.mark.parametrize("rule", RULE_CASES)
def test_each_rule_flags_one_corrupted_record(rule):
    table, record, expected = RULE_CASES[rule]
    bundle = _clean_bundle()
    getattr(bundle, table).append(record)
    assert [(v.code, v.subject) for v in validate_bundle(bundle)] == expected
