import logging

import pytest
from hypothesis import given, settings, strategies as st

from carbonledger.allocation import (
    allocate_dynamic,
    allocate_idle,
    build_machine_ledger,
    idle_share_table,
    weighted_allocation,
)
from carbonledger.errors import InputError
from carbonledger.model import (
    UNALLOCATED_USER,
    GcuUsageRecord,
    GcuUsageTable,
    PowerSampleTable,
    ResourceAllocationTable,
)
from carbonledger.power import split_fleet
from carbonledger.simulate import ScenarioSpec, generate

from conftest import H, alloc, cells_of, dedicated_machine, sample, shared_machine


def test_weighted_allocation_compute_and_ram():
    # 10 compute units + 200 GiB at table weights: 10*1 + 200/20 = 20.
    assert weighted_allocation(gcu=10, ram_gib=200, ssd_tib=0, hdd_tib=0) == 20.0


def test_weighted_allocation_storage_only():
    # 1 TiB SSD + 6 TiB HDD: 1*1 + 6/6 = 2.
    assert weighted_allocation(gcu=0, ram_gib=0, ssd_tib=1, hdd_tib=6) == 2.0


def test_weighted_allocation_zero_vector():
    assert weighted_allocation(0.0, 0.0, 0.0, 0.0) == 0.0


def test_idle_fraction_sole_claimant():
    allocations = ResourceAllocationTable([alloc("alice", gcu=3.0)])
    assert idle_share_table(allocations) == {("c0", H(0)): {"alice": 1.0}}


def test_idle_fraction_two_users():
    allocations = ResourceAllocationTable([alloc("a", gcu=10, ram_gib=200), alloc("b", ssd_tib=1, hdd_tib=6)])
    shares = idle_share_table(allocations)[("c0", H(0))]
    assert shares["a"] == pytest.approx(20.0 / 22.0, abs=1e-12)
    assert shares["b"] == pytest.approx(2.0 / 22.0, abs=1e-12)


def test_idle_share_all_zero_cluster_hour_is_absent():
    # No weighted allocation: no fractions, so shared idle goes to the overhead user.
    allocations = ResourceAllocationTable([alloc("a", gcu=0.0)])
    assert idle_share_table(allocations) == {}
    machines = [shared_machine("m0", idle=40.0)]
    split = split_fleet(machines, PowerSampleTable([sample("m0", 0, 100.0)]))
    idle, notices = allocate_idle(split, machines, allocations)
    assert idle == {(UNALLOCATED_USER, "c0", H(0)): 40.0}
    assert [n.code for n in notices] == ["unallocated-idle"]


def test_idle_fractions_sum_to_one():
    allocations = ResourceAllocationTable(alloc(f"u{i}", gcu=float(i + 1)) for i in range(7))
    shares = idle_share_table(allocations)[("c0", H(0))]
    assert sorted(shares) == [f"u{i}" for i in range(7)]
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-12)


def test_allocate_idle_prod_user_holds_everything():
    # Single shared aggregate; one user owns all allocation, so it takes all idle.
    machines = [shared_machine("m0", idle=6e6)]
    split = split_fleet(machines, PowerSampleTable([sample("m0", 0, 14e6)]))
    idle, notices = allocate_idle(split, machines, ResourceAllocationTable([alloc("prod", gcu=100.0)]))
    assert idle == {("prod", "c0", H(0)): 6e6}
    assert notices == []


def test_allocate_idle_dedicated_goes_to_owner():
    machines = [
        dedicated_machine("m0", owner="alice", idle=30.0),
        dedicated_machine("m1", owner="alice", idle=20.0),
        dedicated_machine("m2", owner="bob", idle=10.0),
    ]
    samples = PowerSampleTable([sample("m0", 0, 50.0), sample("m1", 0, 25.0), sample("m2", 0, 90.0)])
    split = split_fleet(machines, samples)
    idle, _ = allocate_idle(split, machines, ResourceAllocationTable())
    assert idle == {("alice", "c0", H(0)): 50.0, ("bob", "c0", H(0)): 10.0}


def test_allocate_idle_without_allocations_falls_back():
    machines = [shared_machine("m0", idle=40.0)]
    split = split_fleet(machines, PowerSampleTable([sample("m0", 0, 100.0)]))
    idle, notices = allocate_idle(split, machines, ResourceAllocationTable())
    assert idle == {(UNALLOCATED_USER, "c0", H(0)): 40.0}
    assert [n.code for n in notices] == ["unallocated-idle"]


def test_allocate_dynamic_daytime_split():
    # 8 MW dynamic, 75/25 usage split: 6 MW and 2 MW.
    machines = [shared_machine("m0", idle=6e6)]
    split = split_fleet(machines, PowerSampleTable([sample("m0", 0, 14e6)]))
    usage = GcuUsageTable([GcuUsageRecord("prod", "m0", H(0), 60.0), GcuUsageRecord("non-prod", "m0", H(0), 20.0)])
    dynamic, _ = allocate_dynamic(split, machines, usage, ResourceAllocationTable())
    assert dynamic[("prod", "c0", H(0))] == pytest.approx(6e6, rel=1e-12)
    assert dynamic[("non-prod", "c0", H(0))] == pytest.approx(2e6, rel=1e-12)


def test_allocate_dynamic_night_split_with_idle_totals():
    # 6 MW dynamic split 50/50 plus prod's 6 MW idle: 9 MW vs 3 MW.
    machines = [shared_machine("m0", idle=6e6)]
    split = split_fleet(machines, PowerSampleTable([sample("m0", 0, 12e6)]))
    usage = GcuUsageTable([GcuUsageRecord("prod", "m0", H(0), 30.0), GcuUsageRecord("non-prod", "m0", H(0), 30.0)])
    ledger, _ = build_machine_ledger(split, machines, ResourceAllocationTable([alloc("prod", gcu=100.0)]), usage)
    cells = cells_of(ledger)
    assert sum(cells[("prod", "c0", H(0))]) == pytest.approx(9e6, rel=1e-12)
    assert sum(cells[("non-prod", "c0", H(0))]) == pytest.approx(3e6, rel=1e-12)


def test_allocate_dynamic_single_user_takes_all():
    machines = [shared_machine("m0", idle=10.0)]
    split = split_fleet(machines, PowerSampleTable([sample("m0", 0, 25.0)]))
    usage = GcuUsageTable([GcuUsageRecord("solo", "m0", H(0), 2.0)])
    dynamic, _ = allocate_dynamic(split, machines, usage, ResourceAllocationTable())
    assert dynamic == {("solo", "c0", H(0)): 15.0}


def test_zero_usage_dedicated_machine_dynamic_goes_to_owner():
    machines = [dedicated_machine("m0", owner="alice", idle=10.0)]
    split = split_fleet(machines, PowerSampleTable([sample("m0", 0, 30.0)]))
    dynamic, _ = allocate_dynamic(split, machines, GcuUsageTable(), ResourceAllocationTable())
    assert dynamic == {("alice", "c0", H(0)): 20.0}


def test_zero_usage_shared_machine_dynamic_follows_idle_fractions():
    machines = [shared_machine("m0", idle=10.0)]
    split = split_fleet(machines, PowerSampleTable([sample("m0", 0, 30.0)]))
    allocations = ResourceAllocationTable([alloc("a", gcu=30.0), alloc("b", gcu=10.0)])
    dynamic, _ = allocate_dynamic(split, machines, GcuUsageTable(), allocations)
    assert dynamic[("a", "c0", H(0))] == pytest.approx(15.0, rel=1e-12)
    assert dynamic[("b", "c0", H(0))] == pytest.approx(5.0, rel=1e-12)


def test_dynamic_is_per_machine_local():
    # A user with no usage on m1 receives nothing from m1.
    machines = [shared_machine("m0", idle=0.0), shared_machine("m1", idle=0.0)]
    split = split_fleet(machines, PowerSampleTable([sample("m0", 0, 10.0), sample("m1", 0, 50.0)]))
    usage = GcuUsageTable([
        GcuUsageRecord("a", "m0", H(0), 5.0),
        GcuUsageRecord("b", "m1", H(0), 5.0),
    ])
    dynamic, _ = allocate_dynamic(split, machines, usage, ResourceAllocationTable())
    assert dynamic[("a", "c0", H(0))] == 10.0
    assert dynamic[("b", "c0", H(0))] == 50.0


positive = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)


@given(
    vectors=st.lists(
        st.tuples(positive, positive, positive, positive), min_size=1, max_size=6
    ),
    scale=st.floats(min_value=1e-3, max_value=1e3),
)
def test_fractions_are_scale_invariant(vectors, scale):
    users = [f"u{i}" for i in range(len(vectors))]
    base = ResourceAllocationTable(
        alloc(u, gcu=v[0], ram_gib=v[1], ssd_tib=v[2], hdd_tib=v[3])
        for u, v in zip(users, vectors)
    )
    scaled = ResourceAllocationTable(
        alloc(u, gcu=v[0] * scale, ram_gib=v[1] * scale, ssd_tib=v[2] * scale, hdd_tib=v[3] * scale)
        for u, v in zip(users, vectors)
    )
    original = idle_share_table(base)[("c0", H(0))]
    rescaled = idle_share_table(scaled)[("c0", H(0))]
    for user in users:
        assert rescaled[user] == pytest.approx(original[user], abs=1e-12)


@settings(max_examples=30)
@given(data=st.data())
def test_machine_ledger_conserves_measured_power(data):
    machine_count = data.draw(st.integers(1, 12))
    user_count = data.draw(st.integers(1, 5))
    users = [f"u{i}" for i in range(user_count)]
    machines, samples, usage = [], PowerSampleTable(), GcuUsageTable()
    for i in range(machine_count):
        rating = data.draw(st.floats(0, 500, allow_nan=False), label=f"rating{i}")
        measured = data.draw(st.floats(0, 800, allow_nan=False), label=f"measured{i}")
        if data.draw(st.booleans(), label=f"dedicated{i}"):
            owner = data.draw(st.sampled_from(users), label=f"owner{i}")
            machines.append(dedicated_machine(f"m{i}", owner=owner, idle=rating))
        else:
            machines.append(shared_machine(f"m{i}", idle=rating))
        samples.append(sample(f"m{i}", 0, measured))
        for user in users:
            if data.draw(st.booleans(), label=f"uses-{i}-{user}"):
                usage.append(GcuUsageRecord(user, f"m{i}", H(0), data.draw(positive, label=f"g{i}{user}")))
    allocations = ResourceAllocationTable(alloc(u, gcu=data.draw(positive, label=f"alloc-{u}")) for u in users)
    split = split_fleet(machines, samples)
    ledger, _ = build_machine_ledger(split, machines, allocations, usage)
    measured_total = sum(s.measured_power_watts for s in samples)
    assert ledger.total_wh() == pytest.approx(measured_total, rel=1e-9)


def test_permuting_user_labels_permutes_outputs():
    machines = [shared_machine("m0", idle=50.0)]
    samples = PowerSampleTable([sample("m0", 0, 120.0)])
    usage = GcuUsageTable([GcuUsageRecord("a", "m0", H(0), 3.0), GcuUsageRecord("b", "m0", H(0), 1.0)])
    allocations = ResourceAllocationTable([alloc("a", gcu=1.0), alloc("b", gcu=3.0)])
    ledger, _ = build_machine_ledger(split_fleet(machines, samples), machines, allocations, usage)

    swap = {"a": "b", "b": "a"}
    usage_swapped = GcuUsageTable(GcuUsageRecord(swap[u.user], u.machine_id, u.hour, u.gcu_used) for u in usage)
    allocations_swapped = ResourceAllocationTable(alloc(swap[a.user], gcu=a.allocation.gcu) for a in allocations)
    ledger_swapped, _ = build_machine_ledger(
        split_fleet(machines, samples), machines, allocations_swapped, usage_swapped
    )
    swapped = cells_of(ledger_swapped)
    for (user, cluster, hour), idle_wh, dynamic_wh in ledger.rows():
        assert swapped[(swap[user], cluster, hour)] == pytest.approx((idle_wh, dynamic_wh), rel=1e-12)


def machine_stage(bundle, samples, usage):
    split = split_fleet(bundle.machines, samples)
    allocations = bundle.resource_allocations
    idle, _ = allocate_idle(split, bundle.machines, allocations)
    dynamic, _ = allocate_dynamic(split, bundle.machines, usage, allocations)
    ledger, _ = build_machine_ledger(split, bundle.machines, allocations, usage)
    return idle, dynamic, cells_of(ledger)


def test_cross_hour_order_leaves_machine_stage_cells_exactly_equal():
    # The generator writes samples and usage machine by machine; a stable
    # sort by hour (or by hour descending) regroups them hour by hour but
    # keeps the order within each hour, so every cell must match bit for bit.
    bundle = generate(ScenarioSpec(seed=4, machine_count=60, user_count=6, cluster_count=3, hours=8))
    assert any(m.owner_user for m in bundle.machines)
    machine_major = machine_stage(bundle, bundle.power_samples, bundle.gcu_usage)
    for reverse in (False, True):
        samples = PowerSampleTable(sorted(bundle.power_samples, key=lambda s: s.hour, reverse=reverse))
        usage = GcuUsageTable(sorted(bundle.gcu_usage, key=lambda u: u.hour, reverse=reverse))
        assert samples != bundle.power_samples and usage != bundle.gcu_usage
        assert machine_stage(bundle, samples, usage) == machine_major


@pytest.mark.parametrize(
    "bad",
    [sample("ghost", 1, 10.0), sample("m1", 1, -0.5)],
    ids=["unknown-machine", "negative-power"],
)
def test_split_fleet_rejects_bad_sample_in_a_later_hour(bad):
    machines = [shared_machine("m0"), shared_machine("m1")]
    samples = PowerSampleTable([sample("m0", 0, 10.0), sample("m1", 0, 10.0), sample("m0", 1, 10.0), bad])
    with pytest.raises(InputError):
        split_fleet(machines, samples)


def test_missing_sample_is_logged_at_debug(caplog):
    machines = [shared_machine("m0"), shared_machine("m1")]
    samples = PowerSampleTable([sample("m0", 0, 10.0), sample("m1", 0, 10.0), sample("m0", 1, 10.0)])
    with caplog.at_level(logging.INFO, logger="carbonledger.power"):
        split_fleet(machines, samples)
    assert caplog.records == []
    with caplog.at_level(logging.DEBUG, logger="carbonledger.power"):
        assert len(split_fleet(machines, samples)) == 3
    assert [r.getMessage() for r in caplog.records] == [
        "machine m1 has no sample for 1 hour(s); treated as powered off"
    ]
