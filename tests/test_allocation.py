import gc
import logging
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from carbonledger.allocation import (
    MAX_CELLS,
    STAGE_MACHINE,
    Axes,
    CellIndex,
    Ledger,
    allocate_dynamic,
    allocate_idle,
    build_machine_ledger,
    idle_share_table,
    machine_axes,
    weighted_allocation,
)
from carbonledger.errors import InputError
from carbonledger.model import (
    UNALLOCATED_USER,
    GcuUsageRecord,
    GcuUsageTable,
    Notice,
    PowerSampleTable,
    ResourceAllocationTable,
)
from carbonledger.power import split_fleet
from carbonledger.simulate import ScenarioSpec, generate

from conftest import H, alloc, cells_of, credit, dedicated_machine, ledger_of, machine_ledger, sample, shared_machine


def idle_of(split, machines, allocations):
    """``allocate_idle`` alone on an empty ledger: idle Wh per credited cell, and the notices."""
    ledger = Ledger(STAGE_MACHINE, CellIndex(machine_axes(split, machines, allocations.user)))
    notices = allocate_idle(ledger, split, machines, allocations)
    return {key: idle for key, idle, _ in ledger.rows()}, notices


def dynamic_of(split, machines, usage, allocations):
    """``allocate_dynamic`` alone on an empty ledger: dynamic Wh per credited cell, and the notices."""
    ledger = Ledger(STAGE_MACHINE, CellIndex(machine_axes(split, machines, allocations.user, usage.user)))
    notices = allocate_dynamic(ledger, split, machines, usage, allocations)
    return {key: dynamic for key, _, dynamic in ledger.rows()}, notices


def test_weighted_allocation_compute_and_ram():
    # 10 compute units + 200 GiB at table weights: 10*1 + 200/20 = 20.
    assert weighted_allocation(gcu=10, ram_gib=200, ssd_tib=0, hdd_tib=0) == 20.0


def test_weighted_allocation_storage_only():
    # 1 TiB SSD + 6 TiB HDD: 1*1 + 6/6 = 2.
    assert weighted_allocation(gcu=0, ram_gib=0, ssd_tib=1, hdd_tib=6) == 2.0


def test_weighted_allocation_zero_vector():
    assert weighted_allocation(0.0, 0.0, 0.0, 0.0) == 0.0


def shares_of(allocations):
    """``idle_share_table`` on the allocations' own axes, as ``{(cluster, hour): {user: fraction}}``.

    Also holds the table to its shape: one entry per cluster-hour, each
    ``None`` or an ``array("i")`` of distinct user positions beside an
    ``array("d")`` of as many fractions.
    """
    axes = Axes(allocations.user, allocations.cluster_id, allocations.hour)
    table = idle_share_table(allocations, axes)
    assert len(table) == axes.span
    decoded = {}
    for ch, entry in enumerate(table):
        if entry is None:
            continue
        users, fractions = entry
        assert (users.typecode, fractions.typecode) == ("i", "d") and len(set(users)) == len(fractions) > 0
        c, h = divmod(ch, len(axes.hours))
        decoded[axes.clusters[c], axes.hours[h]] = {axes.users[u]: f for u, f in zip(users, fractions)}
    return decoded


def test_idle_fraction_sole_claimant():
    allocations = ResourceAllocationTable([alloc("alice", gcu=3.0)])
    axes = Axes(["alice"], ["c0"], [H(0)])
    assert idle_share_table(allocations, axes) == [(array("i", [0]), array("d", [1.0]))]
    assert shares_of(allocations) == {("c0", H(0)): {"alice": 1.0}}


def test_idle_fraction_two_users():
    allocations = ResourceAllocationTable([alloc("a", gcu=10, ram_gib=200), alloc("b", ssd_tib=1, hdd_tib=6)])
    shares = shares_of(allocations)[("c0", H(0))]
    assert shares["a"] == pytest.approx(20.0 / 22.0, abs=1e-12)
    assert shares["b"] == pytest.approx(2.0 / 22.0, abs=1e-12)


def test_idle_share_all_zero_cluster_hour_is_absent():
    # No weighted allocation: no fractions, so shared idle goes to the overhead user.
    allocations = ResourceAllocationTable([alloc("a", gcu=0.0)])
    assert idle_share_table(allocations, Axes(["a"], ["c0"], [H(0)])) == [None]
    assert shares_of(allocations) == {}
    machines = [shared_machine("m0", idle=40.0)]
    split = split_fleet(machines, PowerSampleTable([sample("m0", 0, 100.0)]))
    idle, notices = idle_of(split, machines, allocations)
    assert idle == {(UNALLOCATED_USER, "c0", H(0)): 40.0}
    assert [n.code for n in notices] == ["unallocated-idle"]


def test_idle_fractions_sum_to_one():
    allocations = ResourceAllocationTable(alloc(f"u{i}", gcu=float(i + 1)) for i in range(7))
    shares = shares_of(allocations)[("c0", H(0))]
    assert sorted(shares) == [f"u{i}" for i in range(7)]
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-12)


def test_idle_shares_sum_per_user_in_row_order_and_skip_rows_off_the_axes():
    allocations = ResourceAllocationTable([
        alloc("b", gcu=0.1), alloc("a", gcu=0.2), alloc("x", cluster="c9", gcu=5.0),
        alloc("y", hour_index=3, gcu=5.0), alloc("b", gcu=0.0), alloc("a", "c1", gcu=1.0), alloc("b", gcu=0.3),
    ])
    axes = Axes(["a", "b", "x", "y"], ["c0", "c1"], [H(0), H(1)])
    b, a = 0.1 + 0.3, 0.2
    assert idle_share_table(allocations, axes) == [
        (array("i", [1, 0]), array("d", [b / (b + a), a / (b + a)])),  # users b, a
        None,
        (array("i", [0]), array("d", [1.0])),
        None,
    ]
    with pytest.raises(ValueError, match="user 'b' is not on the ledger's users axis"):
        idle_share_table(allocations, Axes(["a"], ["c0"], [H(0)]))


def test_allocate_idle_prod_user_holds_everything():
    # Single shared aggregate; one user owns all allocation, so it takes all idle.
    machines = [shared_machine("m0", idle=6e6)]
    split = split_fleet(machines, PowerSampleTable([sample("m0", 0, 14e6)]))
    idle, notices = idle_of(split, machines, ResourceAllocationTable([alloc("prod", gcu=100.0)]))
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
    idle, _ = idle_of(split, machines, ResourceAllocationTable())
    assert idle == {("alice", "c0", H(0)): 50.0, ("bob", "c0", H(0)): 10.0}


def test_allocate_idle_without_allocations_falls_back():
    machines = [shared_machine("m0", idle=40.0)]
    split = split_fleet(machines, PowerSampleTable([sample("m0", 0, 100.0)]))
    idle, notices = idle_of(split, machines, ResourceAllocationTable())
    assert idle == {(UNALLOCATED_USER, "c0", H(0)): 40.0}
    assert [n.code for n in notices] == ["unallocated-idle"]


def test_allocate_dynamic_daytime_split():
    # 8 MW dynamic, 75/25 usage split: 6 MW and 2 MW.
    machines = [shared_machine("m0", idle=6e6)]
    split = split_fleet(machines, PowerSampleTable([sample("m0", 0, 14e6)]))
    usage = GcuUsageTable([GcuUsageRecord("prod", "m0", H(0), 60.0), GcuUsageRecord("non-prod", "m0", H(0), 20.0)])
    dynamic, _ = dynamic_of(split, machines, usage, ResourceAllocationTable())
    assert dynamic[("prod", "c0", H(0))] == pytest.approx(6e6, rel=1e-12)
    assert dynamic[("non-prod", "c0", H(0))] == pytest.approx(2e6, rel=1e-12)


def test_allocate_dynamic_night_split_with_idle_totals():
    # 6 MW dynamic split 50/50 plus prod's 6 MW idle: 9 MW vs 3 MW.
    machines = [shared_machine("m0", idle=6e6)]
    split = split_fleet(machines, PowerSampleTable([sample("m0", 0, 12e6)]))
    usage = GcuUsageTable([GcuUsageRecord("prod", "m0", H(0), 30.0), GcuUsageRecord("non-prod", "m0", H(0), 30.0)])
    ledger, _ = machine_ledger(split, machines, ResourceAllocationTable([alloc("prod", gcu=100.0)]), usage)
    cells = cells_of(ledger)
    assert sum(cells[("prod", "c0", H(0))]) == pytest.approx(9e6, rel=1e-12)
    assert sum(cells[("non-prod", "c0", H(0))]) == pytest.approx(3e6, rel=1e-12)


def test_allocate_dynamic_single_user_takes_all():
    machines = [shared_machine("m0", idle=10.0)]
    split = split_fleet(machines, PowerSampleTable([sample("m0", 0, 25.0)]))
    usage = GcuUsageTable([GcuUsageRecord("solo", "m0", H(0), 2.0)])
    dynamic, _ = dynamic_of(split, machines, usage, ResourceAllocationTable())
    assert dynamic == {("solo", "c0", H(0)): 15.0}


def test_zero_usage_dedicated_machine_dynamic_goes_to_owner():
    machines = [dedicated_machine("m0", owner="alice", idle=10.0)]
    split = split_fleet(machines, PowerSampleTable([sample("m0", 0, 30.0)]))
    dynamic, _ = dynamic_of(split, machines, GcuUsageTable(), ResourceAllocationTable())
    assert dynamic == {("alice", "c0", H(0)): 20.0}


def test_zero_usage_shared_machine_dynamic_follows_idle_fractions():
    machines = [shared_machine("m0", idle=10.0)]
    split = split_fleet(machines, PowerSampleTable([sample("m0", 0, 30.0)]))
    allocations = ResourceAllocationTable([alloc("a", gcu=30.0), alloc("b", gcu=10.0)])
    dynamic, _ = dynamic_of(split, machines, GcuUsageTable(), allocations)
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
    dynamic, _ = dynamic_of(split, machines, usage, ResourceAllocationTable())
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
    original = shares_of(base)[("c0", H(0))]
    rescaled = shares_of(scaled)[("c0", H(0))]
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
    ledger, _ = machine_ledger(split, machines, allocations, usage)
    measured_total = sum(s.measured_power_watts for s in samples)
    assert ledger.total_wh() == pytest.approx(measured_total, rel=1e-9)


def test_permuting_user_labels_permutes_outputs():
    machines = [shared_machine("m0", idle=50.0)]
    samples = PowerSampleTable([sample("m0", 0, 120.0)])
    usage = GcuUsageTable([GcuUsageRecord("a", "m0", H(0), 3.0), GcuUsageRecord("b", "m0", H(0), 1.0)])
    allocations = ResourceAllocationTable([alloc("a", gcu=1.0), alloc("b", gcu=3.0)])
    ledger, _ = machine_ledger(split_fleet(machines, samples), machines, allocations, usage)

    swap = {"a": "b", "b": "a"}
    usage_swapped = GcuUsageTable(GcuUsageRecord(swap[u.user], u.machine_id, u.hour, u.gcu_used) for u in usage)
    allocations_swapped = ResourceAllocationTable(alloc(swap[a.user], gcu=a.gcu) for a in allocations)
    ledger_swapped, _ = machine_ledger(
        split_fleet(machines, samples), machines, allocations_swapped, usage_swapped
    )
    swapped = cells_of(ledger_swapped)
    for (user, cluster, hour), idle_wh, dynamic_wh in ledger.rows():
        assert swapped[(swap[user], cluster, hour)] == pytest.approx((idle_wh, dynamic_wh), rel=1e-12)


def machine_stage(bundle, samples, usage):
    split = split_fleet(bundle.machines, samples)
    allocations = bundle.resource_allocations
    idle, _ = idle_of(split, bundle.machines, allocations)
    dynamic, _ = dynamic_of(split, bundle.machines, usage, allocations)
    ledger, _ = machine_ledger(split, bundle.machines, allocations, usage)
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


def test_cell_ids_ascend_in_key_order():
    axes = Axes(["b", "a", UNALLOCATED_USER], ["c1", "c0"], [H(2), H(0), H(1)])
    keys = [(u, c, h) for u in ("a", "b", UNALLOCATED_USER) for c in ("c0", "c1") for h in (H(0), H(1), H(2))]
    cells = [axes.cell(*key) for key in keys]
    assert sorted(cells) == cells == list(range(axes.size))
    assert [axes.key(cell) for cell in cells] == sorted(keys)
    with pytest.raises(ValueError, match="not on the ledger's users axis"):
        axes.cell("nobody", "c0", H(0))


def test_cell_index_walks_a_stage_in_id_order():
    first = ledger_of({("b", "c0", H(1)): (1.0, 0.0), ("a", "c0", H(1)): (1.0, 0.0), ("b", "c0", H(0)): (1.0, 0.0)})
    second = first.successor("next")
    credit(second, {("a", "c0", H(0)): (1.0, 0.0)})
    assert list(first.cells.in_id_order(len(first.idle))) == [(1, 1), (2, 2), (3, 0)]
    assert list(second.cells.in_id_order(len(second.idle))) == [(0, 3), (1, 1), (2, 2), (3, 0)]
    assert second.cells.rows[0] == 3 and first.cells.rows[0] == 3


def test_machine_ledger_on_wide_axes_holds_the_same_cells():
    machines = [shared_machine("m0", idle=10.0)]
    split = split_fleet(machines, PowerSampleTable([sample("m0", 0, 30.0)]))
    allocations = ResourceAllocationTable([alloc("a", gcu=1.0)])
    own, _ = machine_ledger(split, machines, allocations, GcuUsageTable())
    wide_axes = Axes(["a", UNALLOCATED_USER, *(f"u{i}" for i in range(10))], ["c0"], [H(0)])
    wide, _ = build_machine_ledger(split, machines, allocations, GcuUsageTable(), wide_axes)
    assert isinstance(wide.cells.rows, array) and wide.cells.rows.typecode == "i"
    assert len(wide.cells.rows) == wide_axes.size
    assert cells_of(own) == cells_of(wide) == {("a", "c0", H(0)): (10.0, 20.0)}


def test_cell_index_keeps_ids_and_rows_in_four_bytes():
    ledger = ledger_of({("a", "c0", H(0)): (1.0, 2.0), ("b", "c1", H(1)): (3.0, 4.0)})
    assert (ledger.cells.ids.typecode, ledger.cells.rows.typecode) == ("i", "i")


@pytest.mark.parametrize("users, clusters, hours", [(2**11, 2**10, 2**10), (3000, 1000, 1000)])
def test_cell_index_refuses_axes_past_four_byte_ids_before_allocating(users, clusters, hours):
    axes = Axes((f"u{i}" for i in range(users)), (f"c{i}" for i in range(clusters)), map(H, range(hours)))
    assert axes.size == users * clusters * hours >= MAX_CELLS == 2**31

    def refuse() -> None:
        with pytest.raises(ValueError, match=f"axes span {axes.size} cell ids"):
            CellIndex(axes)

    _, _, peak = traced(refuse)
    assert peak < 1 << 20  # no slot array was allocated: it would take 8 GiB


def machine_rows(machines, samples, allocations, usage, axes=None):
    """The machine-stage ledger's rows, in row order, and its notices."""
    split = split_fleet(machines, PowerSampleTable(samples))
    ledger, notices = machine_ledger(
        split, machines, ResourceAllocationTable(allocations), GcuUsageTable(usage), axes
    )
    return list(ledger.rows()), notices


def test_usage_on_an_unknown_machine_is_skipped():
    rows, notices = machine_rows(
        [shared_machine("m0", idle=10.0)],
        [sample("m0", 0, 30.0)],
        [alloc("a", gcu=1.0)],
        [
            GcuUsageRecord("a", "ghost", H(0), 5.0),
            GcuUsageRecord("b", "m0", H(0), 1.0),
            GcuUsageRecord("a", "m0", H(0), 3.0),
        ],
    )
    assert rows == [(("a", "c0", H(0)), 10.0, 15.0), (("b", "c0", H(0)), 0.0, 5.0)]
    assert notices == []


def test_machine_sampled_twice_in_an_hour_splits_both_samples_by_its_usage():
    rows, notices = machine_rows(
        [shared_machine("m0", idle=10.0), shared_machine("m1", idle=5.0)],
        [sample("m0", 0, 30.0), sample("m1", 0, 25.0), sample("m0", 0, 50.0)],
        [alloc("a", gcu=1.0)],
        [
            GcuUsageRecord("b", "m0", H(0), 1.0),
            GcuUsageRecord("c", "m1", H(0), 2.0),
            GcuUsageRecord("a", "m0", H(0), 3.0),
        ],
    )
    assert rows == [
        (("a", "c0", H(0)), 25.0, 45.0),
        (("b", "c0", H(0)), 0.0, 15.0),
        (("c", "c0", H(0)), 0.0, 20.0),
    ]
    assert notices == []


def test_allocations_off_the_machines_clusters_and_sampled_hours_are_ignored():
    machines = [shared_machine("m0", idle=10.0), shared_machine("m1", idle=10.0)]
    off_axes = [alloc("x", cluster="c9", gcu=5.0), alloc("y", hour_index=3, gcu=5.0)]
    rows, notices = machine_rows(
        machines, [sample("m0", 0, 30.0), sample("m1", 0, 16.0)], [*off_axes, alloc("b", gcu=1.0), alloc("a", gcu=3.0)], []
    )
    assert rows == [(("b", "c0", H(0)), 5.0, 6.5), (("a", "c0", H(0)), 15.0, 19.5)]
    assert notices == []
    rows, notices = machine_rows(machines[:1], [sample("m0", 0, 30.0)], off_axes, [])
    assert rows == [((UNALLOCATED_USER, "c0", H(0)), 10.0, 20.0)]
    assert notices == [
        Notice("unallocated-idle", "c0", "no weighted allocations at 2023-06-05T00:00Z"),
        Notice("unallocated-dynamic", "m0", "no usage or allocations at 2023-06-05T00:00Z"),
    ]


def test_axes_without_an_allocation_user_raise():
    axes = Axes(["a", UNALLOCATED_USER], ["c0"], [H(0)])
    with pytest.raises(ValueError, match="user 'b' is not on the ledger's users axis"):
        machine_rows(
            [shared_machine("m0", idle=10.0)], [sample("m0", 0, 30.0)], [alloc("a", gcu=1.0), alloc("b", gcu=1.0)], [], axes
        )


def traced(call):
    """``call()``'s result, and the bytes it holds after a collection and at its peak, under ``tracemalloc``."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


@pytest.fixture(scope="module")
def fleet_1k():
    """The 1k-machine, 12-hour fleet at seed 7, split, with its machine-stage axes."""
    bundle = generate(ScenarioSpec(seed=7, machine_count=1000, user_count=50, cluster_count=20, hours=12))
    split = split_fleet(bundle.machines, bundle.power_samples)
    axes = machine_axes(split, bundle.machines, bundle.resource_allocations.user, bundle.gcu_usage.user)
    return bundle, split, axes


def test_idle_share_table_holds_at_most_32_bytes_per_allocation_row(fleet_1k):
    # A {(cluster, hour): {user: fraction}} dict held 55.6 bytes a row here
    # and peaked at 109.5; flat per-cluster-hour arrays hold 21.4 and peak at 28.6.
    bundle, _, axes = fleet_1k
    allocations = bundle.resource_allocations
    table, held, peak = traced(lambda: idle_share_table(allocations, axes))
    assert sum(len(entry[0]) for entry in table if entry) > 5_000
    assert held <= 32 * len(allocations)
    assert peak <= 64 * len(allocations)


def test_machine_ledger_peaks_under_0_85_mib(fleet_1k):
    # A per-hour machine-id dict, 8-byte chains and nested share dicts
    # peaked at 1.16 MiB here; position-indexed 4-byte chains at 0.63.
    bundle, split, _ = fleet_1k
    (ledger, _), _, peak = traced(
        lambda: machine_ledger(split, bundle.machines, bundle.resource_allocations, bundle.gcu_usage)
    )
    assert len(ledger.idle) > 10_000
    assert peak <= 0.85 * 2**20
