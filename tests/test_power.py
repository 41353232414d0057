import gc
import math
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from carbonledger.errors import InputError
from carbonledger.model import Bundle, GcuUsageTable, PowerSampleTable, ResourceAllocationTable, ZoneMapRow
from carbonledger.power import idle_watts, split_fleet
from carbonledger.simulate import ScenarioSpec, generate
from carbonledger.tables import validate_bundle

from conftest import H, cells_of, dedicated_machine, machine_ledger, sample, shared_machine

watts = st.floats(min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False)


def split_rows(split, machines):
    """(machine_id, hour, idle, dynamic) per machine-hour, hour by hour, read through the row buckets."""
    rating_of = {m.machine_id: m.idle_rating_watts for m in machines}
    rows = []
    for part in split:
        for row in part.rows:
            machine_id = split.samples.machine_id[row]
            measured = split.samples.measured_power_watts[row]
            idle = idle_watts(rating_of[machine_id], measured)
            rows.append((machine_id, part.hour, idle, measured - idle))
    return rows


def split_one(rating, measured):
    """(idle, dynamic) of one machine-hour, which the machine stage credits to the owner unchanged."""
    samples = PowerSampleTable([sample(watts=measured)])
    machines = [dedicated_machine(idle=rating)]
    split = split_fleet(machines, samples)
    [(_, _, idle, dynamic)] = split_rows(split, machines)
    ledger, _ = machine_ledger(split, machines, ResourceAllocationTable(), GcuUsageTable())
    assert cells_of(ledger) == {("alice", "c0", H(0)): (idle, dynamic)}
    return idle, dynamic


def test_clamped_split_at_high_utilization():
    # 6 MW rating, 14 MW measured: the daytime half of the worked scenario.
    assert split_one(6e6, 14e6) == (6e6, 8e6)


def test_clamped_split_at_night_utilization():
    assert split_one(6e6, 12e6) == (6e6, 6e6)


def test_rating_above_measured_clamps_idle():
    assert split_one(10.0, 8.0) == (8.0, 0.0)


def test_powered_off_machine():
    assert split_one(0.0, 0.0) == (0.0, 0.0)


def test_mismatched_identifiers_rejected():
    with pytest.raises(InputError):
        split_fleet([shared_machine("m0")], PowerSampleTable([sample("other")]))


def test_negative_measured_power_rejected():
    with pytest.raises(InputError):
        split_fleet([shared_machine("m0")], PowerSampleTable([sample(watts=-1.0)]))


@given(rating=watts, measured=watts)
def test_split_bounds_and_exact_sum(rating, measured):
    idle, dynamic = split_one(rating, measured)
    assert 0.0 <= idle <= measured
    assert dynamic >= 0.0
    # dynamic is computed as measured - idle, so re-adding idle may round
    # by at most one ulp of the measured value.
    assert abs(idle + dynamic - measured) <= math.ulp(measured)


@given(measured=watts, low=watts, high=watts)
def test_higher_rating_never_lowers_idle(measured, low, high):
    low, high = min(low, high), max(low, high)
    idle_low, dynamic_low = split_one(low, measured)
    idle_high, dynamic_high = split_one(high, measured)
    assert idle_high >= idle_low
    assert dynamic_high <= dynamic_low


def test_cluster_series_single_machine():
    machines = [shared_machine("m0", idle=6.0)]
    split = split_fleet(machines, PowerSampleTable([sample("m0", 0, 14.0)]))
    assert len(split) == 1
    assert split_rows(split, machines) == [("m0", H(0), 6.0, 8.0)]


def test_cluster_series_figure_scenario_night():
    machines = [shared_machine("m0", idle=6e6)]
    split = split_fleet(machines, PowerSampleTable([sample("m0", 0, 12e6)]))
    assert [(idle, dynamic, idle + dynamic) for _, _, idle, dynamic in split_rows(split, machines)] == [(6e6, 6e6, 12e6)]


def test_missing_sample_contributes_nothing():
    machines = [shared_machine("m0"), shared_machine("m1")]
    split = split_fleet(machines, PowerSampleTable([sample("m0", 0, 40.0)]))
    assert [(machine_id, idle + dynamic) for machine_id, _, idle, dynamic in split_rows(split, machines)] == [("m0", 40.0)]


def test_unknown_cluster_rejected():
    machines = [shared_machine("m0", cluster="ghost")]
    samples = [sample("m0", 0, 10.0)]
    bundle = Bundle(machines=machines, power_samples=samples, zone_map=[ZoneMapRow("c0", "z0", "r0")])
    assert [(v.code, v.subject) for v in validate_bundle(bundle)] == [("unknown-cluster", "m0")]
    with pytest.raises(InputError):
        split_fleet(machines, PowerSampleTable([sample("ghost-machine", 0, 10.0)]))


@given(data=st.data())
def test_random_fleet_totals_match_independent_resummation(data):
    # Oracle: re-sum the raw samples directly, bypassing the split step.
    count = data.draw(st.integers(min_value=1, max_value=50))
    machines = []
    samples = PowerSampleTable()
    for i in range(count):
        rating = data.draw(watts, label=f"rating{i}")
        measured = data.draw(watts, label=f"measured{i}")
        machines.append(shared_machine(f"m{i}", idle=rating))
        samples.append(sample(f"m{i}", 0, measured))
    rows = split_rows(split_fleet(machines, samples), machines)
    expected_total = sum(s.measured_power_watts for s in samples)
    idle = sum(row[2] for row in rows)
    dynamic = sum(row[3] for row in rows)
    assert sum(row[2] + row[3] for row in rows) == pytest.approx(expected_total, rel=1e-12)
    assert idle + dynamic == pytest.approx(expected_total, rel=1e-12)


def test_split_holds_at_most_8_bytes_per_sample():
    # A machine-id reference and an idle and a dynamic float per sample once
    # held 26.1 bytes a sample here; 4-byte row numbers hold 4.4.
    bundle = generate(ScenarioSpec(seed=7, machine_count=1000, user_count=50, cluster_count=20, hours=12))
    gc.collect()
    tracemalloc.start()
    try:
        split = split_fleet(bundle.machines, bundle.power_samples)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(split) == len(bundle.power_samples) > 10_000
    assert held <= 8 * len(bundle.power_samples)
