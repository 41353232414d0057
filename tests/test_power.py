import math

import pytest
from hypothesis import given, strategies as st

from carbonledger.errors import InputError
from carbonledger.model import ClusterTopology, ZoneMapRow, validate_fleet
from carbonledger.power import split_fleet, split_power

from conftest import H, sample, shared_machine

watts = st.floats(min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False)


def test_clamped_split_at_high_utilization():
    # 6 MW rating, 14 MW measured: the daytime half of the worked scenario.
    split = split_power(shared_machine(idle=6e6), sample(watts=14e6))
    assert split.idle_watts == 6e6
    assert split.dynamic_watts == 8e6


def test_clamped_split_at_night_utilization():
    split = split_power(shared_machine(idle=6e6), sample(watts=12e6))
    assert split.idle_watts == 6e6
    assert split.dynamic_watts == 6e6


def test_rating_above_measured_clamps_idle():
    split = split_power(shared_machine(idle=10.0), sample(watts=8.0))
    assert split.idle_watts == 8.0
    assert split.dynamic_watts == 0.0


def test_powered_off_machine():
    split = split_power(shared_machine(idle=0.0), sample(watts=0.0))
    assert split.idle_watts == 0.0
    assert split.dynamic_watts == 0.0


def test_mismatched_identifiers_rejected():
    with pytest.raises(InputError):
        split_power(shared_machine("m0"), sample("other"))


def test_negative_measured_power_rejected():
    with pytest.raises(InputError):
        split_power(shared_machine("m0"), sample(watts=-1.0))


@given(rating=watts, measured=watts)
def test_split_bounds_and_exact_sum(rating, measured):
    split = split_power(shared_machine(idle=rating), sample(watts=measured))
    assert 0.0 <= split.idle_watts <= measured
    assert split.dynamic_watts >= 0.0
    # dynamic is computed as measured - idle, so re-adding idle may round
    # by at most one ulp of the measured value.
    assert abs(split.idle_watts + split.dynamic_watts - measured) <= math.ulp(measured)


@given(measured=watts, low=watts, high=watts)
def test_higher_rating_never_lowers_idle(measured, low, high):
    low, high = min(low, high), max(low, high)
    split_low = split_power(shared_machine(idle=low), sample(watts=measured))
    split_high = split_power(shared_machine(idle=high), sample(watts=measured))
    assert split_high.idle_watts >= split_low.idle_watts
    assert split_high.dynamic_watts <= split_low.dynamic_watts


def test_cluster_series_single_machine():
    machines = [shared_machine("m0", idle=6.0)]
    splits = split_fleet(machines, [sample("m0", 0, 14.0)])
    assert [(s.machine_id, s.hour) for s in splits] == [("m0", H(0))]
    assert [(s.idle_watts, s.dynamic_watts, s.total_watts) for s in splits] == [(6.0, 8.0, 14.0)]


def test_cluster_series_figure_scenario_night():
    machines = [shared_machine("m0", idle=6e6)]
    splits = split_fleet(machines, [sample("m0", 0, 12e6)])
    assert [(s.idle_watts, s.dynamic_watts, s.total_watts) for s in splits] == [(6e6, 6e6, 12e6)]


def test_missing_sample_contributes_nothing():
    machines = [shared_machine("m0"), shared_machine("m1")]
    splits = split_fleet(machines, [sample("m0", 0, 40.0)])
    assert [(s.machine_id, s.total_watts) for s in splits] == [("m0", 40.0)]


def test_unknown_cluster_rejected():
    machines = [shared_machine("m0", cluster="ghost")]
    samples = [sample("m0", 0, 10.0)]
    topology = ClusterTopology.from_rows([ZoneMapRow("c0", "z0", "r0")])
    assert [(v.code, v.subject) for v in validate_fleet(machines, samples, topology)] == [("unknown-cluster", "m0")]
    with pytest.raises(InputError):
        split_fleet(machines, [sample("ghost-machine", 0, 10.0)])


@given(data=st.data())
def test_random_fleet_totals_match_independent_resummation(data):
    # Oracle: re-sum the raw samples directly, bypassing the split step.
    count = data.draw(st.integers(min_value=1, max_value=50))
    machines = []
    samples = []
    for i in range(count):
        rating = data.draw(watts, label=f"rating{i}")
        measured = data.draw(watts, label=f"measured{i}")
        machines.append(shared_machine(f"m{i}", idle=rating))
        samples.append(sample(f"m{i}", 0, measured))
    splits = split_fleet(machines, samples)
    expected_total = sum(s.measured_power_watts for s in samples)
    idle = sum(s.idle_watts for s in splits)
    dynamic = sum(s.dynamic_watts for s in splits)
    assert sum(s.total_watts for s in splits) == pytest.approx(expected_total, rel=1e-12)
    assert idle + dynamic == pytest.approx(expected_total, rel=1e-12)
