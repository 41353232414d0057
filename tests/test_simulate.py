import json
import statistics

import pytest

from carbonledger.errors import ScenarioError
from carbonledger.model import Sharing, validate_bundle
from carbonledger.simulate import (
    PRESETS,
    ScenarioSpec,
    generate,
    intensity_feed,
    preset_spec,
)
from carbonledger.tables import write_bundle

from conftest import H


def test_identical_seeds_produce_identical_files(tmp_path):
    spec = ScenarioSpec(seed=42, machine_count=15, user_count=4, hours=12)
    write_bundle(generate(spec), tmp_path / "a", manifest_extra={"seed": 42})
    write_bundle(generate(spec), tmp_path / "b", manifest_extra={"seed": 42})
    hashes_a = json.loads((tmp_path / "a" / "manifest.json").read_text())["files"]
    hashes_b = json.loads((tmp_path / "b" / "manifest.json").read_text())["files"]
    assert hashes_a == hashes_b


def test_different_seeds_differ():
    a = generate(ScenarioSpec(seed=1, machine_count=10, hours=6))
    b = generate(ScenarioSpec(seed=2, machine_count=10, hours=6))
    assert a.power_samples != b.power_samples


@pytest.mark.parametrize("preset", PRESETS)
def test_presets_generate_valid_bundles(preset):
    assert validate_bundle(generate(preset_spec(preset))) == []


def test_random_bundles_are_valid():
    for seed in range(5):
        bundle = generate(ScenarioSpec(seed=seed, machine_count=30, user_count=6, hours=12))
        assert validate_bundle(bundle) == []


def test_figure1_preset_emits_exact_scenario():
    bundle = generate(preset_spec("figure1"))
    assert len(bundle.machines) == 1
    machine = bundle.machines[0]
    assert machine.sharing is Sharing.SHARED
    assert machine.idle_rating_watts == 6e6

    by_hour = {s.hour: s.measured_power_watts for s in bundle.power_samples}
    day_hours = [h for h in by_hour if 8 <= h.hour < 20]
    night_hours = [h for h in by_hour if not 8 <= h.hour < 20]
    assert len(day_hours) == 12 and len(night_hours) == 12
    assert all(by_hour[h] == 14e6 for h in day_hours)
    assert all(by_hour[h] == 12e6 for h in night_hours)

    shares = {}
    for rec in bundle.gcu_usage:
        shares.setdefault(rec.hour, {})[rec.user] = rec.gcu_used
    for hour in day_hours:
        total = sum(shares[hour].values())
        assert shares[hour]["prod"] / total == pytest.approx(0.75, abs=1e-12)
    for hour in night_hours:
        total = sum(shares[hour].values())
        assert shares[hour]["prod"] / total == pytest.approx(0.50, abs=1e-12)

    allocated_users = {a.user for a in bundle.resource_allocations}
    assert allocated_users == {"prod"}


def test_figure1_split_variant_preserves_totals():
    whole = generate(preset_spec("figure1"))
    split = generate(preset_spec("figure1", machine_count=8))
    assert len(split.machines) == 8
    for hour in {s.hour for s in whole.power_samples}:
        total_whole = sum(s.measured_power_watts for s in whole.power_samples if s.hour == hour)
        total_split = sum(s.measured_power_watts for s in split.power_samples if s.hour == hour)
        assert total_split == pytest.approx(total_whole, rel=1e-12)
    assert sum(m.idle_rating_watts for m in split.machines) == pytest.approx(6e6, rel=1e-12)


def test_contradictory_specs_rejected():
    with pytest.raises(ScenarioError):
        ScenarioSpec(intensity_mean=-5.0).validate()
    with pytest.raises(ScenarioError):
        preset_spec("no-such-preset")
    with pytest.raises(ScenarioError):
        generate(ScenarioSpec(hours=0))


def test_intensity_feed_matches_target_mean():
    spec = ScenarioSpec(seed=11)
    hourly, annual = intensity_feed(spec, zones=[f"z{i}" for i in range(10)], hours=[H(i) for i in range(400)])
    values = [r.intensity_g_per_kwh for r in hourly]
    assert len(values) == 4000
    assert statistics.fmean(values) == pytest.approx(320.8, rel=0.05)
    assert min(values) >= 0.0
    assert {a.intensity_g_per_kwh for a in annual} == {320.8}


def test_intensity_feed_zero_std_is_flat():
    spec = ScenarioSpec(seed=3, intensity_std=0.0, intensity_mean=100.0)
    hourly, _ = intensity_feed(spec, zones=["z"], hours=[H(i) for i in range(5)])
    assert all(r.intensity_g_per_kwh == 100.0 for r in hourly)
