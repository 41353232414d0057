"""Each closure identity catches the corruption of the artifact it guards."""

import dataclasses

import pytest

from carbonledger import services
from carbonledger.allocation import STAGE_MACHINE
from carbonledger.check import closure_failures, run_end_to_end
from carbonledger.simulate import ScenarioSpec, generate, preset_spec

from conftest import H


@pytest.fixture
def sankey():
    bundle = generate(preset_spec("sankey-small"))
    artifacts = run_end_to_end(bundle)
    assert closure_failures(bundle, artifacts) == []
    return bundle, artifacts


def test_wh_shifted_between_cluster_hours_of_a_later_stage(sankey):
    bundle, artifacts = sankey
    stage = artifacts.allocation.stages[1]
    axes = stage.cells.axes
    source = stage.cells.rows[axes.cell("user-one", "cluster-01", H(3))]
    target = stage.cells.rows[axes.cell("user-one", "cluster-02", H(7))]
    moved = stage.total[source] / 2
    stage.total[source] -= moved
    stage.total[target] += moved
    failures = closure_failures(bundle, artifacts)
    for key in (("cluster-01", H(3)), ("cluster-02", H(7))):
        assert any(f.startswith(f"{stage.stage}: cluster-hour {key} holds ") for f in failures), failures
    assert not any("drifted" in f for f in failures)


def test_a_stage_total_that_drifts(sankey):
    bundle, artifacts = sankey
    stage = artifacts.allocation.stages[2]
    stage.total[0] += 1.0
    failures = closure_failures(bundle, artifacts)
    assert any(f.startswith(f"stage {stage.stage}: total ") and "drifted from" in f for f in failures), failures


def test_a_doubled_sku_rate(sankey):
    bundle, artifacts = sankey
    [(month, allocation)] = artifacts.footprints.months.items()
    allocation.rates["sku-ads"] *= 2
    failures = closure_failures(bundle, artifacts)
    assert any(f.startswith(f"{month}: provider ads SKU energy ") for f in failures), failures


def test_a_scaled_adjusted_intensity(sankey):
    bundle, artifacts = sankey
    [(month, allocation)] = artifacts.footprints.months.items()
    allocation.adjusted["sku-user-two", "region-01"] *= 1.5
    failures = closure_failures(bundle, artifacts)
    assert any(f.startswith(f"{month}: provider user-two SKU carbon ") for f in failures), failures
    assert not any("SKU energy" in f for f in failures)


def test_a_dropped_report_row(sankey):
    bundle, artifacts = sankey
    dropped = artifacts.footprints.reports.pop(1)
    failures = closure_failures(bundle, artifacts)
    assert any(f.startswith(f"{dropped.month}: customer reports total ") for f in failures), failures


def test_energy_credited_to_an_unsampled_cluster_hour(monkeypatch):
    # Once passed with no failure: closure compared only the cluster-hours
    # some sample reached, and reported carbon rose by 303 kg.
    bundle = generate(preset_spec("sankey-small"))
    machine_id, hour = bundle.power_samples.machine_id, bundle.power_samples.hour
    cluster_of = {m.machine_id: m.cluster_id for m in bundle.machines}
    bundle.power_samples = bundle.power_samples.where(
        [(cluster_of[m], h) != ("cluster-02", H(5)) for m, h in zip(machine_id, hour)]
    )
    build = services.build_machine_ledger

    def credit_unsampled(*args):
        ledger, notices = build(*args)
        ledger.idle[ledger.row(ledger.cells.axes.cell("user-one", "cluster-02", H(5)))] += 5e5
        return ledger, notices

    monkeypatch.setattr(services, "build_machine_ledger", credit_unsampled)
    artifacts = run_end_to_end(bundle)
    failures = closure_failures(bundle, artifacts)
    key = ("cluster-02", H(5))
    assert [f for f in failures if "appeared in powerless" in f] == [
        f"{stage.stage}: energy 500000.0 appeared in powerless {key}" for stage in artifacts.allocation.stages
    ]
    assert failures[0] == f"{STAGE_MACHINE}: energy 500000.0 appeared in powerless {key}"


def test_artifacts_of_a_bundle_with_one_hour_less():
    longer = generate(ScenarioSpec(seed=3, machine_count=20, user_count=5, hours=7))
    samples = longer.power_samples
    shorter = dataclasses.replace(longer, power_samples=samples.where([h < H(6) for h in samples.hour]))
    artifacts = run_end_to_end(shorter)
    assert closure_failures(shorter, artifacts) == []
    cluster_of = {m.machine_id: m.cluster_id for m in longer.machines}
    key = (cluster_of[samples.machine_id[samples.hour.index(H(6))]], H(6))
    failures = closure_failures(longer, artifacts)
    assert any(str(key) in f for f in failures), failures
