import dataclasses
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import carbonledger
from carbonledger import check
from carbonledger.carbon import IntensitySource
from carbonledger.check import closure_failures, compare_with_oracle, run_end_to_end
from carbonledger.errors import OracleSizeError
from carbonledger.model import (
    Bundle,
    GcuUsageRecord,
    GcuUsageTable,
    PowerSampleTable,
    ResourceAllocationRecord,
    ResourceAllocationTable,
    ResourceVector,
    ServiceUsageTable,
)
from carbonledger.oracle import oracle_allocate
from carbonledger.services import run_allocation_pipeline
from carbonledger.simulate import ScenarioSpec, generate, preset_spec

from conftest import H, sample, shared_machine


def test_oracle_matches_pipeline_on_figure1_exactly():
    bundle = generate(preset_spec("figure1"))
    report = compare_with_oracle(bundle)
    assert report.max_deviation == 0.0


@pytest.mark.parametrize("seed", range(4))
def test_oracle_equivalence_on_random_fleets(seed):
    spec = ScenarioSpec(seed=seed, machine_count=40, user_count=8, cluster_count=3, hours=24)
    report = compare_with_oracle(generate(spec))
    assert report.within(1e-9), report.worst[:3]


def test_oracle_comparison_fails_on_a_stage_the_oracle_lacks(monkeypatch):
    # Once the stage was skipped, and the comparison passed without it.
    def without_round_2(bundle, **kwargs):
        result = oracle_allocate(bundle, **kwargs)
        del result.stage_totals["after_minor_round_2"]
        return result

    monkeypatch.setattr(check, "oracle_allocate", without_round_2)
    report = compare_with_oracle(generate(preset_spec("figure1")))
    assert report.table_max["after_minor_round_2"] == 1.0
    assert not report.within()


def test_oracle_equivalence_with_unbilled_usage_and_cycles():
    spec = ScenarioSpec(
        seed=12, machine_count=30, user_count=7, hours=18,
        cyclic_economy=True, include_unbilled_usage=True,
    )
    report = compare_with_oracle(generate(spec))
    assert report.within(1e-9), report.worst[:3]


def test_oracle_equivalence_with_emission_fallbacks():
    # cluster-01 has no PUE, zone-02 (cluster-02's) no hourly intensity, and hour 5 no power.
    bundle = generate(ScenarioSpec(seed=3, machine_count=40, user_count=8, cluster_count=3, hours=24))
    bundle.pue = [p for p in bundle.pue if p.cluster_id != "cluster-01"]
    bundle.carbon_intensity = [r for r in bundle.carbon_intensity if r.zone_id != "zone-02"]
    bundle.power_samples = [
        dataclasses.replace(s, measured_power_watts=0.0) if s.hour == H(5) else s for s in bundle.power_samples
    ]
    report = compare_with_oracle(bundle)
    assert report.within(1e-9), report.worst[:3]
    artifacts = run_end_to_end(bundle)
    assert closure_failures(bundle, artifacts) == []
    assert ("missing-pue", "cluster-01") in {(n.code, n.subject) for n in artifacts.emissions.notices}
    fallback = [source for (_, cluster, _), source in zip(artifacts.emissions.keys, artifacts.emissions.sources)
                if cluster == "cluster-02"]
    assert fallback and set(fallback) == {IntensitySource.ANNUAL_FALLBACK}


#: Prints the worst diffs of a seed-3 fleet (60 machines, 24 h) against an
#: oracle whose emissions are doubled, so every emission row deviates by 0.5.
WORST_DIFFS = """
from carbonledger import check
from carbonledger.simulate import ScenarioSpec, generate
reference = check.oracle_allocate

def disagreeing(bundle, **kwargs):
    result = reference(bundle, **kwargs)
    result.emissions_kg = {key: 2.0 * kg for key, kg in result.emissions_kg.items()}
    return result

check.oracle_allocate = disagreeing
for d in check.compare_with_oracle(generate(ScenarioSpec(seed=3, machine_count=60, hours=24))).worst:
    print(d.table, d.key, repr(d.pipeline), repr(d.oracle), repr(d.deviation))
"""


def test_worst_oracle_diffs_do_not_follow_the_hash_seed():
    # Once tied deviations kept set order, so oracle_diff.csv changed with PYTHONHASHSEED.
    src = str(Path(carbonledger.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    printed = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-c", WORST_DIFFS], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        printed.append(done.stdout)
    assert len(printed[0].splitlines()) == check.KEEP_WORST
    assert printed[0] == printed[1]


def test_oracle_iterates_each_column_table_once(monkeypatch):
    # A column table builds its records on every pass, so a pass per cluster-hour rebuilds them all each time.
    bundle = generate(ScenarioSpec(seed=1, machine_count=20, user_count=5, cluster_count=2, hours=6))
    kinds = (PowerSampleTable, ResourceAllocationTable, GcuUsageTable, ServiceUsageTable)
    assert all(len(getattr(bundle, name)) for name in ("resource_allocations", "service_usage"))
    passes = Counter()
    for kind in kinds:
        def counted(table, iterate=kind.__iter__):
            passes[type(table)] += 1
            return iterate(table)

        monkeypatch.setattr(kind, "__iter__", counted)
    oracle_allocate(bundle)
    assert passes == Counter(kinds)


def test_oracle_refuses_too_many_machines():
    bundle = Bundle(machines=[shared_machine(f"m{i}") for i in range(201)])
    with pytest.raises(OracleSizeError):
        oracle_allocate(bundle)


def test_oracle_refuses_too_many_users():
    bundle = Bundle(
        machines=[shared_machine("m0")],
        resource_allocations=[
            ResourceAllocationRecord(f"u{i}", "c0", H(0), ResourceVector(gcu=1.0)) for i in range(21)
        ],
    )
    with pytest.raises(OracleSizeError):
        oracle_allocate(bundle)


def test_oracle_refuses_too_many_hours():
    bundle = Bundle(
        machines=[shared_machine("m0")],
        power_samples=[sample("m0", i, 1.0) for i in range(73)],
    )
    with pytest.raises(OracleSizeError):
        oracle_allocate(bundle)


def test_oracle_empty_bundle():
    result = oracle_allocate(Bundle())
    assert result.stage_totals["final"] == {}
    assert result.emissions_kg == {}
    assert result.footprints_kg == {}


def test_round_count_mismatch_localizes_to_minor_consumers():
    # Controlled perturbation: one pipeline round against the oracle's two.
    bundle = generate(preset_spec("sankey-small"))
    short = run_allocation_pipeline(bundle, rounds=1)
    reference = oracle_allocate(bundle, rounds=2)

    final_short = {k: idle + dynamic for k, idle, dynamic in short.final.rows() if idle + dynamic != 0.0}
    final_ref = reference.stage_totals["final"]
    differing_users = set()
    for key in set(final_short) | set(final_ref):
        a, b = final_short.get(key, 0.0), final_ref.get(key, 0.0)
        if abs(a - b) > 1e-6:
            differing_users.add(key[0])
    assert differing_users == {"cloud-storage", "user-one", "user-two"}


def test_oracle_usage_fallbacks_match_pipeline():
    # One machine-hour with dynamic power but no usage records at all.
    bundle = Bundle(
        machines=[shared_machine("m0", idle=10.0), shared_machine("m1", idle=5.0)],
        power_samples=[sample("m0", 0, 30.0), sample("m1", 0, 25.0)],
        resource_allocations=[
            ResourceAllocationRecord("a", "c0", H(0), ResourceVector(gcu=3.0)),
            ResourceAllocationRecord("b", "c0", H(0), ResourceVector(gcu=1.0)),
        ],
        gcu_usage=[GcuUsageRecord("b", "m1", H(0), 2.0)],
    )
    pipeline = run_allocation_pipeline(bundle)
    reference = oracle_allocate(bundle)
    table = {k: idle + dynamic for k, idle, dynamic in pipeline.final.rows() if idle + dynamic != 0.0}
    assert set(table) == set(reference.stage_totals["final"])
    for key, value in table.items():
        assert value == pytest.approx(reference.stage_totals["final"][key], rel=1e-12)
