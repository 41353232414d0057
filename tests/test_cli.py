import csv
import dataclasses
import hashlib
import logging
import math
import os
import subprocess
import sys
from datetime import date, datetime, timezone
from pathlib import Path

import pytest

import carbonledger
from carbonledger import check
from carbonledger.check import closure_failures, run_end_to_end
from carbonledger.cli import REPORTS, _clip_bundle, main
from carbonledger.model import GcuUsageTable, PowerSampleTable, ResourceAllocationTable, ServiceUsageTable
from carbonledger.oracle import oracle_allocate
from carbonledger.simulate import ScenarioSpec, generate, preset_spec
from carbonledger.tables import read_bundle, validate_bundle, write_bundle


@pytest.fixture
def figure1_dir(tmp_path):
    bundle_dir = tmp_path / "bundle"
    assert main(["simulate", "--output", str(bundle_dir), "--preset", "figure1"]) == 0
    return bundle_dir


def test_simulate_writes_manifest(figure1_dir):
    assert (figure1_dir / "manifest.json").exists()
    assert (figure1_dir / "machines.csv").exists()


def test_validate_clean_bundle(figure1_dir, tmp_path):
    assert main(["validate", "--input", str(figure1_dir), "--output", str(tmp_path / "v")]) == 0
    report = (tmp_path / "v" / "validation_report.csv").read_text().splitlines()
    assert report == ["code,subject,detail"]


def test_validate_flags_dangling_cluster(tmp_path):
    from carbonledger.model import MachineRecord, Sharing

    bundle = generate(preset_spec("figure1"))
    bundle.machines.append(MachineRecord("stray", "no-such-cluster", Sharing.SHARED, None, 1.0))
    bundle_dir = tmp_path / "broken"
    write_bundle(bundle, bundle_dir)
    assert main(["validate", "--input", str(bundle_dir)]) == 1
    with (bundle_dir / "validation_report.csv").open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 1 and rows[0]["code"] == "unknown-cluster"


def test_validate_missing_file_exits_two(tmp_path, figure1_dir):
    (figure1_dir / "power_samples.csv").unlink()
    assert main(["validate", "--input", str(figure1_dir)]) == 2


def test_run_produces_reports_with_figure_values(figure1_dir, tmp_path, capsys):
    out = tmp_path / "reports"
    assert main(["run", "--input", str(figure1_dir), "--output", str(out)]) == 0
    for name in ("user_energy.csv", "emissions.csv", "footprint_report.csv", "flow_summary.csv"):
        assert (out / name).exists()

    with (out / "user_energy.csv").open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    prod_day = [
        r for r in rows
        if r["user"] == "prod" and r["hour_utc"].endswith("T12:00Z")
    ]
    assert len(prod_day) == 1
    assert float(prod_day[0]["after_minor_round_2_wh"]) == 12_000_000.0

    with (out / "flow_summary.csv").open(newline="") as handle:
        totals = [float(r["energy_wh"]) for r in csv.DictReader(handle) if r["user"] == "TOTAL"]
    assert len(totals) == 4 and len(set(totals)) == 1


def test_run_summary_prints_the_reported_kg(tmp_path, capsys):
    bundle_dir = tmp_path / "bundle"
    assert main(["simulate", "--output", str(bundle_dir), "--preset", "sankey-small"]) == 0
    reported_kg = run_end_to_end(read_bundle(bundle_dir)).footprints.total_kg()
    capsys.readouterr()
    assert main(["run", "--input", str(bundle_dir), "--output", str(tmp_path / "reports")]) == 0
    [summary] = [line for line in capsys.readouterr().out.splitlines() if line.startswith("run complete:")]
    assert f" Wh allocated, {reported_kg:.3f} kgCO2e, reports in " in summary


def test_log_level_flag_shows_debug_lines_only_when_asked(tmp_path, caplog):
    bundle = generate(ScenarioSpec(seed=3, machine_count=6, user_count=3, cluster_count=1, hours=2))
    bundle.power_samples = list(bundle.power_samples)[1:]
    write_bundle(bundle, tmp_path / "bundle")
    run = ["run", "--input", str(tmp_path / "bundle"), "--output", str(tmp_path / "reports")]
    root = logging.getLogger()
    saved = root.level
    try:
        # DEBUG first: the default run after it must lower the level again.
        for flags, shown in ((["--log-level", "DEBUG"], True), ([], False)):
            caplog.clear()
            assert main([*flags, *run]) == 0
            missing = [r for r in caplog.records if "has no sample for 1 hour(s)" in r.getMessage()]
            assert bool(missing) == shown
    finally:
        root.setLevel(saved)


def test_run_empty_date_range_exits_two(figure1_dir, tmp_path):
    code = main([
        "run", "--input", str(figure1_dir), "--output", str(tmp_path / "r"),
        "--start", "2023-06-10", "--end", "2023-06-10",
    ])
    assert code == 2


def test_run_respects_date_window(figure1_dir, tmp_path):
    out = tmp_path / "windowed"
    code = main([
        "run", "--input", str(figure1_dir), "--output", str(out),
        "--start", "2023-06-05", "--end", "2023-06-06",
    ])
    assert code == 0


def test_clip_keeps_in_range_hourly_and_daily_records_and_passes_the_rest_whole():
    bundle = generate(ScenarioSpec(seed=5, machine_count=30, user_count=6, hours=48, cyclic_economy=True))
    first_day, second_day = date(2023, 6, 5), date(2023, 6, 6)
    hourly = ("power_samples", "resource_allocations", "gcu_usage", "service_usage", "pue", "carbon_intensity")
    # (start, end, the days kept): the first day by both bounds, the second by --start alone.
    for start, end, kept_day in ((first_day, second_day, first_day), (second_day, None, second_day)):
        clipped = _clip_bundle(bundle, start, end)
        for name, kind in (
            ("power_samples", PowerSampleTable), ("resource_allocations", ResourceAllocationTable),
            ("gcu_usage", GcuUsageTable), ("service_usage", ServiceUsageTable),
        ):
            assert type(getattr(clipped, name)) is kind, name
        for name in hourly:
            records = getattr(bundle, name)
            kept = [r for r in records if r.hour.date() == kept_day]
            assert 0 < len(kept) < len(records), name
            assert list(getattr(clipped, name)) == kept, name
        for name in ("net_costs", "non_service_costs"):
            records = getattr(bundle, name)
            kept = [r for r in records if r.day == kept_day]
            assert 0 < len(kept) < len(records), name
            assert getattr(clipped, name) == kept, name
        for name in ("machines", "annual_intensity", "zone_map", "sku_catalog", "billing_usage"):
            assert getattr(clipped, name) == getattr(bundle, name) != [], name


def test_oracle_check_passes_on_presets(figure1_dir):
    assert main(["oracle-check", "--input", str(figure1_dir)]) == 0


def test_oracle_check_writes_every_worst_diff(figure1_dir, tmp_path, monkeypatch):
    def disagreeing(bundle, **kwargs):
        result = oracle_allocate(bundle, **kwargs)
        result.emissions_kg = {key: 2.0 * kg for key, kg in result.emissions_kg.items()}
        return result

    compare_with_oracle = check.compare_with_oracle
    compared = []

    def recorded(*args, **kwargs):
        compared.append(compare_with_oracle(*args, **kwargs))
        return compared[-1]

    monkeypatch.setattr(check, "oracle_allocate", disagreeing)
    monkeypatch.setattr(check, "compare_with_oracle", recorded)
    out = tmp_path / "oracle"
    assert main(["oracle-check", "--input", str(figure1_dir), "--output", str(out)]) == 1
    [report] = compared
    assert len(report.worst) == check.KEEP_WORST
    with (out / "oracle_diff.csv").open(newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows == [
        ["table", "key", "pipeline", "oracle", "deviation"],
        *([d.table, d.key, repr(d.pipeline), repr(d.oracle), repr(d.deviation)] for d in report.worst),
    ]


def test_oracle_check_rejects_oversized_bundle(tmp_path):
    from carbonledger.simulate import ScenarioSpec

    big = generate(ScenarioSpec(seed=0, machine_count=250, user_count=4, hours=4))
    bundle_dir = tmp_path / "big"
    write_bundle(big, bundle_dir)
    assert main(["oracle-check", "--input", str(bundle_dir)]) == 2


def test_report_summarizes_run(figure1_dir, tmp_path, capsys):
    out = tmp_path / "reports"
    main(["run", "--input", str(figure1_dir), "--output", str(out)])
    capsys.readouterr()
    assert main(["report", "--input", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "stage energy totals" in printed
    assert "after_minor_round_2" in printed


def test_report_without_run_exits_two(tmp_path):
    assert main(["report", "--input", str(tmp_path)]) == 2


def test_simulate_rejects_bad_spec(tmp_path):
    assert main(["simulate", "--output", str(tmp_path / "x"), "--hours", "0"]) == 2


def test_simulate_preset_refuses_a_flag_it_ignores(tmp_path):
    # Once exited 0 with a 24 h bundle.
    out = tmp_path / "x"
    assert main(["simulate", "--output", str(out), "--preset", "sankey-small", "--hours", "168"]) == 2
    assert not out.exists()
    assert main(["simulate", "--output", str(out), "--preset", "figure1", "--seed", "3", "--machines", "4"]) == 0


def test_run_outputs_are_deterministic(figure1_dir, tmp_path):
    import hashlib

    digests = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["run", "--input", str(figure1_dir), "--output", str(out)]) == 0
        digests.append({
            f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())
        })
    assert digests[0] == digests[1]


def test_oracle_check_empty_bundle_passes(tmp_path):
    from carbonledger.model import Bundle

    bundle_dir = tmp_path / "empty"
    write_bundle(Bundle(), bundle_dir)
    assert main(["oracle-check", "--input", str(bundle_dir)]) == 0


def test_run_and_oracle_check_refuse_a_duplicated_power_sample(tmp_path):
    bundle = generate(preset_spec("figure1"))
    bundle.power_samples.append(bundle.power_samples[0])
    bundle_dir = tmp_path / "duplicated"
    write_bundle(bundle, bundle_dir)
    assert main(["run", "--input", str(bundle_dir), "--output", str(tmp_path / "reports")]) == 1
    assert main(["oracle-check", "--input", str(bundle_dir)]) == 1


def test_duplicate_sku_fails_closed(tmp_path):
    # Once exit 0 with one report, account b at 0.9 kg: the SKU went to the
    # provider listed last, and account a's 0.3 kg moved onto b.
    from carbonledger.model import (
        Bundle, CarbonIntensityRecord, MachineRecord, PowerSample, PueRecord, Sharing, SkuRecord, SkuUsageRecord,
        ZoneMapRow,
    )

    hour = datetime(2023, 6, 5, tzinfo=timezone.utc)
    bundle = Bundle(
        machines=[MachineRecord("m0", "c0", Sharing.DEDICATED, "p1"), MachineRecord("m1", "c1", Sharing.DEDICATED, "p2")],
        power_samples=[PowerSample("m0", hour, 3000.0), PowerSample("m1", hour, 6000.0)],
        pue=[PueRecord("c0", hour, 1.0), PueRecord("c1", hour, 1.0)],
        carbon_intensity=[CarbonIntensityRecord("z0", hour, 100.0), CarbonIntensityRecord("z1", hour, 100.0)],
        zone_map=[ZoneMapRow("c0", "z0", "r0"), ZoneMapRow("c1", "z1", "r1")],
        sku_catalog=[SkuRecord("k0", "prod", "p1", 1.0), SkuRecord("k0", "prod", "p2", 1.0)],
        billing_usage=[SkuUsageRecord("k0", "r0", "a", "2023-06", 10.0), SkuUsageRecord("k0", "r1", "b", "2023-06", 10.0)],
    )
    assert [(v.code, v.subject) for v in validate_bundle(bundle)] == [("duplicate-sku", "k0")]
    bundle_dir = tmp_path / "duplicated"
    write_bundle(bundle, bundle_dir)
    assert main(["validate", "--input", str(bundle_dir), "--output", str(tmp_path / "validate")]) == 1
    assert main(["run", "--input", str(bundle_dir), "--output", str(tmp_path / "reports")]) == 1
    assert not (tmp_path / "reports" / "footprint_report.csv").exists()
    assert main(["oracle-check", "--input", str(bundle_dir)]) == 1


def test_run_refuses_a_conflicting_duplicate_pue_row(tmp_path):
    # Once the second row silently won: 39.83 instead of 39.03 kgCO2e, exit 0.
    bundle = generate(ScenarioSpec(seed=3, machine_count=20, user_count=5, hours=6))
    first = bundle.pue[0]
    bundle.pue.append(dataclasses.replace(first, pue=3.0))
    bundle_dir = tmp_path / "duplicated"
    write_bundle(bundle, bundle_dir)
    assert main(["run", "--input", str(bundle_dir), "--output", str(tmp_path / "reports")]) == 1
    with (tmp_path / "reports" / "validation_report.csv").open(newline="") as handle:
        assert [row["code"] for row in csv.DictReader(handle)] == ["duplicate-pue"]
    assert not (tmp_path / "reports" / "emissions.csv").exists()


def test_nan_power_sample_fails_closed(tmp_path):
    # Once reported NaN kgCO2e with no closure failure and exit 0.
    bundle = generate(ScenarioSpec(seed=3, machine_count=40, user_count=6, hours=24))
    bundle.billing_usage.clear()
    samples = list(bundle.power_samples)
    samples[0] = dataclasses.replace(samples[0], measured_power_watts=math.nan)
    bundle.power_samples = samples

    assert "non-finite-value" in {v.code for v in validate_bundle(bundle)}
    artifacts = run_end_to_end(bundle)
    assert math.isnan(sum(kg for _, _, _, kg, _ in artifacts.emissions.columns()))
    assert closure_failures(bundle, artifacts) != []

    bundle_dir = tmp_path / "nan"
    write_bundle(bundle, bundle_dir)
    for command in ("run", "oracle-check"):
        assert main([command, "--input", str(bundle_dir), "--output", str(tmp_path / command)]) == 2


def test_carbon_that_reaches_no_report_fails_closure(tmp_path, capsys):
    # Once exited 0 with 4,830 kg emitted and 0 kg reported: billing for a
    # month with no emissions skips that month, and June's carbon had no billing.
    # The reports of a run that fails closure are not written, and those of
    # an earlier run in the same directory are removed.
    bundle = generate(preset_spec("two-accounts"))
    good_dir, out = tmp_path / "billed", tmp_path / "reports"
    write_bundle(bundle, good_dir)
    assert main(["run", "--input", str(good_dir), "--output", str(out)]) == 0
    assert all((out / name).exists() for name in REPORTS)

    bundle.billing_usage = [dataclasses.replace(b, month="2023-6") for b in bundle.billing_usage]
    artifacts = run_end_to_end(bundle)
    assert artifacts.footprints.reports == []
    [failure] = closure_failures(bundle, artifacts)
    assert failure.startswith("customer reports total 0 kg != emitted ")

    bundle_dir = tmp_path / "unbilled"
    write_bundle(bundle, bundle_dir)
    capsys.readouterr()
    assert main(["run", "--input", str(bundle_dir), "--output", str(out)]) == 1
    assert "closure failure: customer reports total 0 kg" in capsys.readouterr().err
    assert [name for name in REPORTS if (out / name).exists()] == []


def test_service_usage_in_an_unmapped_cluster_fails_closed(tmp_path):
    # Once exit 0 with a passing closure: major reallocation moved none of the
    # providers' energy (colossus kept 19.68 MWh instead of 7.68 MWh).
    # A refused run also removes the reports an earlier run left in its output.
    bundle = generate(preset_spec("sankey-small"))
    intact_dir, out = tmp_path / "intact", tmp_path / "reports"
    write_bundle(bundle, intact_dir)
    assert main(["run", "--input", str(intact_dir), "--output", str(out)]) == 0
    bundle.service_usage = [dataclasses.replace(su, cluster_id="ghost") for su in bundle.service_usage]
    bundle_dir = tmp_path / "ghost"
    write_bundle(bundle, bundle_dir)
    assert main(["run", "--input", str(bundle_dir), "--output", str(out)]) == 1
    with (out / "validation_report.csv").open(newline="") as handle:
        assert {row["code"] for row in csv.DictReader(handle)} == {"unknown-cluster"}
    assert [name for name in REPORTS if (out / name).exists()] == []


def test_billing_without_accounts_leaves_beta_undefined(tmp_path, capsys):
    # No billed row can absorb the month's carbon, so beta has no denominator.
    bundle = generate(preset_spec("two-accounts"))
    bundle.billing_usage = [dataclasses.replace(b, billing_account=None) for b in bundle.billing_usage]
    bundle_dir, out = tmp_path / "unaccounted", tmp_path / "reports"
    write_bundle(bundle, bundle_dir)
    capsys.readouterr()
    assert main(["run", "--input", str(bundle_dir), "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: no billed SKU usage can absorb")
    assert [name for name in REPORTS if (out / name).exists()] == []


def test_missing_feeds_take_the_missing_intensity_value(tmp_path, capsys):
    # zone-01 has no hourly or annual intensity, and no cluster has PUE at 03:00.
    bundle = generate(ScenarioSpec(seed=3, machine_count=60, user_count=8, cluster_count=3, hours=30))
    bundle.carbon_intensity = [r for r in bundle.carbon_intensity if r.zone_id != "zone-01"]
    bundle.annual_intensity = [r for r in bundle.annual_intensity if r.zone_id != "zone-01"]
    bundle.pue = [r for r in bundle.pue if r.hour.hour != 3]
    bundle_dir, out = tmp_path / "bundle", tmp_path / "reports"
    write_bundle(bundle, bundle_dir)
    run = ["run", "--input", str(bundle_dir), "--output", str(out), "--round-wh", "0", "--round-g", "0"]
    assert main(run) == 1
    capsys.readouterr()
    assert main([*run, "--missing-intensity", "42"]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in MISSING_FEED_REPORTS}
    assert digests == MISSING_FEED_REPORTS
    codes = [line.split()[1] for line in capsys.readouterr().out.splitlines() if line.startswith("notice:")]
    # One missing-intensity notice per cluster-hour (30), where once every user cell had one (240).
    assert (codes.count("missing-intensity"), codes.count("missing-pue")) == (30, 6)


#: The reports of the missing-feed run above, unrounded.
MISSING_FEED_REPORTS = {
    "user_energy.csv": "536df8d5560563976ff5b6b938a058c658392039038fa209bdc73f77fe11a492",
    "emissions.csv": "640c4920e2239aa1c6edab79fbeec6e6c74183d71a5562e6d17aa809d65f4ba2",
    "footprint_report.csv": "53295c9f4b15995ca291b67791c99ef6695a92d10911205a052502b1e1f78fa2",
    "flow_summary.csv": "9b9f0b9fc3b8965fc2b48abc53e2ce73c71f6c9abd1e4b64f87e5ffb33f01678",
}


@pytest.fixture
def pueless_dir(tmp_path):
    bundle = generate(preset_spec("two-accounts"))
    bundle.pue.clear()
    bundle_dir = tmp_path / "pueless"
    write_bundle(bundle, bundle_dir)
    return bundle_dir


@pytest.mark.parametrize(
    "command, flag, value",
    [
        # Once: exit 0 with nan energy cells; exit 0 with less carbon than any
        # valid PUE gives; a ValueError traceback after part of the reports.
        ("run", "--round-wh", "inf"),
        ("run", "--default-pue", "0.5"),
        ("run", "--default-pue", "nan"),
        ("run", "--round-wh", "nan"),
        ("run", "--round-wh", "-1"),
        ("run", "--round-g", "-inf"),
        ("run", "--round-g", "ten"),
        ("run", "--missing-intensity", "-5"),
        ("run", "--missing-intensity", "inf"),
        ("oracle-check", "--default-pue", "0.99"),
        ("oracle-check", "--tolerance", "1e-9"),  # no such flag
    ],
)
def test_float_flags_fail_closed(command, flag, value, pueless_dir, tmp_path):
    out = tmp_path / "reports"
    with pytest.raises(SystemExit) as exited:
        main([command, "--input", str(pueless_dir), "--output", str(out), f"{flag}={value}"])
    assert exited.value.code == 2
    assert not out.exists()


def test_float_flags_take_their_bounds(pueless_dir, tmp_path):
    out = tmp_path / "reports"
    flags = ["--default-pue", "1", "--round-wh", "0", "--round-g", "0", "--missing-intensity", "0"]
    assert main(["run", "--input", str(pueless_dir), "--output", str(out), *flags]) == 0
    assert main(["oracle-check", "--input", str(pueless_dir), "--default-pue", "1"]) == 0


@pytest.mark.parametrize(
    "flags",
    [
        ["--round-wh", "1"],
        ["--round-g", "1"],
        ["--missing-intensity", "0"],
        ["--missing-intensity", "42", "--round-g", "0"],
    ],
)
def test_oracle_check_refuses_the_run_only_flags(flags, figure1_dir, tmp_path):
    # oracle-check once accepted these and never read them.
    out = tmp_path / "oracle"
    with pytest.raises(SystemExit) as exited:
        main(["oracle-check", "--input", str(figure1_dir), "--output", str(out), *flags])
    assert exited.value.code == 2
    assert not out.exists()


#: SHA-256 of the run reports, per case: simulate options, run options and
#: digests. Refactors must keep them byte-identical under every hash seed.
#: The seed-3 fleet's footprint_report.csv once followed PYTHONHASHSEED,
#: because beta summed its scope in set order. The unrounded case carries
#: every float bit, so a change in the order of any sum shows here.
RECORDED_REPORTS = {
    "figure1": (
        ["--preset", "figure1"],
        [],
        {
            "user_energy.csv": "419879f6bc371a255c8764ea3d870018995508c6888a6454c30ee5c97c978481",
            "emissions.csv": "56044229a9fe0cbd76a350bd3725842d92f52f0833f05e701238b5f8a1ae4299",
            "footprint_report.csv": "5ff983002add6f4d302481e6d46c46c2c5aca9390dabeb17df199aa88ec8ce67",
            "flow_summary.csv": "5212cd9c832af59cd9e2824f3f0dc40aee53653e41a1560604a97ae4153eb3d8",
        },
    ),
    "seed5-300-cyclic-unbilled": (
        ["--seed", "5", "--machines", "300", "--cyclic-economy", "--unbilled-usage"],
        [],
        {
            "user_energy.csv": "324d9a8001e223be76f6d62b76af4674e8c1fdd1dbb568de1d50fbed51a1eba6",
            "emissions.csv": "61ceeca9b7bbf8d325b0164a1235e7f5c8c29dd1268aecb8e8b5c3dc172d1f33",
            "footprint_report.csv": "e046b32f981f9e54404b74e0f319aa45f80b70abadf5d0bd38e63b515c3f3663",
            "flow_summary.csv": "c6f468603b7f4378c70257d933b69cd1c0bc493e21c9d00241b38309966e6dad",
        },
    ),
    "seed3-100-12h": (
        ["--seed", "3", "--machines", "100", "--users", "30", "--clusters", "4", "--hours", "12"],
        [],
        {
            "user_energy.csv": "a1ac4045ec205af6331ff47a4c1f9e7a199d93aee95816948bffd104987c0f3b",
            "emissions.csv": "0368be229f3dffb540992693f9d10f993f350f1e096d511ef6cbee7e58d257b5",
            "footprint_report.csv": "f9de0c04ddd084d847d54cb989576fea4e4b3cdc1f105574c92355d22d36aad6",
            "flow_summary.csv": "d69695e0e70b5ecb60846f38b04b8093e139433564dadfd8addb960f16c86da4",
        },
    ),
    "seed5-300-cyclic-unbilled-unrounded": (
        ["--seed", "5", "--machines", "300", "--cyclic-economy", "--unbilled-usage"],
        ["--round-wh", "0", "--round-g", "0"],
        {
            "user_energy.csv": "c8838b0b0a2673071b564760de1c2cc2957058992d2e08e0b7faef309b66337a",
            "emissions.csv": "743388949cb2c30f0e95367dda5911f7176c2acb9941cb4c28bb019673078961",
            "footprint_report.csv": "ad5da0ecc1c48e39df80ecbd3290f840ca5e096b6cca77877d997f5c8c004345",
            "flow_summary.csv": "50d9b91cb981edf9e3cca28d2a74f3f6f39d8f1a40c5e0d5e00a5e61b676ce1b",
        },
    ),
}

#: Simulates into argv[1], runs, and prints "<report> <sha256>" per report
#: named in argv[2]; argv[3] holds the run options, space-separated, and
#: argv[4:] are the simulate options.
RUN_AND_HASH = """
import contextlib, hashlib, io, sys
from carbonledger.cli import main
work, names, run_options, options = sys.argv[1], sys.argv[2].split(","), sys.argv[3].split(), sys.argv[4:]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["simulate", "--output", work + "/bundle", *options]) == 0
    assert main(["run", "--input", work + "/bundle", "--output", work + "/reports", *run_options]) == 0
for name in names:
    with open(work + "/reports/" + name, "rb") as handle:
        print(name, hashlib.sha256(handle.read()).hexdigest())
"""


@pytest.mark.parametrize("hash_seed", ["0", "1", "42"])
@pytest.mark.parametrize("case", sorted(RECORDED_REPORTS))
def test_run_reports_match_recorded_digests(case, hash_seed, tmp_path):
    args, run_args, expected = RECORDED_REPORTS[case]
    src = str(Path(carbonledger.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", RUN_AND_HASH, str(tmp_path), ",".join(expected), " ".join(run_args), *args],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert dict(line.split() for line in done.stdout.splitlines()) == expected
