import csv
import dataclasses
import math

import pytest

from carbonledger.check import closure_failures, run_end_to_end
from carbonledger.cli import main
from carbonledger.model import validate_bundle
from carbonledger.simulate import ScenarioSpec, generate, preset_spec
from carbonledger.tables import write_bundle


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


def test_oracle_check_passes_on_presets(figure1_dir):
    assert main(["oracle-check", "--input", str(figure1_dir)]) == 0


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


def test_nan_power_sample_fails_closed(tmp_path):
    # Once reported NaN kgCO2e with no closure failure and exit 0.
    bundle = generate(ScenarioSpec(seed=3, machine_count=40, user_count=6, hours=24))
    bundle.billing_usage.clear()
    bundle.power_samples[0] = dataclasses.replace(bundle.power_samples[0], measured_power_watts=math.nan)

    assert "non-finite-value" in {v.code for v in validate_bundle(bundle)}
    artifacts = run_end_to_end(bundle)
    assert math.isnan(artifacts.emissions.total_kg())
    assert closure_failures(bundle, artifacts) != []

    bundle_dir = tmp_path / "nan"
    write_bundle(bundle, bundle_dir)
    for command in ("run", "oracle-check"):
        assert main([command, "--input", str(bundle_dir), "--output", str(tmp_path / command)]) == 2
