import csv
import dataclasses
import hashlib
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import carbonledger
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


def test_log_level_flag_shows_debug_lines_only_when_asked(tmp_path, caplog):
    bundle = generate(ScenarioSpec(seed=3, machine_count=6, user_count=3, cluster_count=1, hours=2))
    del bundle.power_samples[0]
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
    bundle.power_samples[0] = dataclasses.replace(bundle.power_samples[0], measured_power_watts=math.nan)

    assert "non-finite-value" in {v.code for v in validate_bundle(bundle)}
    artifacts = run_end_to_end(bundle)
    assert math.isnan(artifacts.emissions.total_kg())
    assert closure_failures(bundle, artifacts) != []

    bundle_dir = tmp_path / "nan"
    write_bundle(bundle, bundle_dir)
    for command in ("run", "oracle-check"):
        assert main([command, "--input", str(bundle_dir), "--output", str(tmp_path / command)]) == 2


#: SHA-256 of the run reports. Refactors must keep them byte-identical under
#: every hash seed. footprint_report.csv is left out: its beta sums over a
#: set of users, so its last bits follow PYTHONHASHSEED.
RECORDED_REPORTS = {
    "figure1": (
        ["--preset", "figure1"],
        {
            "user_energy.csv": "419879f6bc371a255c8764ea3d870018995508c6888a6454c30ee5c97c978481",
            "emissions.csv": "56044229a9fe0cbd76a350bd3725842d92f52f0833f05e701238b5f8a1ae4299",
            "flow_summary.csv": "5212cd9c832af59cd9e2824f3f0dc40aee53653e41a1560604a97ae4153eb3d8",
        },
    ),
    "seed5-300-cyclic-unbilled": (
        ["--seed", "5", "--machines", "300", "--cyclic-economy", "--unbilled-usage"],
        {
            "user_energy.csv": "324d9a8001e223be76f6d62b76af4674e8c1fdd1dbb568de1d50fbed51a1eba6",
            "emissions.csv": "61ceeca9b7bbf8d325b0164a1235e7f5c8c29dd1268aecb8e8b5c3dc172d1f33",
            "flow_summary.csv": "c6f468603b7f4378c70257d933b69cd1c0bc493e21c9d00241b38309966e6dad",
        },
    ),
}

#: Simulates into argv[1], runs, and prints "<report> <sha256>" per report
#: named in argv[2]; argv[3:] are the simulate options.
RUN_AND_HASH = """
import contextlib, hashlib, io, sys
from carbonledger.cli import main
work, names, options = sys.argv[1], sys.argv[2].split(","), sys.argv[3:]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["simulate", "--output", work + "/bundle", *options]) == 0
    assert main(["run", "--input", work + "/bundle", "--output", work + "/reports"]) == 0
for name in names:
    with open(work + "/reports/" + name, "rb") as handle:
        print(name, hashlib.sha256(handle.read()).hexdigest())
"""


@pytest.mark.parametrize("hash_seed", ["0", "1", "42"])
@pytest.mark.parametrize("case", sorted(RECORDED_REPORTS))
def test_run_reports_match_recorded_digests(case, hash_seed, tmp_path):
    args, expected = RECORDED_REPORTS[case]
    src = str(Path(carbonledger.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", RUN_AND_HASH, str(tmp_path), ",".join(expected), *args],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert dict(line.split() for line in done.stdout.splitlines()) == expected
