import csv
import gc
import json
import tracemalloc
from array import array
from collections import Counter
from dataclasses import fields

import pytest

from carbonledger.check import run_end_to_end
from carbonledger.cli import main
from carbonledger.errors import InputError
from carbonledger.model import GcuUsageTable, PowerSampleTable, ResourceAllocationTable, ServiceUsageTable
from carbonledger.simulate import PRESETS, ScenarioSpec, generate, preset_spec
from carbonledger.tables import (
    SCHEMAS,
    TABLES,
    quantize,
    read_bundle,
    write_bundle,
    write_emissions,
    write_user_energy,
)

ROUNDTRIP_SPECS = {name: preset_spec(name) for name in PRESETS}
ROUNDTRIP_SPECS["seeded"] = ScenarioSpec(
    seed=5, machine_count=12, user_count=5, hours=6, include_unbilled_usage=True, cyclic_economy=True
)


COLUMN_TABLES = {
    "power_samples": PowerSampleTable,
    "resource_allocations": ResourceAllocationTable,
    "gcu_usage": GcuUsageTable,
    "service_usage": ServiceUsageTable,
}


def _records(bundle):
    return {table.name: Counter(getattr(bundle, table.name)) for table in fields(bundle)}


@pytest.mark.parametrize("name", ROUNDTRIP_SPECS)
def test_bundle_roundtrip_preserves_every_record(name, tmp_path):
    original = generate(ROUNDTRIP_SPECS[name])
    first = json.loads(write_bundle(original, tmp_path / "first").read_text())
    reloaded = read_bundle(tmp_path / "first")
    assert _records(reloaded) == _records(original)
    for name, kind in COLUMN_TABLES.items():
        assert type(getattr(reloaded, name)) is kind, name
    for table in (reloaded.resource_allocations, reloaded.service_usage):
        assert all(type(column) is array for column in (table.gcu, table.ram_gib, table.ssd_tib, table.hdd_tib))
    second = json.loads(write_bundle(reloaded, tmp_path / "second").read_text())
    assert second["files"] == first["files"]
    for table in SCHEMAS:
        written = (tmp_path / "second" / f"{table}.csv").read_bytes()
        assert written == (tmp_path / "first" / f"{table}.csv").read_bytes(), table


def test_read_bundle_stores_each_text_cell_once(tmp_path):
    write_bundle(generate(ROUNDTRIP_SPECS["seeded"]), tmp_path)
    bundle = read_bundle(tmp_path)
    machine_ids = {m.machine_id: m.machine_id for m in bundle.machines}
    assert bundle.power_samples and bundle.gcu_usage
    assert all(s.machine_id is machine_ids[s.machine_id] for s in bundle.power_samples)
    assert all(u.machine_id is machine_ids[u.machine_id] for u in bundle.gcu_usage)
    users = {u: u for u in bundle.gcu_usage.user}
    assert all(user is users[user] for user in bundle.gcu_usage.user)
    assert len(set(map(id, bundle.power_samples.hour))) == len(set(bundle.power_samples.hour))
    assert None in {m.owner_user for m in bundle.machines}
    assert None in {u.billing_account for u in bundle.billing_usage}


def test_read_allocations_and_service_usage_hold_no_record_per_row(tmp_path):
    # 696 allocation and 720 service-usage rows. A frozen record and a
    # ResourceVector per row held 233 and 248 bytes a row; columns hold 60 and 75.
    write_bundle(generate(ScenarioSpec(seed=7, machine_count=100, user_count=10, cluster_count=4, hours=24)), tmp_path)
    gc.collect()
    tracemalloc.start()
    try:
        bundle = read_bundle(tmp_path)
        for name in ("resource_allocations", "service_usage"):
            rows = len(getattr(bundle, name))
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            setattr(bundle, name, [])  # drops the table read above
            gc.collect()
            held = before - tracemalloc.get_traced_memory()[0]
            assert rows > 500 and held <= 120 * rows, f"{name}: {held / rows:.1f} bytes a row"
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def cli_1k_artifacts():
    """The cli-1k shape of the benchmark: 11.4k ledger cells and emission rows."""
    return run_end_to_end(generate(ScenarioSpec(seed=7, machine_count=1000, user_count=50, cluster_count=20, hours=12)))


REPORT_WRITERS = {
    "user_energy": lambda artifacts, path: write_user_energy(artifacts.allocation.stages, path),
    "emissions": lambda artifacts, path: write_emissions(artifacts.emissions, path),
}


@pytest.mark.parametrize("name", REPORT_WRITERS)
def test_report_writer_streams_its_rows(name, cli_1k_artifacts, tmp_path):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        REPORT_WRITERS[name](cli_1k_artifacts, tmp_path / f"{name}.csv")
        peak_mib = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mib < 2.0, f"write_{name} peaked {peak_mib:.2f} MiB above its inputs"


def test_written_headers_match_declared_schemas(tmp_path):
    write_bundle(generate(preset_spec("sankey-small")), tmp_path)
    for table, columns in SCHEMAS.items():
        with (tmp_path / f"{table}.csv").open(newline="") as handle:
            header = next(csv.reader(handle))
        assert tuple(header) == columns


def test_each_record_field_is_one_column_and_one_slot():
    for name, table in TABLES.items():
        field_names = tuple(f.name for f in fields(table.record))
        assert tuple(column.attribute for column in table.columns) == field_names, name
        if name in COLUMN_TABLES:
            assert COLUMN_TABLES[name].__slots__ == field_names, name


def test_timestamps_use_hour_precision_utc(tmp_path):
    write_bundle(generate(preset_spec("figure1")), tmp_path)
    with (tmp_path / "power_samples.csv").open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert all(row["hour_utc"].endswith("Z") and len(row["hour_utc"]) == 17 for row in rows)


def test_missing_required_table_raises(tmp_path):
    write_bundle(generate(preset_spec("figure1")), tmp_path)
    (tmp_path / "manifest.json").unlink()  # the edit below would no longer match it
    (tmp_path / "machines.csv").unlink()
    with pytest.raises(InputError):
        read_bundle(tmp_path)


def test_missing_optional_table_defaults_empty(tmp_path):
    write_bundle(generate(preset_spec("figure1")), tmp_path)
    (tmp_path / "manifest.json").unlink()  # the edit below would no longer match it
    (tmp_path / "net_cost.csv").unlink()
    bundle = read_bundle(tmp_path)
    assert bundle.net_costs == []


def test_header_mismatch_raises(tmp_path):
    write_bundle(generate(preset_spec("figure1")), tmp_path)
    (tmp_path / "manifest.json").unlink()  # the edit below would no longer match it
    path = tmp_path / "pue.csv"
    lines = path.read_text().splitlines()
    lines[0] = "cluster,hour,value"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError):
        read_bundle(tmp_path)


def test_file_changed_since_its_manifest_raises(tmp_path):
    write_bundle(generate(preset_spec("figure1")), tmp_path)
    path = tmp_path / "power_samples.csv"
    data = bytearray(path.read_bytes())
    data[-2] = ord("7") if data[-2] != ord("7") else ord("8")
    path.write_bytes(bytes(data))
    with pytest.raises(InputError, match="power_samples.csv does not match its SHA-256 in manifest.json"):
        read_bundle(tmp_path)
    assert main(["validate", "--input", str(tmp_path)]) == 2


def test_listed_optional_table_missing_raises(tmp_path):
    write_bundle(generate(preset_spec("figure1")), tmp_path)
    (tmp_path / "net_cost.csv").unlink()
    with pytest.raises(InputError, match="net_cost.csv, listed in manifest.json, is missing"):
        read_bundle(tmp_path)


def test_table_missing_from_manifest_raises(tmp_path):
    # Unlisted, an edited pue.csv would be read unchecked: a PUE of 9.0 went into the run.
    write_bundle(generate(preset_spec("two-accounts")), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    del manifest["files"]["pue.csv"]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    path = tmp_path / "pue.csv"
    lines = path.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",9.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match="pue.csv is in .* but not listed in manifest.json"):
        read_bundle(tmp_path)
    assert main(["validate", "--input", str(tmp_path)]) == 2
    assert main(["run", "--input", str(tmp_path), "--output", str(tmp_path / "reports")]) == 2
    assert not (tmp_path / "reports").exists()


def test_unreadable_manifest_raises(tmp_path):
    write_bundle(generate(preset_spec("figure1")), tmp_path)
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(InputError, match="manifest.json in .* is unreadable"):
        read_bundle(tmp_path)


def test_quantize_steps():
    assert quantize(1234.4, 1.0) == 1234.0
    assert quantize(1234.6, 1.0) == 1235.0
    assert quantize(0.35288, 0.001) == pytest.approx(0.353)
    assert quantize(123.456, 0.0) == 123.456


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_number_is_rejected_with_its_location(tmp_path, text):
    write_bundle(generate(preset_spec("figure1")), tmp_path)
    (tmp_path / "manifest.json").unlink()  # the edit below would no longer match it
    path = tmp_path / "power_samples.csv"
    lines = path.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + "," + text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match="power_samples.csv line 3, column measured_power_watts: non-finite"):
        read_bundle(tmp_path)


def test_unparsable_cell_and_short_row_name_their_line(tmp_path):
    write_bundle(generate(preset_spec("figure1")), tmp_path)
    (tmp_path / "manifest.json").unlink()  # the edit below would no longer match it
    path = tmp_path / "power_samples.csv"
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace(":00Z", ":30Z")
    lines[2] = lines[2].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match="power_samples.csv line 2, column hour_utc: "):
        read_bundle(tmp_path)
    del lines[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match="power_samples.csv line 2: 2 cells where the schema has 3"):
        read_bundle(tmp_path)
