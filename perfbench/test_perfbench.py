"""Tests of the benchmark itself, on fleets small enough to run in seconds.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Boundary, Patches, PeakMeter, Tracer, self_times  # noqa: E402

PROGRAM = bench.load_program(REPO)
TINY = {"machine_count": 30, "user_count": 6, "cluster_count": 3, "hours": 24}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def traced(workload: str, tmp_path: Path, seed: int = 3) -> dict:
    return bench.measure(
        PROGRAM, wl.WORKLOADS[workload], seed, seconds=0.0, trace=True,
        work=tmp_path, shape=TINY, setup_repeats=1,
    )


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == wl.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for key, metrics in (("end_to_end", wl.END_TO_END), ("per_layer", wl.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert declared == [(m.name, m.unit, m.better) for m in metrics]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + list(wl.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert sorted(bounds.values()).count(bounds["setup_s"]) == 1


@pytest.mark.parametrize("workload", ["fleet-1k", "cli-1k"])
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first = traced(workload, tmp_path / "a")
    second = traced(workload, tmp_path / "b")
    assert first["tally"].failed == 0 and second["tally"].failed == 0
    assert not first["missing"]
    counts = {name: first["per_layer"][name] for name in bench.EXACT}
    assert counts == {name: second["per_layer"][name] for name in bench.EXACT}
    assert counts["power.samples_in"] > 0
    assert counts["allocation.idle_share_table_calls"] == 2
    assert counts["services.round_1_moved_wh"] > 0
    if workload == "cli-1k":
        assert counts["tables.parse_hour_calls"] > 0 and counts["tables.rows_written"] > 0
    else:
        assert counts["tables.parse_hour_calls"] == 0


@pytest.mark.parametrize("workload", ["fleet-1k", "cli-1k"])
def test_self_times_and_gap_add_up_to_the_traced_wall(workload, tmp_path):
    spans = traced(workload, tmp_path)["spans"]
    own = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s.parent < 0]
    assert [spans[i].name for i in roots] == [bench.ROOT_SPAN]
    wall = spans[roots[0]].end - spans[roots[0]].start
    assert sum(own) == pytest.approx(wall, rel=1e-9, abs=1e-9)
    for span, own_s in zip(spans, own):
        assert own_s >= -1e-9
        if span.parent >= 0:
            parent = spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end


def test_missing_boundary_is_listed_not_fatal():
    tracer = Tracer()
    gone = Boundary("services", "fused_machine_stage", "power.fused")
    with Patches(bench.PACKAGE, (gone, *bench.BOUNDARIES), tracer.wrapper) as patches:
        assert PROGRAM[0].run_end_to_end.__wrapped__ is not None
    assert patches.missing == ["services.fused_machine_stage"]
    assert not hasattr(PROGRAM[0].run_end_to_end, "__wrapped__")


def test_peak_meter_keeps_nested_peaks_whole():
    meter = PeakMeter()
    inner = meter.wrapper(Boundary("demo", "inner", "demo.inner"), lambda: len(bytearray(1 << 20)))

    def outer():
        held = bytearray(4 << 20)
        inner()
        return len(held)

    tracemalloc.start()
    try:
        meter.wrapper(Boundary("demo", "outer", "demo.outer"), outer)()
        overall = meter.finish()
    finally:
        tracemalloc.stop()
    assert meter.stage_peaks["demo.inner"][0] >= 1 << 20
    assert meter.stage_peaks["demo.outer"][0] >= 5 << 20
    assert overall >= 5


def test_wrong_report_hash_counts_as_failed(tmp_path):
    job, _ = bench.set_up(PROGRAM, wl.WORKLOADS["cli-1k"], 3, tmp_path, TINY, 1)
    job.expected = dict.fromkeys(wl.CLI_REPORTS, "0" * 64)
    job.prepare()
    problems, _ = bench.attempt(job)
    assert len(problems) == len(wl.CLI_REPORTS)
    tally = bench.Tally()
    tally.record(problems)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-1k", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
