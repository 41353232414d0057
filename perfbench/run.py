"""carbonledger benchmark: one batch job at a time, timed from outside.

Run from the repository root:

    python3 perfbench/run.py --workload fleet-10k --seed 7 --seconds 20 --trace 0

Each invocation generates its inputs from ``--seed`` (``SETUP_REPEATS``
times, reporting the median), checks an oracle-sized fleet from the same
seed against the brute-force oracle, makes one untimed tracemalloc pass
for peak memory, then runs the workload back to back for ``--seconds``
and reports the median wall time. ``--trace 1`` adds a phase of the same
length that alternates untraced runs with runs that record spans at every
stage boundary, and prints the per-layer metrics instead of the
end-to-end ones. Every run is checked:
closure must hold, the CLI must exit 0, and for the default seed the
CLI's report CSVs must hash to the recorded digests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every check passed and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from spans import MIB, Boundary, Patches, PeakMeter, Tracer, self_times  # noqa: E402

PACKAGE = "carbonledger"
ROOT_SPAN = "iteration"


def load_program(root: Path):
    """Import the package from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: no {PACKAGE} sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import carbonledger

    if Path(carbonledger.__file__).resolve().parent != src / PACKAGE:
        raise SystemExit(f"error: imported {carbonledger.__file__}, not the sources under {src}")
    from carbonledger import check, cli, simulate, tables

    return check, cli, simulate, tables


# --- boundaries -------------------------------------------------------------


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _rows_read(tracer: Tracer, args, kwargs, bundle) -> None:
    tracer.add("tables.rows_read", sum(len(getattr(bundle, f.name)) for f in dataclasses.fields(bundle)))


def _hour_seen(tracer: Tracer, args, kwargs, result) -> None:
    tracer.see("tables.parse_hour", _arg(args, kwargs, 0, "text"))


def _violations(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("model.violations", len(result))


def _splits(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("power.samples_in", len(_arg(args, kwargs, 1, "samples")))
    tracer.add("power.splits_out", len(result))


def _ledger_cells(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("allocation.ledger_cells", len(result[0].cells))


def _round_moved(tracer: Tracer, args, kwargs, result) -> None:
    _, moved, transfers = result
    tracer.add("services.minor_rounds")
    tracer.add(f"services.round_{tracer.counts['services.minor_rounds']}_moved_wh", moved)
    tracer.add("services.transfer_entries", len(transfers))


def _intensity_seen(tracer: Tracer, args, kwargs, result) -> None:
    tracer.see("carbon.resolve_intensity", (_arg(args, kwargs, 0, "cluster_id"), _arg(args, kwargs, 1, "hour")))


def _records_scanned(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("footprint.records_scanned", len(_arg(args, kwargs, 1, "emissions")))


def _emission_records(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("footprint.records", len(_arg(args, kwargs, 0, "emissions")))


def _closure(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("check.closure_failures", len(result))


#: Every stage boundary, wrapped at the module whose callers look it up.
#: Span names are ``<defining module>.<function>``.
BOUNDARIES = (
    Boundary("cli", "cmd_run", "cli.cmd_run"),
    Boundary("tables", "read_bundle", "tables.read_bundle", _rows_read),
    Boundary("tables", "parse_hour", "tables.parse_hour", _hour_seen),
    Boundary("cli", "validate_bundle", "model.validate_bundle", _violations),
    Boundary("tables", "write_validation_report", "tables.write_validation_report"),
    Boundary("check", "run_end_to_end", "check.run_end_to_end"),
    Boundary("services", "split_fleet", "power.split_fleet", _splits),
    Boundary("services", "build_machine_ledger", "allocation.build_machine_ledger", _ledger_cells),
    Boundary("allocation", "idle_share_table", "allocation.idle_share_table"),
    Boundary("services", "apply_major_realloc", "services.apply_major_realloc"),
    Boundary("services", "build_day_plans", "services.build_day_plans"),
    Boundary("services", "apply_minor_realloc_round", "services.apply_minor_realloc_round", _round_moved),
    Boundary("check", "compute_emissions", "carbon.compute_emissions"),
    Boundary("carbon", "resolve_intensity", "carbon.resolve_intensity", _intensity_seen),
    Boundary("check", "compute_customer_footprints", "footprint.compute_customer_footprints",
             _emission_records),
    Boundary("footprint", "regional_intensity", "footprint.regional_intensity", _records_scanned),
    Boundary("tables", "write_user_energy", "tables.write_user_energy"),
    Boundary("tables", "write_emissions", "tables.write_emissions"),
    Boundary("tables", "write_footprints", "tables.write_footprints"),
    Boundary("tables", "write_flow_summary", "tables.write_flow_summary"),
    Boundary("check", "closure_failures", "check.closure_failures", _closure),
)

#: Where the memory pass resets the peak: the power, allocation and
#: services stages.
PEAK_BOUNDARIES = tuple(
    b for b in BOUNDARIES if b.span.split(".")[0] in ("power", "allocation", "services")
)


# --- jobs -------------------------------------------------------------------


class FleetJob:
    """``run_end_to_end`` then ``closure_failures`` on a bundle in memory."""

    def __init__(self, program, bundle) -> None:
        self.check = program[0]
        self.bundle = bundle
        self.samples = len(bundle.power_samples)

    def prepare(self) -> None:
        pass

    def run(self):
        artifacts = self.check.run_end_to_end(self.bundle)
        return self.check.closure_failures(self.bundle, artifacts)

    def verify(self, failures) -> list[str]:
        return [f"closure failure: {f}" for f in failures]

    def io_counts(self) -> dict[str, int]:
        return {}


class CliJob:
    """``carbonledger run`` on a bundle directory written at set-up."""

    def __init__(self, program, bundle_dir: Path, out_dir: Path, samples: int, expected: dict | None) -> None:
        self.cli = program[1]
        self.bundle_dir = bundle_dir
        self.out_dir = out_dir
        self.samples = samples
        self.expected = expected
        self.argv = ["run", "--input", str(bundle_dir), "--output", str(out_dir)]

    def prepare(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(self.argv)
        return code, err.getvalue()

    def verify(self, outcome) -> list[str]:
        code, err = outcome
        if code != 0:
            return [f"carbonledger run exited {code}: {err.strip()[-500:]}"]
        hashes = self.report_hashes()
        problems = [f"report {name} missing" for name in wl.CLI_REPORTS if name not in hashes]
        if self.expected is not None:
            problems += [
                f"report {name} hashes to {digest}, recorded {self.expected[name]}"
                for name, digest in hashes.items()
                if digest != self.expected[name]
            ]
        return problems

    def report_hashes(self) -> dict[str, str]:
        paths = [self.out_dir / name for name in wl.CLI_REPORTS]
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths if p.is_file()}

    def io_counts(self) -> dict[str, int]:
        written = sorted(self.out_dir.glob("*.csv"))
        return {
            "tables.bytes_read": sum(p.stat().st_size for p in self.bundle_dir.glob("*.csv")),
            "tables.bytes_written": sum(p.stat().st_size for p in written),
            "tables.rows_written": sum(p.read_bytes().count(b"\n") - 1 for p in written),
        }


def attempt(job, around=None) -> tuple[list[str], float]:
    """Run one job inside ``around``, then check it; only the run is timed.

    An exception is a failed run, reported with its traceback.
    """
    start = time.perf_counter()
    try:
        with around or contextlib.nullcontext():
            outcome = job.run()
    except Exception:  # a crash in the program is a failed run, not a benchmark crash
        return [traceback.format_exc()], time.perf_counter() - start
    wall = time.perf_counter() - start
    return job.verify(outcome), wall


# --- phases -----------------------------------------------------------------


@dataclasses.dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def flag(self, problem: str) -> None:
        """A check over runs already counted failed: one more of them fails."""
        self.failed = min(self.attempted, self.failed + 1)
        self.problems.append(problem)


def set_up(program, workload: wl.Workload, seed: int, work: Path, shape: dict, repeats: int):
    """Generate the inputs ``repeats`` times; the last set is kept."""
    _, _, simulate, tables = program
    spec = simulate.ScenarioSpec(seed=seed, **shape)
    generate_s, write_s, setup_s = [], [], []
    for _ in range(repeats):
        bundle = None  # drop the previous set before making the next
        gc.collect()
        start = time.perf_counter()
        bundle = simulate.generate(spec)
        generated = time.perf_counter()
        if workload.via_cli:
            shutil.rmtree(work / "bundle", ignore_errors=True)
            tables.write_bundle(bundle, work / "bundle")
        written = time.perf_counter()
        generate_s.append(generated - start)
        write_s.append(written - generated)
        setup_s.append(written - start)
    timings = {
        "setup_s": statistics.median(setup_s),
        "simulate.generate_s": statistics.median(generate_s),
        "tables.write_bundle_s": statistics.median(write_s) if workload.via_cli else 0.0,
    }
    if workload.via_cli:
        recorded = seed == wl.DEFAULT_SEED and shape == workload.shape()
        expected = wl.CLI_REPORT_SHA256 if recorded else None
        job = CliJob(program, work / "bundle", work / "reports", len(bundle.power_samples), expected)
    else:
        job = FleetJob(program, bundle)
    return job, timings


def oracle_check(program, seed: int) -> tuple[list[str], float]:
    check, _, simulate, _ = program
    try:
        bundle = simulate.generate(simulate.ScenarioSpec(seed=seed, **wl.ORACLE_SHAPE))
        report = check.compare_with_oracle(bundle)
    except Exception:
        return [traceback.format_exc()], float("nan")
    if not report.within(wl.ORACLE_TOLERANCE):
        return [f"oracle disagreement: max deviation {report.max_deviation:.3e}"], report.max_deviation
    return [], report.max_deviation


def memory_pass(job) -> tuple[list[str], float, dict[str, float]]:
    """Peak traced memory of one untimed run, overall and per stage, in MiB."""
    job.prepare()
    gc.collect()
    meter = PeakMeter()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Patches(PACKAGE, PEAK_BOUNDARIES, meter.wrapper):
            problems, _ = attempt(job)
        peak = meter.finish() - base / MIB
    finally:
        tracemalloc.stop()
    stages = {name: max(peaks) / MIB for name, peaks in meter.stage_peaks.items()}
    return problems, peak, stages


def timed_runs(job, seconds: float, tally: Tally, tracer: Tracer | None = None) -> list:
    """Back-to-back runs until ``seconds`` have passed; one wall time each.

    With a tracer, each entry is the run's spans and counts instead.
    """
    results = []
    started = time.perf_counter()
    while True:
        job.prepare()
        gc.collect()
        if tracer is None:
            problems, wall = attempt(job)
            results.append(wall)
        else:
            tracer.reset()
            problems, _ = attempt(job, tracer.span(ROOT_SPAN))
            counts = dict(tracer.counts)
            counts.update(job.io_counts())
            results.append((tracer.spans, counts, {k: len(v) for k, v in tracer.distinct.items()}))
        tally.record(problems)
        if time.perf_counter() - started >= seconds:
            return results


def traced_runs(job, seconds: float, tally: Tally):
    """Untraced and traced runs in turn until ``seconds`` have passed.

    Alternating keeps the two sides in the same stretch of machine time,
    so their difference is the tracing overhead rather than drift.
    """
    tracer = Tracer()
    walls, traced = [], []
    started = time.perf_counter()
    while True:
        walls += timed_runs(job, 0.0, tally)
        with Patches(PACKAGE, BOUNDARIES, tracer.wrapper) as patches:
            traced += timed_runs(job, 0.0, tally, tracer)
        if time.perf_counter() - started >= seconds:
            return walls, traced, patches.missing


# --- per-layer metrics ------------------------------------------------------


def layer_values(spans, counts: dict, distinct: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run, from its spans and counts."""
    own = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span in spans:
        total[span.name] = total.get(span.name, 0.0) + (span.end - span.start)
        calls[span.name] = calls.get(span.name, 0) + 1
    rounds = [s.end - s.start for s in spans if s.name == "services.apply_minor_realloc_round"]
    parse_calls = calls.get("tables.parse_hour", 0)
    intensity_calls = calls.get("carbon.resolve_intensity", 0)
    records = counts.get("footprint.records", 0)
    root = next(i for i, s in enumerate(spans) if s.name == ROOT_SPAN)
    values = {}
    for metric in wl.PER_LAYER:
        if metric.name.endswith("_s"):
            values[metric.name] = total.get(metric.name[:-2], 0.0)
        else:
            values[metric.name] = counts.get(metric.name, 0)
    values.update({
        "tables.parse_hour_calls": parse_calls,
        "tables.parse_hour_useful": distinct.get("tables.parse_hour", 0) / parse_calls if parse_calls else 0.0,
        "allocation.idle_share_table_calls": calls.get("allocation.idle_share_table", 0),
        "services.minor_round_1_s": rounds[0] if len(rounds) > 0 else 0.0,
        "services.minor_round_2_s": rounds[1] if len(rounds) > 1 else 0.0,
        "carbon.resolve_intensity_calls": intensity_calls,
        "carbon.resolve_intensity_useful": (
            distinct.get("carbon.resolve_intensity", 0) / intensity_calls if intensity_calls else 0.0
        ),
        "footprint.regional_intensity_calls": calls.get("footprint.regional_intensity", 0),
        "footprint.regional_records_scanned": counts.get("footprint.records_scanned", 0) / records if records else 0.0,
        "cli.cmd_run_self_s": sum(own[i] for i, s in enumerate(spans) if s.name == "cli.cmd_run"),
        "trace.wall_s": spans[root].end - spans[root].start,
        "trace.gap_s": own[root],
    })
    return values


#: Per-layer metrics that are counts: they must repeat exactly run to run.
EXACT = tuple(
    m.name for m in wl.PER_LAYER if not m.name.endswith("_s") and not m.name.endswith("_peak_mib")
)


def span_table(spans) -> list[str]:
    """Calls, total and self time per span name, largest self time first."""
    own = self_times(spans)
    rows: dict[str, list[float]] = {}
    for span, own_s in zip(spans, own):
        row = rows.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.end - span.start
        row[2] += own_s
    wall = sum(s.end - s.start for s in spans if s.parent < 0)
    lines = [f"  {'span':<40} {'calls':>8} {'total s':>9} {'self s':>9} {'self %':>7}"]
    for name, (n, total_s, own_s) in sorted(rows.items(), key=lambda item: -item[1][2]):
        lines.append(f"  {name:<40} {n:>8} {total_s:>9.3f} {own_s:>9.3f} {100 * own_s / wall:>6.1f}%")
    layers: dict[str, float] = {}
    for span, own_s in zip(spans, own):
        if span.name != ROOT_SPAN:
            layer = span.name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + own_s
    shares = ", ".join(f"{k} {100 * v / wall:.1f}%" for k, v in sorted(layers.items(), key=lambda i: -i[1]))
    lines.append(f"  self time by layer: {shares}")
    return lines


def write_trace(path: Path, workload: str, seed: int, missing: list[str], spans) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload,
        "seed": seed,
        "missing_boundaries": missing,
        "spans": [[s.name, s.start, s.end, s.parent] for s in spans],
    }
    path.write_text(json.dumps(record, separators=(",", ":")) + "\n")


# --- main -------------------------------------------------------------------


def measure(program, workload: wl.Workload, seed: int, seconds: float, trace: bool, work: Path,
            shape: dict | None = None, setup_repeats: int = wl.SETUP_REPEATS) -> dict:
    """Run every phase for one workload; returns metrics, counts and notes."""
    shape = shape or workload.shape()
    tally = Tally()
    job, setup = set_up(program, workload, seed, work, shape, setup_repeats)

    problems, deviation = oracle_check(program, seed)
    tally.record(problems)

    problems, peak_mib, stage_peaks = memory_pass(job)
    tally.record(problems)

    walls = timed_runs(job, seconds, tally)
    wall_s = statistics.median(walls)
    result = {
        "tally": tally,
        "walls": walls,
        "deviation": deviation,
        "stage_peaks": stage_peaks,
        "end_to_end": {
            "wall_s": wall_s,
            "mh_per_s": job.samples / wall_s,
            "peak_mib": peak_mib,
            "setup_s": setup["setup_s"],
        },
    }
    if isinstance(job, CliJob) and not tally.failed:
        result["report_hashes"] = job.report_hashes()
    if not trace:
        return result

    untraced, traced, missing = traced_runs(job, seconds, tally)
    runs = [layer_values(*entry) for entry in traced]
    layer = {}
    for metric in wl.PER_LAYER:
        samples = [run[metric.name] for run in runs]
        layer[metric.name] = samples[-1] if metric.name in EXACT else statistics.median(samples)
        if metric.name in EXACT and len(set(samples)) > 1:
            tally.flag(f"{metric.name} differs between traced runs: {samples}")
    layer["simulate.generate_s"] = setup["simulate.generate_s"]
    layer["tables.write_bundle_s"] = setup["tables.write_bundle_s"]
    layer["power.split_fleet_peak_mib"] = stage_peaks.get("power.split_fleet", 0.0)
    layer["allocation.build_machine_ledger_peak_mib"] = stage_peaks.get("allocation.build_machine_ledger", 0.0)
    layer["trace.overhead_s"] = layer["trace.wall_s"] - statistics.median(untraced)
    result.update(per_layer=layer, missing=missing, spans=traced[-1][0])
    return result


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the timed (and the traced) phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    program = load_program(Path.cwd())
    workload = wl.WORKLOADS[args.workload]
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=HERE / ".work"))
    try:
        result = measure(program, workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    tally: Tally = result["tally"]
    e2e = result["end_to_end"]
    walls = result["walls"]
    quartiles = statistics.quantiles(walls, n=4) if len(walls) > 1 else [walls[0]] * 3
    print(f"workload {workload.name}, seed {args.seed}: {workload.machines} machines, {wl.USERS} users, "
          f"{wl.CLUSTERS} clusters, {wl.HOURS} h")
    print(f"oracle check: max deviation {result['deviation']:.3e} (limit {wl.ORACLE_TOLERANCE:.0e})")
    print(f"timed runs: {len(walls)}, wall_s median {e2e['wall_s']:.4f} s, "
          f"q1 {quartiles[0]:.4f} s, q3 {quartiles[2]:.4f} s")
    for metric in wl.END_TO_END:
        print(f"{metric.name} {e2e[metric.name]:.6g} {metric.unit}")
    print(f"error_rate {tally.failed / tally.attempted:.6g} ({tally.failed} failed / {tally.attempted} attempted)")
    for name, peak in sorted(result["stage_peaks"].items()):
        print(f"stage peak {name} {peak:.3f} MiB")
    if "report_hashes" in result:
        for name, digest in result["report_hashes"].items():
            print(f"report sha256 {name} {digest}")

    if args.trace:
        metrics = {m.name: {"value": result["per_layer"][m.name], "unit": m.unit} for m in wl.PER_LAYER}
        if result["missing"]:
            print(f"missing boundaries (reported as 0): {', '.join(result['missing'])}")
        print("spans of the last traced run:")
        print("\n".join(span_table(result["spans"])))
        for name, entry in metrics.items():
            print(f"{name} {entry['value']:.6g} {entry['unit']}")
        write_trace(HERE / "traces" / f"{workload.name}-seed{args.seed}.json", workload.name, args.seed,
                    result["missing"], result["spans"])
    else:
        metrics = {m.name: {"value": e2e[m.name], "unit": m.unit} for m in wl.END_TO_END}

    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
