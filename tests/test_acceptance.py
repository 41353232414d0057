"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import time

from carbonledger.check import closure_failures, compare_with_oracle, run_end_to_end
from carbonledger.cli import main
from carbonledger.footprint import sku_energy_rates, sku_usage_sums
from carbonledger.model import SkuRecord, SkuUsageRecord
from carbonledger.services import run_allocation_pipeline
from carbonledger.simulate import ScenarioSpec, generate, preset_spec
from carbonledger.tables import write_bundle


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_figure_scenario_exact():
    started = time.perf_counter()
    bundle = generate(preset_spec("figure1"))
    result = run_allocation_pipeline(bundle)
    elapsed = time.perf_counter() - started

    expected = {
        ("prod", True): 12e6, ("prod", False): 9e6,
        ("non-prod", True): 2e6, ("non-prod", False): 3e6,
    }
    worst = 0.0
    for (user, cluster, hour), idle_wh, dynamic_wh in result.final.rows():
        daytime = 8 <= hour.hour < 20
        target = expected[(user, daytime)]
        worst = max(worst, abs(idle_wh + dynamic_wh - target) / target)
    ok = worst <= 1e-9 and elapsed < 1.0
    _verdict(1, ok, f"figure-1 allocation max rel err {worst:.2e}, runtime {elapsed * 1000:.0f} ms")


def test_criterion_2_net_cost_example_exact():
    bundle = generate(preset_spec("sankey-small"))
    # ads pays only for blob-api, whose provider is blobstore, so every Wh
    # ads gains in a minor round comes from blobstore.
    assert {(r.service, r.net_cost > 0.0) for r in bundle.net_costs if r.user == "ads"} == {("blob-api", True)}
    result = run_allocation_pipeline(bundle)
    after_major = result.stage("after_major_realloc")
    after_round_1 = result.stage("after_minor_round_1")
    key_of = after_major.cells.axes.key
    before = {key_of(cell): wh for cell, wh in zip(after_major.cells.ids, after_major.total)}
    after = {key_of(cell): wh for cell, wh in zip(after_round_1.cells.ids, after_round_1.total)}

    checked = 0
    worst = 0.0
    for (user, cluster, hour), total_wh in before.items():
        if user != "blobstore" or total_wh == 0.0:
            continue
        key = ("ads", cluster, hour)
        gained = after[key] - before.get(key, 0.0)
        expected = 0.10 * total_wh
        worst = max(worst, abs(gained - expected) / expected)
        checked += 1
    late_rounds = sum(
        amount
        for flows in result.round_flows[1:]
        for (provider, consumer, _), amount in flows.items()
        if provider == "blobstore" and consumer == "ads"
    )
    ok = checked == 48 and worst <= 1e-12 and late_rounds == 0.0
    _verdict(2, ok, f"10% of the storage provider reached its payer in {checked} cluster-hours, "
                    f"max rel err {worst:.2e}")


def test_criterion_3_balanced_service_closure():
    bundle = generate(preset_spec("balanced-service"))
    result = run_allocation_pipeline(bundle)
    before = result.stage("after_major_realloc").totals_by_user()["svc"]
    after = result.final.totals_by_user().get("svc", 0.0)
    ok = before > 0.0 and after <= 1e-12 * before
    _verdict(3, ok, f"balanced provider retains {after:.3e} Wh of {before:.3e} Wh")


def test_criterion_4_sku_proportionality():
    catalog = [
        SkuRecord("sku-A", "product", "svc", 1.75, "unit"),
        SkuRecord("sku-B", "product", "svc", 1.0, "unit"),
    ]

    def rates_for(quantity_a: float, quantity_b: float) -> dict[str, float]:
        usage = [
            SkuUsageRecord("sku-A", "r", "acct", "2023-06", quantity_a),
            SkuUsageRecord("sku-B", "r", "acct", "2023-06", quantity_b),
        ]
        return sku_energy_rates("svc", 30.0, catalog, sku_usage_sums(usage))

    table = rates_for(15.0, 10.0)
    ratio_exact = table["sku-A"] / table["sku-B"] == 1.75
    closure = abs(15.0 * table["sku-A"] + 10.0 * table["sku-B"] - 30.0) / 30.0 <= 1e-9

    swapped = rates_for(10.0, 15.0)
    near_reference = (
        abs(swapped["sku-A"] - 1.62) / 1.62 < 0.005
        and abs(swapped["sku-B"] - 0.92) / 0.92 < 0.005
    )
    ok = ratio_exact and closure and near_reference
    _verdict(4, ok, f"price ratio exact, energy closed; swapped-quantity rates "
                    f"A={swapped['sku-A']:.4f} B={swapped['sku-B']:.4f} vs reference 1.62/0.92")


def test_criterion_5_conservation_suite_100_seeds():
    failures: list[str] = []
    for seed in range(100):
        spec = ScenarioSpec(
            seed=seed,
            machine_count=10 + (seed * 7) % 50,
            user_count=3 + seed % 8,
            cluster_count=1 + seed % 3,
            hours=6 + (seed * 5) % 19,
            economy_depth=seed % 3,
            include_unbilled_usage=seed % 4 == 0,
        )
        bundle = generate(spec)
        artifacts = run_end_to_end(bundle)
        failures.extend(f"seed {seed}: {f}" for f in closure_failures(bundle, artifacts))
    _verdict(5, not failures, f"100 random fleets, {len(failures)} closure failure(s)"
                              + (f"; first: {failures[0]}" if failures else ""))


def test_criterion_6_oracle_equivalence(tmp_path):
    worst = 0.0
    exits = []
    for seed in range(10):
        spec = ScenarioSpec(
            seed=100 + seed,
            machine_count=20 + seed * 10,
            user_count=4 + seed % 6,
            cluster_count=1 + seed % 3,
            hours=12 + seed % 13,
            economy_depth=seed % 3,
        )
        bundle_dir = tmp_path / f"seed{seed}"
        write_bundle(generate(spec), bundle_dir)
        exits.append(main(["oracle-check", "--input", str(bundle_dir)]))
        worst = max(worst, compare_with_oracle(generate(spec)).max_deviation)
    ok = exits == [0] * 10
    _verdict(6, ok, f"oracle-check exit codes {set(exits)}, max deviation {worst:.2e}")


def test_criterion_7_round_convergence():
    ratios = []
    bundles = [generate(preset_spec("sankey-small")), generate(preset_spec("balanced-service"))]
    bundles.extend(
        generate(ScenarioSpec(seed=s, machine_count=30, user_count=8, hours=24, economy_depth=2))
        for s in (201, 202, 203)
    )
    for bundle in bundles:
        result = run_allocation_pipeline(bundle, rounds=3)
        moved = result.round_moved_wh
        assert moved[0] > 0.0, "acyclic economy moved nothing in round 1"
        ratios.append(moved[2] / moved[0])
    worst = max(ratios)
    _verdict(7, worst < 0.01, f"round-3/round-1 moved-energy ratios {['%.2e' % r for r in ratios]} "
                              f"(worst {worst:.2e} < 1%)")


def test_criterion_8_carbon_arithmetic():
    from carbonledger.carbon import co2_kg

    kg = co2_kg(1_000_000.0 * 1.10, 320.8)
    err = abs(kg - 352.88) / 352.88
    _verdict(8, err <= 1e-6, f"1 MWh at PUE 1.10 and 320.8 g/kWh -> {kg:.5f} kgCO2e (rel err {err:.1e})")


def test_criterion_9_desk_scale_performance():
    spec = ScenarioSpec(seed=7, machine_count=10_000, user_count=50, cluster_count=20, hours=168)
    bundle = generate(spec)
    started = time.perf_counter()
    artifacts = run_end_to_end(bundle)
    failures = closure_failures(bundle, artifacts)
    elapsed = time.perf_counter() - started
    ok = elapsed < 60.0 and not failures
    _verdict(9, ok, f"10,000 machines x 168 h x 50 users processed in {elapsed:.1f} s "
                    f"with {len(failures)} closure failure(s)")
