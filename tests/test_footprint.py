import hashlib
from collections import Counter
from dataclasses import astuple

import pytest
from hypothesis import given, strategies as st

from carbonledger.carbon import compute_emissions
from carbonledger.check import closure_failures, run_end_to_end
from carbonledger.errors import NoBillableUsageError
from carbonledger.footprint import (
    alpha_balance,
    beta_overhead,
    compute_customer_footprints,
    regional_intensity,
    sku_energy_rates,
    sku_usage_sums,
)
from carbonledger.model import (
    Bundle,
    CarbonIntensityRecord,
    PueRecord,
    SkuRecord,
    SkuUsageRecord,
    ZoneMapRow,
)
from carbonledger.simulate import ScenarioSpec, generate, preset_spec

from conftest import H, ledger_of

MONTH = "2023-06"
ZONE_MAP = [ZoneMapRow("c0", "z0", "r-low"), ZoneMapRow("c1", "z1", "r-high")]


def emissions(*rows):
    """Emissions of ``(user, cluster, kg, it_wh)`` rows at hour 0, one cluster each.

    Each cluster runs at PUE 1 under the zone intensity that turns the
    row's IT Wh into its kg.
    """
    assert len({cluster for _, cluster, *_ in rows}) == len(rows)
    zone_of = {r.cluster_id: r.zone_id for r in ZONE_MAP}
    feeds = Bundle(
        zone_map=ZONE_MAP,
        pue=[PueRecord(cluster, H(0), 1.0) for _, cluster, *_ in rows],
        carbon_intensity=[
            CarbonIntensityRecord(zone_of[cluster], H(0), kg * 1e6 / it_wh) for _, cluster, kg, it_wh in rows
        ],
    )
    ledger = ledger_of({(user, cluster, H(0)): (it_wh, 0.0) for user, cluster, _, it_wh in rows})
    return compute_emissions(ledger, feeds)


def catalog_two_skus(provider="svc"):
    return [
        SkuRecord("sku-A", "product", provider, 1.75, "unit"),
        SkuRecord("sku-B", "product", provider, 1.0, "unit"),
    ]


def test_sku_rates_price_proportional_and_closed():
    # Table quantities: A=15 units at normalized cost 1.75, B=10 at 1, 30 Wh total.
    usage = [
        SkuUsageRecord("sku-A", "r-low", "acct", MONTH, 15.0),
        SkuUsageRecord("sku-B", "r-low", "acct", MONTH, 10.0),
    ]
    rates = sku_energy_rates("svc", 30.0, catalog_two_skus(), sku_usage_sums(usage))
    assert rates["sku-A"] / rates["sku-B"] == pytest.approx(1.75, rel=1e-12)
    allocated = 15.0 * rates["sku-A"] + 10.0 * rates["sku-B"]
    assert allocated == pytest.approx(30.0, rel=1e-9)
    # Direct formula: denominator 15*1.75 + 10*1 = 36.25.
    assert rates["sku-A"] == pytest.approx(30.0 * 1.75 / 36.25, rel=1e-12)
    assert rates["sku-B"] == pytest.approx(30.0 / 36.25, rel=1e-12)


def test_sku_rates_under_swapped_quantity_assignment():
    # With quantities A=10, B=15 the same formula lands on the rounded
    # reference rates 1.62 and 0.92 within half a percent.
    usage = [
        SkuUsageRecord("sku-A", "r-low", "acct", MONTH, 10.0),
        SkuUsageRecord("sku-B", "r-low", "acct", MONTH, 15.0),
    ]
    rates = sku_energy_rates("svc", 30.0, catalog_two_skus(), sku_usage_sums(usage))
    assert rates["sku-B"] == pytest.approx(30.0 / 32.5, rel=1e-12)
    assert abs(rates["sku-A"] - 1.62) / 1.62 < 0.005
    assert abs(rates["sku-B"] - 0.92) / 0.92 < 0.005


def test_sku_rates_single_sku_degenerate():
    catalog = [SkuRecord("only", "product", "svc", 2.0, "unit")]
    usage = [SkuUsageRecord("only", "r-low", "acct", MONTH, 8.0)]
    rates = sku_energy_rates("svc", 56.0, catalog, sku_usage_sums(usage))
    assert rates == {"only": pytest.approx(56.0 / 8.0, rel=1e-12)}


def test_sku_rates_commitment_skus_excluded():
    catalog = catalog_two_skus() + [SkuRecord("sku-C", "product", "svc", 9.0, "unit", is_commitment=True)]
    usage = [
        SkuUsageRecord("sku-A", "r-low", "acct", MONTH, 1.0),
        SkuUsageRecord("sku-C", "r-low", "acct", MONTH, 100.0),
    ]
    assert list(sku_energy_rates("svc", 10.0, catalog, sku_usage_sums(usage))) == ["sku-A", "sku-B"]


def test_sku_rates_no_priced_usage_raises():
    with pytest.raises(NoBillableUsageError):
        sku_energy_rates("svc", 10.0, catalog_two_skus(), {})


def test_regional_intensity_constant_grid():
    result = regional_intensity("svc", {"svc": {"r-low": [0.5, 1000.0]}, "other": {"r-high": [9.0, 1.0]}})
    assert result == {"r-low": pytest.approx(500.0, rel=1e-12)}


def test_regional_intensity_weighted_mean():
    # 60% of energy at 100 g/kWh, 40% at 600 g/kWh -> 300 g/kWh overall.
    sums = {"svc": {"r-low": [600.0 * 100.0 / 1e6, 600.0], "r-high": [400.0 * 600.0 / 1e6, 400.0]}}
    result = regional_intensity("svc", sums)
    combined = (result["r-low"] * 600.0 + result["r-high"] * 400.0) / 1000.0
    assert combined == pytest.approx(300.0, rel=1e-12)


def test_regional_intensity_skips_energyless_regions():
    sums = {"svc": {"r-low": [0.1, 200.0], "r-high": [0.0, 0.0]}}
    assert list(regional_intensity("svc", sums)) == ["r-low"]
    assert regional_intensity("absent", sums) == {}


def test_alpha_is_one_when_balance_already_holds():
    rates = sku_energy_rates(
        "svc", 1000.0,
        [SkuRecord("s", "product", "svc", 1.0, "unit")],
        sku_usage_sums([SkuUsageRecord("s", "r-low", "acct", MONTH, 10.0)]),
    )
    intensity = {"r-low": 500.0}
    total_kg = 1000.0 * 500.0 / 1e6
    alpha = alpha_balance("svc", total_kg, rates, intensity, {("s", "r-low"): 10.0})
    assert alpha == pytest.approx(1.0, rel=1e-12)


def test_alpha_exceeds_one_when_usage_sits_in_low_carbon_region():
    # Energy split across regions, all billed usage in the cleaner one.
    sums = {"svc": {"r-low": [500.0 * 100.0 / 1e6, 500.0], "r-high": [500.0 * 600.0 / 1e6, 500.0]}}
    intensities = regional_intensity("svc", sums)
    catalog = [SkuRecord("s", "product", "svc", 1.0, "unit")]
    usage = [SkuUsageRecord("s", "r-low", "acct", MONTH, 4.0)]
    rates = sku_energy_rates("svc", 1000.0, catalog, sku_usage_sums(usage))
    total_kg = sum(kg for kg, _ in sums["svc"].values())
    alpha = alpha_balance("svc", total_kg, rates, intensities, {("s", "r-low"): 4.0})
    assert alpha > 1.0
    # Applying alpha restores the provider's measured carbon exactly.
    allocated = alpha * intensities["r-low"] * rates["s"] * 4.0 / 1e6
    assert allocated == pytest.approx(total_kg, rel=1e-9)


def test_beta_requires_billed_usage():
    with pytest.raises(Exception) as excinfo:
        beta_overhead(5.0, 0.0)
    assert "billed" in str(excinfo.value)


def test_account_footprints_zero_usage_rows():
    result = compute_customer_footprints(
        emissions(("svc", "c0", 0.5, 1000.0)), Bundle(zone_map=ZONE_MAP, sku_catalog=catalog_two_skus())
    )
    assert (result.reports, result.months, result.notices) == ([], {}, [])


def test_identical_accounts_split_footprint_evenly():
    bundle = generate(preset_spec("two-accounts"))
    result = run_end_to_end(bundle)
    by_account = {}
    for report in result.footprints.reports:
        by_account.setdefault(report.billing_account, 0.0)
        by_account[report.billing_account] += report.kg_co2e
    assert by_account["acct-01"] == pytest.approx(by_account["acct-02"], rel=1e-12)
    total_scope = sum(result.footprints.months[MONTH].provider_kg.values())
    assert sum(by_account.values()) == pytest.approx(total_scope, rel=1e-9)


def test_two_accounts_preset_beta_is_one():
    bundle = generate(preset_spec("two-accounts"))
    result = run_end_to_end(bundle)
    assert result.footprints.months[MONTH].beta == pytest.approx(1.0, rel=1e-9)


def test_overhead_pool_preset_beta_exceeds_one():
    bundle = generate(preset_spec("overhead-pool"))
    result = run_end_to_end(bundle)
    month = result.footprints.months[MONTH]
    assert month.beta > 1.0
    reported = sum(r.kg_co2e for r in result.footprints.reports)
    assert reported == pytest.approx(sum(month.provider_kg.values()), rel=1e-9)


def test_unbilled_usage_absorbs_energy_but_closure_survives():
    bundle = generate(preset_spec("two-accounts"))
    region = "region-01"
    bundle.billing_usage.append(SkuUsageRecord("sku-svc-a", region, None, MONTH, 50.0))
    result = run_end_to_end(bundle)
    month = result.footprints.months[MONTH]
    assert month.beta > 1.0  # unbilled share must be pushed back onto accounts
    reported = sum(r.kg_co2e for r in result.footprints.reports)
    assert reported == pytest.approx(sum(month.provider_kg.values()), rel=1e-9)


@given(scale=st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
def test_footprints_are_homogeneous_in_account_usage(scale):
    # Two accounts on one SKU and region split the provider's kg 1:3 at any scale.
    catalog = [SkuRecord("s", "product", "svc", 1.0, "unit")]
    billing = [
        SkuUsageRecord("s", "r-low", "a1", MONTH, 10.0 * scale),
        SkuUsageRecord("s", "r-low", "a2", MONTH, 30.0 * scale),
    ]
    bundle = Bundle(zone_map=ZONE_MAP, sku_catalog=catalog, billing_usage=billing)
    one, two = compute_customer_footprints(emissions(("svc", "c0", 0.5, 1000.0)), bundle).reports
    assert (one.billing_account, two.billing_account) == ("a1", "a2")
    assert one.kg_co2e == pytest.approx(0.125, rel=1e-9)
    assert two.kg_co2e == pytest.approx(0.375, rel=1e-9)


def test_beta_invariant_under_joint_scaling():
    bundle = generate(preset_spec("overhead-pool"))
    baseline = run_end_to_end(bundle).footprints.months[MONTH].beta

    doubled = generate(preset_spec("overhead-pool"))
    doubled.billing_usage = [
        SkuUsageRecord(b.sku_id, b.region_id, b.billing_account, b.month, b.usage_units * 2.0)
        for b in doubled.billing_usage
    ]
    rescaled = run_end_to_end(doubled).footprints.months[MONTH].beta
    assert rescaled == pytest.approx(baseline, rel=1e-12)


def test_commitment_sku_usage_excluded_from_reports():
    bundle = generate(preset_spec("two-accounts"))
    bundle.sku_catalog.append(
        SkuRecord("sku-commit", "product-svc-a", "svc-a", 5.0, "unit", is_commitment=True)
    )
    bundle.billing_usage.append(SkuUsageRecord("sku-commit", "region-01", "acct-01", MONTH, 999.0))
    result = run_end_to_end(bundle)
    assert all(r.product_id != "sku-commit" for r in result.footprints.reports)
    reported = sum(r.kg_co2e for r in result.footprints.reports)
    scope = sum(result.footprints.months[MONTH].provider_kg.values())
    assert reported == pytest.approx(scope, rel=1e-9)


def test_footprint_notices_keep_their_order():
    catalog = [
        SkuRecord("s-svc", "product", "svc", 1.0, "unit"),
        SkuRecord("s-ghost", "product", "ghost", 1.0, "unit"),
        SkuRecord("s-bare", "product", "bare", 1.0, "unit"),
    ]
    emitted = emissions(("svc", "c0", 0.5, 1000.0), ("overhead", "c1", 0.25, 400.0))
    billing = [
        SkuUsageRecord("s-svc", "r-low", "acct", MONTH, 4.0),
        SkuUsageRecord("s-svc", "r-high", "acct", MONTH, 1.0),
        SkuUsageRecord("s-ghost", "r-low", "acct", MONTH, 2.0),
        SkuUsageRecord("s-svc", "r-low", "acct", "2023-07", 1.0),
    ]
    bundle = Bundle(zone_map=ZONE_MAP, sku_catalog=catalog, billing_usage=billing)
    result = compute_customer_footprints(emitted, bundle)
    assert [(n.code, n.subject, n.detail) for n in result.notices] == [
        ("unallocatable-provider", "bare", "provider 'bare' has no priced usage in 2023-06"),
        ("unallocatable-provider", "ghost", "provider 'ghost' has no carbon-bearing usage in 2023-06"),
        ("region-mismatch", "svc", "usage in ['r-high'] carries no energy in 2023-06"),
        ("empty-month", "2023-07", "no emissions in scope; month skipped"),
    ]
    [report] = result.reports
    assert (report.billing_account, report.region_id, report.month) == ("acct", "r-low", MONTH)
    assert report.kg_co2e == pytest.approx(0.75, rel=1e-12)


def test_an_energyless_cell_changes_no_footprint():
    # svc's zero-Wh cell lies in r-high, where svc has no other energy, so r-high has no intensity for svc.
    catalog = [SkuRecord("s", "product", "svc", 1.0, "unit")]
    billing = [
        SkuUsageRecord("s", "r-low", "acct", MONTH, 4.0),
        SkuUsageRecord("s", "r-high", "acct", MONTH, 1.0),
    ]
    bundle = Bundle(
        zone_map=ZONE_MAP,
        sku_catalog=catalog,
        billing_usage=billing,
        pue=[PueRecord("c0", H(0), 1.2), PueRecord("c1", H(0), 1.5)],
        carbon_intensity=[CarbonIntensityRecord("z0", H(0), 300.0), CarbonIntensityRecord("z1", H(0), 700.0)],
    )
    cells = {("svc", "c0", H(0)): (800.0, 200.0), ("overhead", "c1", H(0)): (400.0, 0.0)}
    plain = compute_emissions(ledger_of(cells), bundle)
    padded = compute_emissions(ledger_of({**cells, ("svc", "c1", H(0)): (0.0, 0.0)}), bundle)
    assert len(padded) == len(plain) + 1

    expected = compute_customer_footprints(plain, bundle)
    result = compute_customer_footprints(padded, bundle)
    assert (result.reports, result.months, result.notices) == (expected.reports, expected.months, expected.notices)
    assert {region for _, region in result.months[MONTH].adjusted} == {"r-low"}
    assert [n.code for n in result.notices] == ["region-mismatch"]


def test_billing_rows_are_read_a_fixed_number_of_times():
    # Rates once re-summed a month's billing per provider, and closure scanned every month's rows per month,
    # so the most reads of one row's field grew with the providers (7 and 46 here) and with the months (two
    # in the last fleet).
    reads = Counter()

    class Counted(SkuUsageRecord):
        __slots__ = ()

        def __getattribute__(self, name):
            reads[id(self), name] += 1
            return object.__getattribute__(self, name)

    most = []
    for spec in (
        ScenarioSpec(seed=7, machine_count=30, user_count=10, cluster_count=2, hours=6),
        ScenarioSpec(seed=7, machine_count=30, user_count=60, cluster_count=2, hours=6),
        ScenarioSpec(seed=5, machine_count=20, hours=720),
    ):
        bundle = generate(spec)
        bundle.billing_usage = [Counted(*astuple(rec)) for rec in bundle.billing_usage]
        reads.clear()
        assert closure_failures(bundle, run_end_to_end(bundle)) == []
        per_field: dict[str, int] = {}
        for (_, name), count in reads.items():
            per_field[name] = max(per_field.get(name, 0), count)
        most.append(per_field)
    assert most == [most[0]] * 3


@pytest.mark.parametrize("spec, digest", [
    pytest.param(
        ScenarioSpec(seed=5, machine_count=40, hours=720, cyclic_economy=True, include_unbilled_usage=True),
        "a72786f0943cfb561a40fca085aca44e937a169b490ef6fb02c3fed72e6d5f58",
        id="two-months",
    ),
    pytest.param(  # hundreds of the users are providers
        ScenarioSpec(seed=7, machine_count=200, user_count=500, cluster_count=20, hours=12),
        "757a2f3e385aa662a1e7021aba65de0d309f03547ec4b4e4dbf4b8dadb693d1a",
        id="500-users",
    ),
])
def test_month_allocations_keep_their_order_and_bits(spec, digest):
    # Reports show neither the per-user sums nor their order; the SHA-256 of
    # every month's ``repr`` pins provider_kg and provider_wh as ordered items.
    months = run_end_to_end(generate(spec)).footprints.months
    assert hashlib.sha256(repr(list(months.items())).encode()).hexdigest() == digest
