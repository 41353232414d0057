import gc
import tracemalloc
from datetime import date

import pytest
from hypothesis import given, strategies as st

from carbonledger.allocation import STAGE_MACHINE
from carbonledger.check import run_end_to_end
from carbonledger.model import (
    Bundle,
    NetCostRecord,
    NonServiceCostRecord,
    ResourceVector,
    ServiceUsageRecord,
    ServiceUsageTable,
)
from carbonledger.services import (
    apply_major_realloc,
    apply_minor_realloc_round,
    build_day_plans,
    run_allocation_pipeline,
)
from carbonledger.simulate import ScenarioSpec, generate, preset_spec

from conftest import H, cells_of, ledger_of

DAY = date(2023, 6, 5)


def usage_row(consumer, provider, gcu=0.0, ssd=0.0, hdd=0.0, colossus=False, cluster="c0", hour=0):
    return ServiceUsageRecord(
        consumer, provider, cluster, H(hour),
        ResourceVector(gcu=gcu, ssd_tib=ssd, hdd_tib=hdd), colossus,
    )


# --- major-service fractions -------------------------------------------------

def major_shares(provider, rows, dynamic_wh=1.0):
    """Each consumer's fraction of the provider's dynamic energy after the major stage."""
    ledger = ledger_of({(provider, "c0", H(0)): (0.0, dynamic_wh)})
    result = apply_major_realloc(ledger, ServiceUsageTable(rows))
    return {user: dynamic / dynamic_wh for (user, _, _), _, dynamic in result.rows()}


def test_major_fraction_sole_consumer():
    rows = [usage_row("a", "svc", gcu=12.0)]
    assert major_shares("svc", rows) == {"svc": 0.0, "a": 1.0}


def test_major_fraction_share_of_total():
    rows = [usage_row("a", "svc", gcu=30.0), usage_row("b", "svc", gcu=90.0)]
    assert major_shares("svc", rows)["a"] == pytest.approx(0.25, abs=1e-15)


def test_major_fraction_zero_usage_consumer():
    rows = [usage_row("a", "svc", gcu=0.0), usage_row("b", "svc", gcu=5.0)]
    assert major_shares("svc", rows) == {"svc": 0.0, "b": 1.0}


def test_colossus_fraction_sole_consumer():
    rows = [usage_row("a", "col", hdd=5.0, colossus=True)]
    assert major_shares("col", rows) == {"col": 0.0, "a": 1.0}


def test_colossus_fraction_symmetry():
    rows = [
        usage_row("a", "col", gcu=2.0, ssd=1.0, hdd=6.0, colossus=True),
        usage_row("b", "col", gcu=2.0, ssd=1.0, hdd=6.0, colossus=True),
    ]
    assert major_shares("col", rows)["a"] == pytest.approx(0.5, abs=1e-15)


def test_colossus_fraction_weights_storage_types():
    # 10 TiB HDD at 1/6 against 10 TiB SSD at 1: 10/6 over 70/6 = 1/7.
    rows = [
        usage_row("a", "col", hdd=10.0, colossus=True),
        usage_row("b", "col", ssd=10.0, colossus=True),
    ]
    assert major_shares("col", rows)["a"] == pytest.approx(1.0 / 7.0, abs=1e-12)


def test_apply_major_without_usage_is_identity():
    ledger = ledger_of({("a", "c0", H(0)): (5.0, 7.0)})
    result = apply_major_realloc(ledger, ServiceUsageTable())
    assert cells_of(result) == cells_of(ledger) == {("a", "c0", H(0)): (5.0, 7.0)}


def test_apply_major_moves_dynamic_only():
    ledger = ledger_of({
        ("svc", "c0", H(0)): (4.0, 10.0),
        ("a", "c0", H(0)): (1.0, 0.0),
    })
    rows = [usage_row("a", "svc", gcu=6.0), usage_row("b", "svc", gcu=4.0)]
    cells = cells_of(apply_major_realloc(ledger, ServiceUsageTable(rows)))
    assert cells[("svc", "c0", H(0))] == (4.0, 0.0)
    assert cells[("a", "c0", H(0))][1] == pytest.approx(6.0, rel=1e-12)
    assert cells[("b", "c0", H(0))][1] == pytest.approx(4.0, rel=1e-12)
    assert cells[("a", "c0", H(0))][0] == 1.0


def test_apply_major_acts_per_cluster():
    ledger = ledger_of({
        ("svc", "c0", H(0)): (0.0, 10.0),
        ("svc", "c1", H(0)): (0.0, 30.0),
    })
    rows = [
        usage_row("gmailish", "svc", gcu=1.0, cluster="c0"),
        usage_row("gmailish", "svc", gcu=1.0, cluster="c1"),
    ]
    cells = cells_of(apply_major_realloc(ledger, ServiceUsageTable(rows)))
    assert cells[("gmailish", "c0", H(0))][1] == 10.0
    assert cells[("gmailish", "c1", H(0))][1] == 30.0


# --- provider identification and net-cost fractions --------------------------

def test_identify_provider_most_negative_wins():
    records = [
        NetCostRecord("ads", "blob", DAY, 1000.0),
        NetCostRecord("blobstore", "blob", DAY, -10000.0),
    ]
    plans, notices = build_day_plans(records, [])
    assert list(plans[DAY]) == ["blobstore"]
    assert notices == []


def test_identify_provider_single_negative_record():
    plans, _ = build_day_plans([NetCostRecord("u", "s", DAY, -5.0), NetCostRecord("v", "s", DAY, 1.0)], [])
    assert list(plans[DAY]) == ["u"]


def test_identify_provider_tie_breaks_lexicographically():
    records = [
        NetCostRecord("zeta", "s", DAY, -5.0),
        NetCostRecord("alpha", "s", DAY, -5.0),
        NetCostRecord("c", "s", DAY, 1.0),
    ]
    plans, notices = build_day_plans(records, [])
    assert list(plans[DAY]) == ["alpha"]
    # The losing tied user is then a consumer with a negative net.
    assert [(n.code, n.subject) for n in notices] == [("provider-tie", "s"), ("negative-consumer-cost", "zeta")]


def test_identify_provider_missing_revenue_skips():
    plans, notices = build_day_plans([NetCostRecord("u", "s", DAY, 3.0)], [])
    assert plans[DAY] == {}
    assert [n.code for n in notices] == ["provider-ambiguous"]


def test_cost_summary_clamp_invariants():
    # k earns 10 on s, pays 4 for t and has other costs: 3 on DAY, so its
    # total cost is -3 and the denominator is |n_s| = 10; 30 on day2, so its
    # total cost 24 is the denominator. b earns 4 on t with total cost -4.
    day2 = date(2023, 6, 6)
    net = []
    for day in (DAY, day2):
        net += [
            NetCostRecord("k", "s", day, -10.0),
            NetCostRecord("k", "t", day, 4.0),
            NetCostRecord("a", "s", day, 5.0),
            NetCostRecord("b", "t", day, -4.0),
        ]
    plans, _ = build_day_plans(net, [NonServiceCostRecord("k", DAY, 3.0), NonServiceCostRecord("k", day2, 30.0)])
    assert plans[DAY] == {"k": [("a", 0.5)], "b": [("k", 1.0)]}
    assert plans[day2] == {"k": [("a", 5.0 / 24.0)], "b": [("k", 1.0)]}


def test_minor_fraction_worked_example():
    # 1000 paid of 10000 revenue, costs equal revenue: exactly 10%.
    net = [NetCostRecord("blobstore", "blob", DAY, -10000.0), NetCostRecord("a", "blob", DAY, 1000.0)]
    plans, _ = build_day_plans(net, [NonServiceCostRecord("blobstore", DAY, 10000.0)])
    [(consumer, fraction)] = plans[DAY]["blobstore"]
    assert consumer == "a"
    assert fraction == pytest.approx(0.10, abs=1e-15)


def test_minor_fraction_balanced_service_sums_to_one():
    net = [
        NetCostRecord("k", "s", DAY, -1000.0),
        NetCostRecord("a", "s", DAY, 600.0),
        NetCostRecord("b", "s", DAY, 400.0),
    ]
    plans, notices = build_day_plans(net, [NonServiceCostRecord("k", DAY, 2000.0)])
    assert sum(f for _, f in plans[DAY]["k"]) == pytest.approx(1.0, abs=1e-12)
    assert notices == []


def test_minor_fraction_zero_cost_consumer():
    net = [
        NetCostRecord("k", "s", DAY, -10.0),
        NetCostRecord("z", "s", DAY, 0.0),
        NetCostRecord("b", "s", DAY, 4.0),
    ]
    plans, _ = build_day_plans(net, [])
    assert plans[DAY]["k"] == [("b", pytest.approx(0.4, abs=1e-15))]


def test_day_plan_clamps_negative_consumer_cost():
    net = [
        NetCostRecord("k", "s", DAY, -100.0),
        NetCostRecord("noisy", "s", DAY, -5.0),
        NetCostRecord("a", "s", DAY, 50.0),
    ]
    plans, notices = build_day_plans(net, [NonServiceCostRecord("k", DAY, 200.0)])
    outflows = dict(plans[DAY]["k"])
    assert "noisy" not in outflows
    assert "negative-consumer-cost" in {n.code for n in notices}


def test_day_plan_rescales_over_allocated_provider():
    # Inconsistent books: consumers pay more than the recorded revenue.
    net = [
        NetCostRecord("k", "s", DAY, -10.0),
        NetCostRecord("a", "s", DAY, 12.0),
        NetCostRecord("b", "s", DAY, 5.0),
    ]
    plans, notices = build_day_plans(net, [])
    total = sum(f for _, f in plans[DAY]["k"])
    assert total == pytest.approx(1.0, abs=1e-12)
    assert "over-allocated-provider" in {n.code for n in notices}


def test_day_plan_notices_keep_their_order():
    # Days are planned in date order and services in name order; a provider
    # with no paying consumer on its first service is planned where it first pays out.
    day2 = date(2023, 6, 6)
    net = [
        NetCostRecord("k", "s", day2, -10.0),
        NetCostRecord("a", "s", day2, 12.0),
        NetCostRecord("b", "s", day2, 5.0),
        NetCostRecord("a", "free", day2, 2.0),
        NetCostRecord("k", "a0", DAY, -2.0),
        NetCostRecord("d", "a0", DAY, 0.0),
        NetCostRecord("zeta", "t", DAY, -5.0),
        NetCostRecord("noisy", "t", DAY, -1.0),
        NetCostRecord("alpha", "t", DAY, -5.0),
        NetCostRecord("c", "t", DAY, 8.0),
        NetCostRecord("c", "free", DAY, 0.0),
        NetCostRecord("k", "u", DAY, -1.0),
        NetCostRecord("c", "u", DAY, 4.0),
    ]
    _, notices = build_day_plans(net, [])
    assert [(n.code, n.subject, n.detail) for n in notices] == [
        ("provider-ambiguous", "free", "no user receives revenue; service skipped"),
        ("provider-tie", "t", "tie broken to 'alpha'"),
        ("negative-consumer-cost", "zeta", "clamped to 0 for 't' on 2023-06-05"),
        ("negative-consumer-cost", "noisy", "clamped to 0 for 't' on 2023-06-05"),
        ("over-allocated-provider", "alpha", "outflow 1.600000 rescaled to 1 on 2023-06-05"),
        ("over-allocated-provider", "k", "outflow 4.000000 rescaled to 1 on 2023-06-05"),
        ("provider-ambiguous", "free", "no user receives revenue; service skipped"),
        ("over-allocated-provider", "k", "outflow 1.700000 rescaled to 1 on 2023-06-06"),
    ]


@given(
    payments=st.lists(st.floats(0.0, 1e4, allow_nan=False), min_size=1, max_size=6),
    base_cost=st.floats(0.0, 5e4, allow_nan=False),
)
def test_minor_fractions_never_exceed_one(payments, base_cost):
    revenue = sum(payments)
    if revenue <= 0.0:
        return
    net = [NetCostRecord("k", "s", DAY, -revenue)]
    net.extend(NetCostRecord(f"u{i}", "s", DAY, p) for i, p in enumerate(payments))
    plans, _ = build_day_plans(net, [NonServiceCostRecord("k", DAY, base_cost)])
    outflows = plans[DAY].get("k", [])
    assert sum(f for _, f in outflows) <= 1.0 + 1e-12
    # Each consumer's share is its payment over the clamped denominator.
    denominator = max(revenue, base_cost - revenue)
    expected = {f"u{i}": p / denominator for i, p in enumerate(payments) if p > 0.0}
    assert dict(outflows) == pytest.approx(expected, rel=1e-12)


# --- minor rounds ------------------------------------------------------------

def test_minor_round_without_net_costs_is_identity():
    ledger = ledger_of({("a", "c0", H(0)): (3.0, 4.0)})
    plans, _ = build_day_plans([], [])
    result, moved, flows = apply_minor_realloc_round(ledger, plans, "after_minor_round_1")
    assert cells_of(result) == cells_of(ledger) == {("a", "c0", H(0)): (3.0, 4.0)}
    assert moved == 0.0 and flows == {}


def test_minor_round_moves_components_proportionally():
    ledger = ledger_of({("k", "c0", H(0)): (40.0, 60.0)})
    net = [
        NetCostRecord("k", "s", DAY, -1000.0),
        NetCostRecord("a", "s", DAY, 250.0),
    ]
    plans, _ = build_day_plans(net, [NonServiceCostRecord("k", DAY, 2000.0)])
    result, moved, flows = apply_minor_realloc_round(ledger, plans, "after_minor_round_1")
    assert moved == pytest.approx(25.0, rel=1e-12)
    assert flows == {("k", "a", DAY): pytest.approx(25.0, rel=1e-12)}
    cells = cells_of(result)
    assert cells[("a", "c0", H(0))] == (10.0, 15.0)
    assert sum(cells[("k", "c0", H(0))]) == pytest.approx(75.0, rel=1e-12)


def test_two_rounds_resolve_service_chain():
    # Upstream storage -> intermediate service -> end users, as in the
    # sankey-small preset; after two rounds both providers hold nothing.
    bundle = generate(preset_spec("sankey-small"))
    result = run_allocation_pipeline(bundle)
    final_by_user = result.final.totals_by_user()
    assert final_by_user.get("blobstore", 0.0) == pytest.approx(0.0, abs=1e-6)
    assert final_by_user.get("cloud-storage", 0.0) == pytest.approx(0.0, abs=1e-6)
    assert final_by_user["user-one"] > 0.0 and final_by_user["user-two"] > 0.0


def test_random_economy_matches_transfer_matrix():
    # Independent oracle: build the explicit 5-user transfer matrix and
    # square it, then compare against two pipeline rounds.
    import random

    rng = random.Random(99)
    users = [f"u{i}" for i in range(5)]
    provider_a, provider_b = users[0], users[1]
    net = []
    payments_a = {u: rng.uniform(10, 100) for u in users[2:]}
    payments_b = {users[0]: rng.uniform(10, 50), users[4]: rng.uniform(10, 50)}
    net.append(NetCostRecord(provider_a, "svc-a", DAY, -sum(payments_a.values())))
    net.extend(NetCostRecord(u, "svc-a", DAY, p) for u, p in payments_a.items())
    net.append(NetCostRecord(provider_b, "svc-b", DAY, -sum(payments_b.values())))
    net.extend(NetCostRecord(u, "svc-b", DAY, p) for u, p in payments_b.items())
    non_service = [
        NonServiceCostRecord(provider_a, DAY, 500.0),
        NonServiceCostRecord(provider_b, DAY, 300.0),
    ]

    energies = {u: rng.uniform(50, 500) for u in users}
    cells = {(u, "c0", H(0)): (energies[u], 0.0) for u in users}

    plans, _ = build_day_plans(net, non_service)
    step1, _, _ = apply_minor_realloc_round(ledger_of(cells), plans, "r1")
    step2, _, _ = apply_minor_realloc_round(step1, plans, "r2")

    # Matrix oracle.
    index = {u: i for i, u in enumerate(users)}
    matrix = [[1.0 if i == j else 0.0 for j in range(5)] for i in range(5)]

    def set_row(provider, payments):
        revenue = sum(payments.values())
        base = next(r.cost for r in non_service if r.user == provider)
        paid_by_provider = payments_b.get(provider, 0.0) if provider == provider_a else 0.0
        total_cost = base + paid_by_provider - revenue
        denom = max(revenue, total_cost)
        row = index[provider]
        out = 0.0
        for consumer, paid in payments.items():
            matrix[row][index[consumer]] = paid / denom
            out += paid / denom
        matrix[row][row] = 1.0 - out

    set_row(provider_a, payments_a)
    set_row(provider_b, payments_b)

    vector = [energies[u] for u in users]
    for _ in range(2):
        vector = [sum(vector[i] * matrix[i][j] for i in range(5)) for j in range(5)]
    final = cells_of(step2)
    for u in users:
        got = sum(final[(u, "c0", H(0))])
        assert got == pytest.approx(vector[index[u]], rel=1e-9)


# --- the full pipeline -------------------------------------------------------

def test_pipeline_without_services_leaves_ledger_unchanged():
    bundle = generate(preset_spec("figure1"))
    result = run_allocation_pipeline(bundle)
    assert cells_of(result.final) == cells_of(result.stage(STAGE_MACHINE)) != {}


def test_an_earlier_stage_cannot_start_a_new_one():
    # The stages share one key index, so a stage that later stages have
    # extended must not grow a second branch of it.
    bundle = generate(preset_spec("sankey-small"))
    result = run_allocation_pipeline(bundle)
    machine = result.stage(STAGE_MACHINE)
    with pytest.raises(ValueError, match="not the latest stage"):
        apply_major_realloc(machine, bundle.service_usage)
    with pytest.raises(ValueError, match="not the latest stage"):
        machine.credit(("nobody", "c0", H(0)), 1.0, 0.0)


def test_run_artifacts_stay_small():
    # The benchmark's cli-1k shape: 1k machines, 50 users, 20 clusters, 12 h.
    # Four stages of per-cell objects plus a transfer dict per round once
    # retained 11.8 MiB here, and one emission object per cell 4.45 MiB.
    bundle = generate(ScenarioSpec(seed=7, machine_count=1000, user_count=50, cluster_count=20, hours=12))
    gc.collect()
    tracemalloc.start()
    try:
        artifacts = run_end_to_end(bundle)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert artifacts.allocation.final.total_wh() > 0.0
    assert retained < 4 * 2**20


def test_generated_bundle_stays_small():
    # The same cli-1k shape: 11.8k power samples, 23.0k usage rows, 7.0k
    # allocations and 8.1k service-usage rows. One frozen record per row once
    # held 5.52 MiB here; four column tables bring the whole bundle to 2.29 MiB.
    spec = ScenarioSpec(seed=7, machine_count=1000, user_count=50, cluster_count=20, hours=12)
    gc.collect()
    tracemalloc.start()
    try:
        bundle = generate(spec)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(bundle.power_samples) > 10_000 and len(bundle.gcu_usage) > 20_000
    assert held < 4 * 2**20


def test_pipeline_empty_fleet():
    result = run_allocation_pipeline(Bundle())
    assert result.final.cells == {}


def test_pipeline_conserves_energy_at_every_stage():
    bundle = generate(preset_spec("sankey-small"))
    result = run_allocation_pipeline(bundle)
    measured = sum(s.measured_power_watts for s in bundle.power_samples)
    for ledger in result.stages:
        assert ledger.total_wh() == pytest.approx(measured, rel=1e-9)


def test_balanced_service_provider_retains_nothing():
    bundle = generate(preset_spec("balanced-service"))
    result = run_allocation_pipeline(bundle)
    after_major = result.stage("after_major_realloc").totals_by_user()
    final = result.final.totals_by_user()
    provider_energy_before = after_major["svc"]
    assert provider_energy_before > 0.0
    assert final.get("svc", 0.0) <= 1e-12 * provider_energy_before


@pytest.mark.parametrize("preset", ["sankey-small", "balanced-service"])
def test_round_two_moves_no_more_than_round_one(preset):
    bundle = generate(preset_spec(preset))
    result = run_allocation_pipeline(bundle)
    moved = result.round_moved_wh
    assert moved[1] <= moved[0] + 1e-9


def test_rounds_flag_extends_stages():
    bundle = generate(preset_spec("sankey-small"))
    result = run_allocation_pipeline(bundle, rounds=4)
    stage_names = [ledger.stage for ledger in result.stages]
    assert stage_names == [
        "machine",
        "after_major_realloc",
        "after_minor_round_1",
        "after_minor_round_2",
        "after_minor_round_3",
        "after_minor_round_4",
    ]
    assert len(result.round_moved_wh) == 4


def test_apply_major_zero_denominator_keeps_provider_dynamic():
    ledger = ledger_of({("svc", "c0", H(0)): (0.0, 10.0)})
    rows = [usage_row("a", "svc", gcu=0.0)]
    result = apply_major_realloc(ledger, ServiceUsageTable(rows))
    assert cells_of(result) == {("svc", "c0", H(0)): (0.0, 10.0)}
