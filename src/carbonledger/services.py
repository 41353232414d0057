"""Reallocate energy from shared-service providers to their consumers.

Major services move dynamic energy by per-cluster usage fractions; the
long tail of minor services moves total energy by daily net-cost
fractions, applied twice so chains of services resolve. The pipeline
entry point runs the five stages in order and snapshots each one.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from datetime import date
from itertools import compress
from typing import Sequence

from .allocation import (
    STAGE_AFTER_MAJOR,
    Ledger,
    LedgerKey,
    build_machine_ledger,
    minor_round_stage,
)
from .model import (
    RESOURCE_WEIGHTS,
    Bundle,
    NetCostRecord,
    NonServiceCostRecord,
    Notice,
    ServiceUsageTable,
    day_of,
)
from .power import split_fleet


FlowKey = tuple[str, str, date]  # (provider, consumer, day)
DayPlans = dict[date, dict[str, list[tuple[str, float]]]]  # day -> provider -> [(consumer, fraction)]


def apply_major_realloc(ledger: Ledger, usages: ServiceUsageTable) -> Ledger:
    """Move each major provider's dynamic energy to its consumers.

    Idle energy stays put: resource allocations already attribute it to
    end users. All moves are computed against the incoming ledger
    snapshot, so the result does not depend on provider order. Providers
    whose records carry the storage-style flag split by a weighted blend
    of compute and storage usage, the rest by compute usage alone. Usage
    rows are grouped by (provider, cluster, hour) as ``array("q")`` row
    numbers into the usage columns.
    """
    storage_style = set(compress(usages.provider, usages.colossus_style))
    w = RESOURCE_WEIGHTS
    consumers, gcu, ssd, hdd = usages.consumer, usages.gcu, usages.ssd_tib, usages.hdd_tib
    groups: dict[LedgerKey, array] = {}
    for row, key in enumerate(zip(usages.provider, usages.cluster_id, usages.hour)):
        rows = groups.get(key)
        if rows is None:
            rows = groups[key] = array("q")
        rows.append(row)

    out = ledger.copy(STAGE_AFTER_MAJOR)
    gains: dict[LedgerKey, float] = {}
    for key, rows in groups.items():
        provider, cluster, hour = key
        cell = ledger.cells.get(key)
        if cell is None or ledger.dynamic[cell] == 0.0:
            continue
        dynamic_wh = ledger.dynamic[cell]
        blend = provider in storage_style
        shares: dict[str, float] = {}
        for row in rows:
            share = w.gcu * gcu[row] + w.ssd_tib * ssd[row] + w.hdd_tib * hdd[row] if blend else gcu[row]
            if share > 0.0:
                consumer = consumers[row]
                shares[consumer] = shares.get(consumer, 0.0) + share
        denominator = sum(shares.values())
        if denominator <= 0.0:
            continue
        moved = 0.0
        for consumer, share in shares.items():
            amount = dynamic_wh * (share / denominator)
            gains[(consumer, cluster, hour)] = gains.get((consumer, cluster, hour), 0.0) + amount
            moved += amount
        remainder = dynamic_wh - moved
        if remainder < 0.0:  # float dust from the share quotients
            remainder = 0.0
        out.dynamic[cell] = remainder

    for key, wh in gains.items():
        out.credit(key, 0.0, wh)
    return out


def build_day_plans(
    net_costs: Sequence[NetCostRecord],
    non_service_costs: Sequence[NonServiceCostRecord],
) -> tuple[DayPlans, list[Notice]]:
    """Compile the daily transfer fractions for the net-cost economy.

    On each day, a service's provider is the user with the most negative
    net cost for it, ties going to the smaller user id; with no negative
    net the service is skipped. Each paying consumer receives its payment
    over the provider's revenue or total cost, whichever is larger, so a
    provider never hands out more than all of its energy for one service;
    a provider whose outflows over all services still exceed 1 is rescaled
    to 1.
    """
    rows: dict[date, dict[str, list[tuple[str, float]]]] = {}  # day -> service -> [(user, net)]
    nets: dict[date, dict[str, dict[str, float]]] = {}  # day -> user -> service -> net
    for rec in net_costs:
        rows.setdefault(rec.day, {}).setdefault(rec.service, []).append((rec.user, rec.net_cost))
        per_service = nets.setdefault(rec.day, {}).setdefault(rec.user, {})
        per_service[rec.service] = per_service.get(rec.service, 0.0) + rec.net_cost
    base: dict[tuple[date, str], float] = {}
    for rec in non_service_costs:
        base[(rec.day, rec.user)] = base.get((rec.day, rec.user), 0.0) + rec.cost

    notices: list[Notice] = []
    plans: DayPlans = {}
    for day in sorted(rows):
        day_nets = nets[day]
        fractions: dict[str, dict[str, float]] = {}
        for service, service_rows in sorted(rows[day].items()):
            totals = {user: day_nets[user][service] for user, _ in service_rows}
            minimum = min(totals.values())
            if minimum >= 0.0:
                notices.append(Notice("provider-ambiguous", service, "no user receives revenue; service skipped"))
                continue
            provider, *tied = sorted(user for user, value in totals.items() if value == minimum)
            if tied:
                notices.append(Notice("provider-tie", service, f"tie broken to {provider!r}"))
            provider_nets = day_nets[provider]
            total_cost = base.get((day, provider), 0.0) + sum(provider_nets.values())
            denominator = max(abs(provider_nets[service]), total_cost)
            for user, net in service_rows:
                if user == provider:
                    continue
                if net < 0.0:
                    notices.append(Notice("negative-consumer-cost", user, f"clamped to 0 for {service!r} on {day}"))
                elif net > 0.0:
                    per_consumer = fractions.setdefault(provider, {})
                    per_consumer[user] = per_consumer.get(user, 0.0) + net / denominator

        plan = plans[day] = {}
        for provider, per_consumer in fractions.items():
            total_out = sum(per_consumer.values())
            if total_out > 1.0 + 1e-12:
                notices.append(
                    Notice("over-allocated-provider", provider, f"outflow {total_out:.6f} rescaled to 1 on {day}")
                )
                per_consumer = {c: f / total_out for c, f in per_consumer.items()}
            plan[provider] = sorted(per_consumer.items())
    return plans, notices


def apply_minor_realloc_round(
    ledger: Ledger,
    plans: DayPlans,
    stage: str,
) -> tuple[Ledger, float, dict[FlowKey, float]]:
    """One net-cost round: every provider pushes from the round's snapshot.

    Idle and dynamic components move in proportion, so component sums are
    conserved as exactly as the totals. Returns the new ledger, the total
    energy moved, and the energy moved per (provider, consumer, day).
    """
    out = ledger.copy(stage)
    gains: dict[LedgerKey, list[float]] = {}
    flows: dict[FlowKey, float] = {}
    moved_total = 0.0

    for row, (key, idle_wh, dynamic_wh) in enumerate(ledger.rows()):
        provider, cluster, hour = key
        plan = plans.get(day := day_of(hour))
        if plan is None:
            continue
        outflows = plan.get(provider)
        if not outflows:
            continue
        total_fraction = sum(f for _, f in outflows)
        if total_fraction <= 0.0:
            continue
        for consumer, fraction in outflows:
            idle_part = idle_wh * fraction
            dyn_part = dynamic_wh * fraction
            gain = gains.setdefault((consumer, cluster, hour), [0.0, 0.0])
            gain[0] += idle_part
            gain[1] += dyn_part
            amount = idle_part + dyn_part
            flows[(provider, consumer, day)] = flows.get((provider, consumer, day), 0.0) + amount
            moved_total += amount
        keep = 1.0 - total_fraction
        if keep < 0.0:  # guarded by the plan's rescale; float dust only
            keep = 0.0
        out.idle[row] = idle_wh * keep
        out.dynamic[row] = dynamic_wh * keep

    for key, (idle_wh, dyn_wh) in gains.items():
        out.credit(key, idle_wh, dyn_wh)
    return out, moved_total, flows


@dataclass(slots=True)
class AllocationResult:
    """Every stage snapshot of one pipeline run plus its bookkeeping."""

    stages: list[Ledger]
    round_moved_wh: list[float]
    round_flows: list[dict[FlowKey, float]]
    notices: list[Notice]

    @property
    def final(self) -> Ledger:
        return self.stages[-1]

    def stage(self, name: str) -> Ledger:
        for ledger in self.stages:
            if ledger.stage == name:
                return ledger
        raise KeyError(name)


def run_allocation_pipeline(bundle: Bundle, rounds: int = 2) -> AllocationResult:
    """Run the full allocation: idle, dynamic, major, then minor rounds.

    ``rounds`` defaults to the standard two net-cost rounds; more rounds
    exist for convergence experiments only.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    split = split_fleet(bundle.machines, bundle.power_samples)
    machine_ledger, notices = build_machine_ledger(
        split, bundle.machines, bundle.resource_allocations, bundle.gcu_usage
    )
    stages = [machine_ledger]
    stages.append(apply_major_realloc(machine_ledger, bundle.service_usage))

    plans, plan_notices = build_day_plans(bundle.net_costs, bundle.non_service_costs)
    notices.extend(plan_notices)
    round_moved: list[float] = []
    round_flows: list[dict[FlowKey, float]] = []
    current = stages[-1]
    for round_number in range(1, rounds + 1):
        current, moved, flows = apply_minor_realloc_round(current, plans, minor_round_stage(round_number))
        stages.append(current)
        round_moved.append(moved)
        round_flows.append(flows)
    return AllocationResult(stages, round_moved, round_flows, notices)
