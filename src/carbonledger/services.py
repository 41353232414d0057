"""Reallocate energy from shared-service providers to their consumers.

Major services move dynamic energy by per-cluster usage fractions; the
long tail of minor services moves total energy by daily net-cost
fractions, applied twice so chains of services resolve. The pipeline
entry point runs the five stages in order and snapshots each one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from datetime import date, datetime
from typing import Iterable, Mapping, Sequence

from .allocation import (
    STAGE_AFTER_MAJOR,
    EnergyCell,
    Ledger,
    LedgerKey,
    build_machine_ledger,
    minor_round_stage,
)
from .model import (
    Bundle,
    NetCostRecord,
    NonServiceCostRecord,
    Notice,
    PowerWeighting,
    ServiceUsageRecord,
    day_of,
)
from .power import split_fleet

log = logging.getLogger(__name__)

TransferKey = tuple[str, str, str, datetime]  # (provider, consumer, cluster_id, hour)


def _usage_groups(
    usages: Sequence[ServiceUsageRecord],
) -> dict[tuple[str, str, datetime], list[ServiceUsageRecord]]:
    groups: dict[tuple[str, str, datetime], list[ServiceUsageRecord]] = {}
    for rec in usages:
        groups.setdefault((rec.provider, rec.cluster_id, rec.hour), []).append(rec)
    return groups


def colossus_providers(usages: Iterable[ServiceUsageRecord]) -> frozenset[str]:
    """Providers whose reallocation uses the storage-style weighted blend."""
    return frozenset(rec.provider for rec in usages if rec.colossus_style)


def apply_major_realloc(
    ledger: Ledger,
    usages: Sequence[ServiceUsageRecord],
    weighting: PowerWeighting = PowerWeighting(),
    storage_style: frozenset[str] | None = None,
) -> Ledger:
    """Move each major provider's dynamic energy to its consumers.

    Idle energy stays put: resource allocations already attribute it to
    end users. All moves are computed against the incoming ledger
    snapshot, so the result does not depend on provider order.
    """
    if storage_style is None:
        storage_style = colossus_providers(usages)
    w = weighting.usage

    cells = dict(ledger.cells)
    gains: dict[LedgerKey, float] = {}
    for (provider, cluster, hour), group in _usage_groups(usages).items():
        key = (provider, cluster, hour)
        cell = cells.get(key)
        if cell is None or cell.dynamic_wh == 0.0:
            continue
        if provider in storage_style:
            shares = {}
            for rec in group:
                blended = w.gcu * rec.usage.gcu + w.ssd_tib * rec.usage.ssd_tib + w.hdd_tib * rec.usage.hdd_tib
                if blended > 0.0:
                    shares[rec.consumer] = shares.get(rec.consumer, 0.0) + blended
        else:
            shares = {}
            for rec in group:
                if rec.usage.gcu > 0.0:
                    shares[rec.consumer] = shares.get(rec.consumer, 0.0) + rec.usage.gcu
        denominator = sum(shares.values())
        if denominator <= 0.0:
            continue
        moved = 0.0
        for consumer, share in shares.items():
            amount = cell.dynamic_wh * (share / denominator)
            gains[(consumer, cluster, hour)] = gains.get((consumer, cluster, hour), 0.0) + amount
            moved += amount
        remainder = cell.dynamic_wh - moved
        if remainder < 0.0:  # float dust from the share quotients
            remainder = 0.0
        cells[key] = EnergyCell(idle_wh=cell.idle_wh, dynamic_wh=remainder)

    for key, wh in gains.items():
        prior = cells.get(key)
        if prior is None:
            cells[key] = EnergyCell(dynamic_wh=wh)
        else:
            cells[key] = EnergyCell(idle_wh=prior.idle_wh, dynamic_wh=prior.dynamic_wh + wh)
    return Ledger(stage=STAGE_AFTER_MAJOR, cells=cells)


@dataclass(frozen=True)
class UserCostSummary:
    """One user's daily cost position across the service economy."""

    user: str
    non_service_cost: float
    service_net: Mapping[str, float]

    @property
    def total_cost(self) -> float:
        return self.non_service_cost + sum(self.service_net.values())

    def clamped_denominator(self, service: str) -> float:
        """Reallocation denominator, never below the provider's revenue.

        The clamp guarantees at most 100% of the provider's energy is
        handed to one service's consumers.
        """
        return max(abs(self.service_net.get(service, 0.0)), self.total_cost)


def build_cost_summaries(
    net_costs: Sequence[NetCostRecord],
    non_service_costs: Sequence[NonServiceCostRecord],
    day: date,
) -> dict[str, UserCostSummary]:
    base: dict[str, float] = {}
    for rec in non_service_costs:
        if rec.day == day:
            base[rec.user] = base.get(rec.user, 0.0) + rec.cost
    service_net: dict[str, dict[str, float]] = {}
    for rec in net_costs:
        if rec.day != day:
            continue
        per_service = service_net.setdefault(rec.user, {})
        per_service[rec.service] = per_service.get(rec.service, 0.0) + rec.net_cost
    users = set(base) | set(service_net)
    return {
        user: UserCostSummary(user, base.get(user, 0.0), service_net.get(user, {}))
        for user in users
    }


def identify_provider(
    service: str, day_costs: Sequence[NetCostRecord]
) -> tuple[str | None, list[Notice]]:
    """The user with the lowest (most negative) net cost for the service.

    Ties break to the lexicographically smaller user id. If nobody shows
    negative net cost there is no provider and the service is skipped.
    """
    notices: list[Notice] = []
    totals: dict[str, float] = {}
    for rec in day_costs:
        if rec.service == service:
            totals[rec.user] = totals.get(rec.user, 0.0) + rec.net_cost
    if not totals:
        return None, [Notice("provider-ambiguous", service, "no net-cost records")]
    minimum = min(totals.values())
    if minimum >= 0.0:
        return None, [Notice("provider-ambiguous", service, "no user receives revenue; service skipped")]
    candidates = sorted(user for user, value in totals.items() if value == minimum)
    if len(candidates) > 1:
        notices.append(Notice("provider-tie", service, f"tie broken to {candidates[0]!r}"))
    return candidates[0], notices


@dataclass(slots=True)
class DayPlan:
    """Per-day minor reallocation fractions, provider by provider."""

    day: date
    outflows: dict[str, list[tuple[str, float]]] = field(default_factory=dict)


def build_day_plans(
    net_costs: Sequence[NetCostRecord],
    non_service_costs: Sequence[NonServiceCostRecord],
) -> tuple[dict[date, DayPlan], list[Notice]]:
    """Compile the daily transfer fractions for the net-cost economy."""
    notices: list[Notice] = []
    plans: dict[date, DayPlan] = {}
    days = sorted({rec.day for rec in net_costs})
    for day in days:
        day_costs = [rec for rec in net_costs if rec.day == day]
        summaries = build_cost_summaries(day_costs, non_service_costs, day)
        fractions: dict[str, dict[str, float]] = {}
        for service in sorted({rec.service for rec in day_costs}):
            provider, provider_notices = identify_provider(service, day_costs)
            notices.extend(provider_notices)
            if provider is None:
                continue
            summary = summaries[provider]
            denominator = summary.clamped_denominator(service)
            if denominator <= 0.0:
                notices.append(Notice("zero-denominator", service, f"service skipped on {day}"))
                continue
            for rec in day_costs:
                if rec.service != service or rec.user == provider:
                    continue
                net = rec.net_cost
                if net < 0.0:
                    notices.append(
                        Notice("negative-consumer-cost", rec.user, f"clamped to 0 for {service!r} on {day}")
                    )
                    continue
                if net == 0.0:
                    continue
                per_consumer = fractions.setdefault(provider, {})
                per_consumer[rec.user] = per_consumer.get(rec.user, 0.0) + net / denominator

        plan = DayPlan(day=day)
        for provider, per_consumer in fractions.items():
            total_out = sum(per_consumer.values())
            if total_out > 1.0 + 1e-12:
                notices.append(
                    Notice("over-allocated-provider", provider, f"outflow {total_out:.6f} rescaled to 1 on {day}")
                )
                per_consumer = {c: f / total_out for c, f in per_consumer.items()}
            plan.outflows[provider] = sorted(per_consumer.items())
        plans[day] = plan
    return plans, notices


def apply_minor_realloc_round(
    ledger: Ledger,
    plans: Mapping[date, DayPlan],
    stage: str,
) -> tuple[Ledger, float, dict[TransferKey, float]]:
    """One net-cost round: every provider pushes from the round's snapshot.

    Idle and dynamic components move in proportion, so component sums are
    conserved as exactly as the totals. Returns the new ledger, the total
    energy moved, and the per-(provider, consumer, cluster, hour) moves.
    """
    cells = dict(ledger.cells)
    gains: dict[LedgerKey, list[float]] = {}
    transfers: dict[TransferKey, float] = {}
    moved_total = 0.0

    for key, cell in ledger.cells.items():
        provider, cluster, hour = key
        plan = plans.get(day_of(hour))
        if plan is None:
            continue
        outflows = plan.outflows.get(provider)
        if not outflows:
            continue
        total_fraction = sum(f for _, f in outflows)
        if total_fraction <= 0.0:
            continue
        for consumer, fraction in outflows:
            idle_part = cell.idle_wh * fraction
            dyn_part = cell.dynamic_wh * fraction
            gain = gains.setdefault((consumer, cluster, hour), [0.0, 0.0])
            gain[0] += idle_part
            gain[1] += dyn_part
            amount = idle_part + dyn_part
            transfers[(provider, consumer, cluster, hour)] = (
                transfers.get((provider, consumer, cluster, hour), 0.0) + amount
            )
            moved_total += amount
        keep = 1.0 - total_fraction
        if keep < 0.0:  # guarded by the plan's rescale; float dust only
            keep = 0.0
        cells[key] = EnergyCell(idle_wh=cell.idle_wh * keep, dynamic_wh=cell.dynamic_wh * keep)

    for key, (idle_wh, dyn_wh) in gains.items():
        prior = cells.get(key)
        if prior is None:
            cells[key] = EnergyCell(idle_wh=idle_wh, dynamic_wh=dyn_wh)
        else:
            cells[key] = EnergyCell(idle_wh=prior.idle_wh + idle_wh, dynamic_wh=prior.dynamic_wh + dyn_wh)
    return Ledger(stage=stage, cells=cells), moved_total, transfers


@dataclass(slots=True)
class AllocationResult:
    """Every stage snapshot of one pipeline run plus its bookkeeping."""

    stages: list[Ledger]
    round_moved_wh: list[float]
    round_transfers: list[dict[TransferKey, float]]
    notices: list[Notice]

    @property
    def final(self) -> Ledger:
        return self.stages[-1]

    def stage(self, name: str) -> Ledger:
        for ledger in self.stages:
            if ledger.stage == name:
                return ledger
        raise KeyError(name)


def run_allocation_pipeline(
    bundle: Bundle,
    weighting: PowerWeighting = PowerWeighting(),
    rounds: int = 2,
    storage_style: frozenset[str] | None = None,
) -> AllocationResult:
    """Run the full allocation: idle, dynamic, major, then minor rounds.

    ``rounds`` defaults to the standard two net-cost rounds; more rounds
    exist for convergence experiments only.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    split = split_fleet(bundle.machines, bundle.power_samples)
    machine_ledger, notices = build_machine_ledger(
        split, bundle.machines, bundle.resource_allocations, bundle.gcu_usage, weighting
    )
    stages = [machine_ledger]
    stages.append(apply_major_realloc(machine_ledger, bundle.service_usage, weighting, storage_style))

    plans, plan_notices = build_day_plans(bundle.net_costs, bundle.non_service_costs)
    notices.extend(plan_notices)
    round_moved: list[float] = []
    round_transfers: list[dict[TransferKey, float]] = []
    current = stages[-1]
    for round_number in range(1, rounds + 1):
        current, moved, transfers = apply_minor_realloc_round(
            current, plans, minor_round_stage(round_number)
        )
        stages.append(current)
        round_moved.append(moved)
        round_transfers.append(transfers)
    return AllocationResult(
        stages=stages,
        round_moved_wh=round_moved,
        round_transfers=round_transfers,
        notices=notices,
    )
