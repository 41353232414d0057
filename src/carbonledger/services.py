"""Reallocate energy from shared-service providers to their consumers.

Major services move dynamic energy by per-cluster usage fractions; the
long tail of minor services moves total energy by daily net-cost
fractions, applied twice so chains of services resolve. The pipeline
entry point runs the five stages in order and keeps each one; a stage
that a later round has read keeps only its total Wh per cell.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from datetime import date
from itertools import compress, count
from typing import Sequence

from .allocation import (
    STAGE_AFTER_MAJOR,
    Ledger,
    build_machine_ledger,
    machine_axes,
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


def _settle(column: array, before: array, kept_rows: Sequence[int], kept: array) -> None:
    """Turn a stage's gain column into its ledger column, in place, once the stage has been walked.

    Row ``r`` below ``len(before)`` came from the previous stage and
    becomes ``before[r] + gain``, or ``before[r]`` as it is when it gained
    nothing (0.0). A provider's row ``kept_rows[i]`` starts from the share
    ``kept[i]`` it kept instead of ``before``; ``kept`` is settled in place
    first. The rows past ``before`` are the cells the stage appended, which
    hold their gain alone.
    """
    for i, row in enumerate(kept_rows):
        gained = column[row]
        if gained:
            kept[i] += gained
    for row, wh, gained in zip(count(), before, column):  # each row is read before it is written
        column[row] = wh + gained if gained else wh
    for row, wh in zip(kept_rows, kept):
        column[row] = wh


def apply_major_realloc(ledger: Ledger, usages: ServiceUsageTable) -> Ledger:
    """Move each major provider's dynamic energy to its consumers.

    Idle energy stays put: resource allocations already attribute it to
    end users. All moves are computed against the incoming ledger
    snapshot, so the result does not depend on provider order. Providers
    whose records carry the storage-style flag split by a weighted blend
    of compute and storage usage, the rest by compute usage alone. Usage
    rows are grouped by the provider's cell id as ``array("q")`` row
    numbers into the usage columns; a row naming a user, cluster or hour
    off the ledger's axes has no cell to move. The new stage's idle column
    is a copy of the incoming one; its dynamic column starts as a gain
    column, with new cells appended as first reached, and is settled once
    every provider has moved.
    """
    out = ledger.successor(STAGE_AFTER_MAJOR, keep_idle=True)
    storage_style = set(compress(usages.provider, usages.colossus_style))
    w = RESOURCE_WEIGHTS
    consumers, gcu, ssd, hdd = usages.consumer, usages.gcu, usages.ssd_tib, usages.hdd_tib
    axes = ledger.cells.axes
    span, user_index, cluster_offset, hour_index = axes.span, axes.user_index, axes.cluster_offset, axes.hour_index
    groups: dict[int, array] = {}
    for row, (provider, cluster, hour) in enumerate(zip(usages.provider, usages.cluster_id, usages.hour)):
        u, offset, h = user_index.get(provider), cluster_offset.get(cluster), hour_index.get(hour)
        if u is None or offset is None or h is None:
            continue
        cell = u * span + offset + h
        rows = groups.get(cell)
        if rows is None:
            rows = groups[cell] = array("q")
        rows.append(row)

    rows_of, dynamic, gain = ledger.cells.rows, ledger.dynamic, out.dynamic
    copied = len(dynamic)
    kept_rows, kept = array("q"), array("d")  # each moving provider's row and the dynamic Wh it keeps
    for cell, rows in groups.items():
        at = rows_of[cell]
        if not 0 <= at < copied or dynamic[at] == 0.0:
            continue
        dynamic_wh = dynamic[at]
        blend = axes.users[cell // span] in storage_style
        shares: dict[str, float] = {}
        for row in rows:
            share = w.gcu * gcu[row] + w.ssd_tib * ssd[row] + w.hdd_tib * hdd[row] if blend else gcu[row]
            if share > 0.0:
                consumer = consumers[row]
                shares[consumer] = shares.get(consumer, 0.0) + share
        denominator = sum(shares.values())
        if denominator <= 0.0:
            continue
        ch = cell % span
        moved = 0.0
        for consumer, share in shares.items():
            amount = dynamic_wh * (share / denominator)
            target = user_index[consumer] * span + ch
            row = rows_of[target]
            if row < 0:
                row = out.add(target)
            gain[row] += amount
            moved += amount
        remainder = dynamic_wh - moved
        if remainder < 0.0:  # float dust from the share quotients
            remainder = 0.0
        kept_rows.append(at)
        kept.append(remainder)

    _settle(gain, dynamic, kept_rows, kept)
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

    Only providers move energy, so the walk visits only the rows of users
    some plan names as a provider: each one's rows are the slots of its
    id range in the cell index, and those the round copied are walked in
    ascending row order. The new stage's idle and dynamic columns start as
    gain columns, with new cells appended as first reached, and are
    settled after the walk. Each plan sums what it moves to each target in
    a float slot of its own; ``flows`` is built from those slots after the
    walk, plans in the order the walk first reaches them, then targets in
    plan order.
    """
    out = ledger.successor(stage)
    axes = ledger.cells.axes
    span, hour_count = axes.span, len(axes.hours)
    # day -> provider's user index -> (provider, day, total fraction, outflows, [(slot, consumer's first
    # cell, fraction)], moved per target slot); the moved slots are made when the walk first reaches the plan.
    compiled: dict[date, dict[int, tuple]] = {}
    for day, plan in plans.items():
        compiled[day] = providers = {}
        for provider, outflows in plan.items():
            u = axes.user_index.get(provider)
            total_fraction = sum(f for _, f in outflows)
            if u is None or not outflows or total_fraction <= 0.0:
                continue
            targets = [
                (slot, axes.user_base(consumer), fraction) for slot, (consumer, fraction) in enumerate(outflows)
            ]
            providers[u] = (provider, day, total_fraction, outflows, targets, [])
    providers_at = [compiled.get(day_of(hour)) for hour in axes.hours]  # per hour on the axis

    rows_of, ids, copied = ledger.cells.rows, ledger.cells.ids, len(ledger.idle)
    idle, dynamic = ledger.idle, ledger.dynamic
    walked = sorted(
        row
        for u in {u for providers in compiled.values() for u in providers}
        for row in rows_of[u * span:(u + 1) * span]
        if 0 <= row < copied
    )
    gain_idle, gain_dyn = out.idle, out.dynamic
    # each paying provider's row and the idle and dynamic Wh it keeps
    kept_rows, kept_idle, kept_dyn = array("q"), array("d"), array("d")
    reached: list[tuple] = []
    moved_total = 0.0

    for row in walked:
        u, ch = divmod(ids[row], span)
        providers = providers_at[ch % hour_count]
        if providers is None:
            continue
        plan = providers.get(u)
        if plan is None:
            continue
        _, _, total_fraction, _, targets, moved = plan
        if not moved:
            moved += [0.0] * len(targets)
            reached.append(plan)
        idle_wh, dynamic_wh = idle[row], dynamic[row]
        for slot, base, fraction in targets:
            idle_part = idle_wh * fraction
            dyn_part = dynamic_wh * fraction
            target = base + ch
            at = rows_of[target]
            if at < 0:
                at = out.add(target)
            gain_idle[at] += idle_part
            gain_dyn[at] += dyn_part
            amount = idle_part + dyn_part
            moved[slot] += amount
            moved_total += amount
        keep = 1.0 - total_fraction
        if keep < 0.0:  # guarded by the plan's rescale; float dust only
            keep = 0.0
        kept_rows.append(row)
        kept_idle.append(idle_wh * keep)
        kept_dyn.append(dynamic_wh * keep)

    _settle(gain_idle, idle, kept_rows, kept_idle)
    _settle(gain_dyn, dynamic, kept_rows, kept_dyn)
    flows: dict[FlowKey, float] = {
        (provider, consumer, day): amount
        for provider, day, _, outflows, _, moved in reached
        for (consumer, _), amount in zip(outflows, moved)
    }
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
    axes = machine_axes(
        split,
        bundle.machines,
        bundle.resource_allocations.user,
        bundle.gcu_usage.user,
        bundle.service_usage.consumer,
        (rec.user for rec in bundle.net_costs),
    )
    machine_ledger, notices = build_machine_ledger(
        split, bundle.machines, bundle.resource_allocations, bundle.gcu_usage, axes
    )
    stages = [machine_ledger]
    stages.append(apply_major_realloc(machine_ledger, bundle.service_usage))

    plans, plan_notices = build_day_plans(bundle.net_costs, bundle.non_service_costs)
    notices.extend(plan_notices)
    round_moved: list[float] = []
    round_flows: list[dict[FlowKey, float]] = []
    for round_number in range(1, rounds + 1):
        previous = stages[-1]
        current, moved, flows = apply_minor_realloc_round(previous, plans, minor_round_stage(round_number))
        # A round's input is never the machine stage, whose idle and dynamic the oracle compares apart.
        previous.collapse()
        stages.append(current)
        round_moved.append(moved)
        round_flows.append(flows)
    return AllocationResult(stages, round_moved, round_flows, notices)
