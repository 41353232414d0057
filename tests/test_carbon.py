import pytest
from hypothesis import given, strategies as st

from carbonledger.allocation import EnergyCell, Ledger
from carbonledger.carbon import (
    IntensityFeed,
    IntensitySource,
    compute_emissions,
    co2_kg,
    resolve_intensity,
)
from carbonledger.errors import MissingIntensityError
from carbonledger.model import (
    AnnualIntensityRecord,
    CarbonIntensityRecord,
    ClusterTopology,
    PueRecord,
    ZoneMapRow,
)

from conftest import H


TOPOLOGY = ClusterTopology.from_rows([ZoneMapRow("c0", "z0", "r0")])


def ledger_of(cells: dict) -> Ledger:
    return Ledger(stage="after_minor_round_2", cells=dict(cells))


def feed(hourly=(), annual=()) -> IntensityFeed:
    return IntensityFeed(list(hourly), list(annual))


def test_resolve_prefers_hourly(topology_one_cluster):
    f = feed(
        hourly=[CarbonIntensityRecord("z0", H(0), 123.0)],
        annual=[AnnualIntensityRecord("z0", 2023, 400.0)],
    )
    assert resolve_intensity("c0", H(0), topology_one_cluster, f) == (123.0, IntensitySource.HOURLY)


def test_resolve_falls_back_to_annual(topology_one_cluster):
    f = feed(annual=[AnnualIntensityRecord("z0", 2023, 450.0)])
    value, source = resolve_intensity("c0", H(0), topology_one_cluster, f)
    assert (value, source) == (450.0, IntensitySource.ANNUAL_FALLBACK)


def test_resolve_neither_available_raises(topology_one_cluster):
    with pytest.raises(MissingIntensityError):
        resolve_intensity("c0", H(0), topology_one_cluster, feed())


def test_resolve_unzoned_cluster_has_no_intensity():
    # Annual rows under other keys (a country code, the cluster id) do not cover an unzoned cluster.
    topology = ClusterTopology.from_rows([ZoneMapRow("c9", None, "r0")])
    f = feed(annual=[AnnualIntensityRecord("XX", 2023, 99.0), AnnualIntensityRecord("c9", 2023, 99.0)])
    with pytest.raises(MissingIntensityError):
        resolve_intensity("c9", H(0), topology, f)
    ledger = ledger_of({("u", "c9", H(0)): EnergyCell(idle_wh=10.0, dynamic_wh=0.0)})
    result = compute_emissions(ledger, [PueRecord("c9", H(0), 1.0)], f, topology, allow_missing_intensity=True)
    assert result.records[0].intensity_source is IntensitySource.DEFAULT
    assert result.records[0].kg_co2e == 0.0
    assert [n.code for n in result.notices] == ["missing-intensity"]


def test_emission_arithmetic_at_global_mean(topology_one_cluster):
    # 1000 Wh IT at PUE 1.10 and 320.8 g/kWh -> 0.35288 kg.
    ledger = ledger_of({("u", "c0", H(0)): EnergyCell(idle_wh=600.0, dynamic_wh=400.0)})
    result = compute_emissions(
        ledger,
        [PueRecord("c0", H(0), 1.10)],
        feed(hourly=[CarbonIntensityRecord("z0", H(0), 320.8)]),
        topology_one_cluster,
    )
    record = result.records[0]
    assert record.energy_it_wh == 1000.0
    assert record.energy_total_wh == pytest.approx(1100.0, rel=1e-12)
    assert record.kg_co2e == pytest.approx(0.35288, rel=1e-9)
    assert record.intensity_source is IntensitySource.HOURLY


def test_zero_energy_yields_zero_emissions(topology_one_cluster):
    ledger = ledger_of({("u", "c0", H(0)): EnergyCell(0.0, 0.0)})
    result = compute_emissions(
        ledger, [PueRecord("c0", H(0), 1.5)],
        feed(hourly=[CarbonIntensityRecord("z0", H(0), 500.0)]), topology_one_cluster,
    )
    assert result.records[0].kg_co2e == 0.0


def test_carbon_free_hour_yields_zero_emissions(topology_one_cluster):
    ledger = ledger_of({("u", "c0", H(0)): EnergyCell(idle_wh=1e6, dynamic_wh=0.0)})
    result = compute_emissions(
        ledger, [PueRecord("c0", H(0), 1.2)],
        feed(hourly=[CarbonIntensityRecord("z0", H(0), 0.0)]), topology_one_cluster,
    )
    assert result.records[0].kg_co2e == 0.0


def test_missing_pue_uses_default_and_notices(topology_one_cluster):
    ledger = ledger_of({("u", "c0", H(0)): EnergyCell(idle_wh=1000.0, dynamic_wh=0.0)})
    result = compute_emissions(
        ledger, [], feed(hourly=[CarbonIntensityRecord("z0", H(0), 100.0)]), topology_one_cluster,
    )
    assert result.records[0].energy_total_wh == pytest.approx(1100.0)
    assert [n.code for n in result.notices] == ["missing-pue"]


def test_missing_intensity_aborts_unless_allowed(topology_one_cluster):
    ledger = ledger_of({("u", "c0", H(0)): EnergyCell(idle_wh=10.0, dynamic_wh=0.0)})
    with pytest.raises(MissingIntensityError):
        compute_emissions(ledger, [PueRecord("c0", H(0), 1.0)], feed(), topology_one_cluster)
    result = compute_emissions(
        ledger, [PueRecord("c0", H(0), 1.0)], feed(), topology_one_cluster,
        allow_missing_intensity=True, missing_intensity_default=50.0,
    )
    record = result.records[0]
    assert record.intensity_source is IntensitySource.DEFAULT
    assert record.kg_co2e == pytest.approx(co2_kg(10.0, 50.0))
    assert "missing-intensity" in {n.code for n in result.notices}


energy = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


@given(idle=energy, dynamic=energy, pue=st.floats(1.0, 3.0), ci=st.floats(0.0, 2000.0))
def test_emissions_double_when_energy_doubles(idle, dynamic, pue, ci):
    def run(scale):
        ledger = ledger_of({("u", "c0", H(0)): EnergyCell(idle * scale, dynamic * scale)})
        return compute_emissions(
            ledger, [PueRecord("c0", H(0), pue)],
            feed(hourly=[CarbonIntensityRecord("z0", H(0), ci)]), TOPOLOGY,
        ).records[0].kg_co2e

    assert run(2.0) == pytest.approx(2.0 * run(1.0), abs=1e-12 * max(1.0, run(1.0)))


@given(
    energies=st.lists(st.floats(0.0, 1e7, allow_nan=False), min_size=1, max_size=8),
    pue=st.floats(1.0, 2.5),
    ci=st.floats(0.0, 1500.0),
)
def test_cluster_emissions_conserved(energies, pue, ci):
    cells = {(f"u{i}", "c0", H(0)): EnergyCell(idle_wh=e, dynamic_wh=0.0) for i, e in enumerate(energies)}
    result = compute_emissions(
        ledger_of(cells), [PueRecord("c0", H(0), pue)],
        feed(hourly=[CarbonIntensityRecord("z0", H(0), ci)]), TOPOLOGY,
    )
    expected = co2_kg(sum(energies) * pue, ci)
    assert result.total_kg() == pytest.approx(expected, rel=1e-9, abs=1e-15)


@given(
    pue_low=st.floats(1.0, 2.0), pue_hi=st.floats(1.0, 2.0),
    ci_low=st.floats(0.0, 1000.0), ci_hi=st.floats(0.0, 1000.0),
)
def test_emissions_monotone_in_pue_and_intensity(pue_low, pue_hi, ci_low, ci_hi):
    pue_low, pue_hi = sorted((pue_low, pue_hi))
    ci_low, ci_hi = sorted((ci_low, ci_hi))
    ledger = ledger_of({("u", "c0", H(0)): EnergyCell(idle_wh=1234.0, dynamic_wh=0.0)})

    def run(pue, ci):
        return compute_emissions(
            ledger, [PueRecord("c0", H(0), pue)],
            feed(hourly=[CarbonIntensityRecord("z0", H(0), ci)]), TOPOLOGY,
        ).records[0].kg_co2e

    assert run(pue_hi, ci_hi) >= run(pue_low, ci_low)
