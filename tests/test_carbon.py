import csv

import pytest
from hypothesis import given, strategies as st

from carbonledger.carbon import (
    IntensitySource,
    compute_emissions,
    co2_kg,
    resolve_intensity,
)
from carbonledger.check import run_end_to_end
from carbonledger.errors import MissingIntensityError
from carbonledger.model import (
    AnnualIntensityRecord,
    Bundle,
    CarbonIntensityRecord,
    PueRecord,
    ZoneMapRow,
    format_hour,
)
from carbonledger.simulate import ScenarioSpec, generate, preset_spec
from carbonledger.tables import write_emissions

from conftest import H, ledger_of


def sources(result):
    """The intensity source of every emission row, in id order."""
    return [source for *_, source in result.rows()]


def kgs(result):
    """The kgCO2e of every emission row, in id order."""
    return [kg for _, _, _, kg, _ in result.rows()]


def feeds(pue=(), hourly=(), annual=(), zone_map=(ZoneMapRow("c0", "z0", "r0"),)) -> Bundle:
    """A bundle holding only the tables the carbon stage reads."""
    return Bundle(pue=list(pue), carbon_intensity=list(hourly), annual_intensity=list(annual), zone_map=list(zone_map))


def test_resolve_prefers_hourly():
    found = resolve_intensity("c0", H(0), {"c0": "z0"}, {("z0", H(0)): 123.0}, {("z0", 2023): 400.0})
    assert found == (123.0, IntensitySource.HOURLY)


def test_resolve_falls_back_to_annual():
    value, source = resolve_intensity("c0", H(0), {"c0": "z0"}, {}, {("z0", 2023): 450.0})
    assert (value, source) == (450.0, IntensitySource.ANNUAL_FALLBACK)


def test_resolve_neither_available_raises():
    with pytest.raises(MissingIntensityError):
        resolve_intensity("c0", H(0), {"c0": "z0"}, {}, {})


def test_resolve_unzoned_cluster_has_no_intensity():
    # Annual rows under other keys (a country code, the cluster id) do not cover an unzoned cluster.
    annual = [AnnualIntensityRecord("XX", 2023, 99.0), AnnualIntensityRecord("c9", 2023, 99.0)]
    with pytest.raises(MissingIntensityError):
        resolve_intensity("c9", H(0), {}, {}, {(r.zone_id, r.year): r.intensity_g_per_kwh for r in annual})
    ledger = ledger_of({("u", "c9", H(0)): (10.0, 0.0)})
    bundle = feeds(pue=[PueRecord("c9", H(0), 1.0)], annual=annual, zone_map=[ZoneMapRow("c9", None, "r0")])
    result = compute_emissions(ledger, bundle, missing_intensity=0.0)
    assert sources(result) == [IntensitySource.DEFAULT]
    assert kgs(result)[0] == 0.0
    assert [n.code for n in result.notices] == ["missing-intensity"]


def test_emission_arithmetic_at_global_mean():
    # 1000 Wh IT at PUE 1.10 and 320.8 g/kWh -> 0.35288 kg.
    ledger = ledger_of({("u", "c0", H(0)): (600.0, 400.0)})
    result = compute_emissions(
        ledger, feeds(pue=[PueRecord("c0", H(0), 1.10)], hourly=[CarbonIntensityRecord("z0", H(0), 320.8)])
    )
    [(key, it_wh, total_wh, kg, source)] = result.rows()
    assert key == ("u", "c0", H(0))
    assert it_wh == 1000.0
    assert total_wh == pytest.approx(1100.0, rel=1e-12)
    assert kg == pytest.approx(0.35288, rel=1e-9)
    assert source is IntensitySource.HOURLY


def test_zero_energy_yields_zero_emissions():
    ledger = ledger_of({("u", "c0", H(0)): (0.0, 0.0)})
    result = compute_emissions(
        ledger, feeds(pue=[PueRecord("c0", H(0), 1.5)], hourly=[CarbonIntensityRecord("z0", H(0), 500.0)])
    )
    assert kgs(result)[0] == 0.0


def test_carbon_free_hour_yields_zero_emissions():
    ledger = ledger_of({("u", "c0", H(0)): (1e6, 0.0)})
    result = compute_emissions(
        ledger, feeds(pue=[PueRecord("c0", H(0), 1.2)], hourly=[CarbonIntensityRecord("z0", H(0), 0.0)])
    )
    assert kgs(result)[0] == 0.0


def test_missing_pue_uses_default_and_notices():
    ledger = ledger_of({("u", "c0", H(0)): (1000.0, 0.0)})
    result = compute_emissions(ledger, feeds(hourly=[CarbonIntensityRecord("z0", H(0), 100.0)]))
    [(_, _, total_wh, _, _)] = result.rows()
    assert total_wh == pytest.approx(1100.0)
    assert [n.code for n in result.notices] == ["missing-pue"]


def test_missing_intensity_aborts_unless_allowed():
    ledger = ledger_of({("u", "c0", H(0)): (10.0, 0.0)})
    bundle = feeds(pue=[PueRecord("c0", H(0), 1.0)])
    with pytest.raises(MissingIntensityError):
        compute_emissions(ledger, bundle)
    result = compute_emissions(ledger, bundle, missing_intensity=50.0)
    assert sources(result) == [IntensitySource.DEFAULT]
    assert kgs(result)[0] == pytest.approx(co2_kg(10.0, 50.0))
    assert "missing-intensity" in {n.code for n in result.notices}


def test_missing_intensity_noticed_once_per_cluster_hour():
    # Once one notice per user cell: two here.
    cells = {(user, "c0", H(0)): (10.0, 0.0) for user in ("u1", "u2")}
    result = compute_emissions(ledger_of(cells), feeds(pue=[PueRecord("c0", H(0), 1.0)]), missing_intensity=7.0)
    assert sources(result) == [IntensitySource.DEFAULT] * 2
    assert [(n.code, n.subject) for n in result.notices] == [("missing-intensity", "c0")]


energy = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


@given(idle=energy, dynamic=energy, pue=st.floats(1.0, 3.0), ci=st.floats(0.0, 2000.0))
def test_emissions_double_when_energy_doubles(idle, dynamic, pue, ci):
    def run(scale):
        ledger = ledger_of({("u", "c0", H(0)): (idle * scale, dynamic * scale)})
        [kg] = kgs(compute_emissions(
            ledger, feeds(pue=[PueRecord("c0", H(0), pue)], hourly=[CarbonIntensityRecord("z0", H(0), ci)])
        ))
        return kg

    assert run(2.0) == pytest.approx(2.0 * run(1.0), abs=1e-12 * max(1.0, run(1.0)))


@given(
    energies=st.lists(st.floats(0.0, 1e7, allow_nan=False), min_size=1, max_size=8),
    pue=st.floats(1.0, 2.5),
    ci=st.floats(0.0, 1500.0),
)
def test_cluster_emissions_conserved(energies, pue, ci):
    cells = {(f"u{i}", "c0", H(0)): (e, 0.0) for i, e in enumerate(energies)}
    result = compute_emissions(
        ledger_of(cells), feeds(pue=[PueRecord("c0", H(0), pue)], hourly=[CarbonIntensityRecord("z0", H(0), ci)])
    )
    expected = co2_kg(sum(energies) * pue, ci)
    assert sum(kgs(result)) == pytest.approx(expected, rel=1e-9, abs=1e-15)


@given(
    pue_low=st.floats(1.0, 2.0), pue_hi=st.floats(1.0, 2.0),
    ci_low=st.floats(0.0, 1000.0), ci_hi=st.floats(0.0, 1000.0),
)
def test_emissions_monotone_in_pue_and_intensity(pue_low, pue_hi, ci_low, ci_hi):
    pue_low, pue_hi = sorted((pue_low, pue_hi))
    ci_low, ci_hi = sorted((ci_low, ci_hi))
    ledger = ledger_of({("u", "c0", H(0)): (1234.0, 0.0)})

    def run(pue, ci):
        [kg] = kgs(compute_emissions(
            ledger, feeds(pue=[PueRecord("c0", H(0), pue)], hourly=[CarbonIntensityRecord("z0", H(0), ci)])
        ))
        return kg

    assert run(pue_hi, ci_hi) >= run(pue_low, ci_low)


@pytest.mark.parametrize(
    "spec",
    [preset_spec("sankey-small"), ScenarioSpec(seed=5, machine_count=40, user_count=8, cluster_count=3, hours=24)],
    ids=["sankey-small", "seed5-40"],
)
def test_emission_rows_are_the_final_ledger_in_report_order(spec, tmp_path):
    artifacts = run_end_to_end(generate(spec))
    final, emissions = artifacts.allocation.final, artifacts.emissions
    keys = [key for key, *_ in emissions.rows()]
    assert keys == sorted(key for key, _, _ in final.rows())
    assert [cell for cell, *_ in emissions.columns()] == sorted(final.cells.ids)
    assert len(emissions) == len(final.idle)
    for cell, it_wh, *_ in emissions.columns():
        row = final.cells.rows[cell]
        assert it_wh == final.idle[row] + final.dynamic[row]
    write_emissions(emissions, tmp_path / "emissions.csv", energy_step=0.0, carbon_step_g=0.0)
    with (tmp_path / "emissions.csv").open(newline="") as handle:
        written = [(r["user"], r["cluster_id"], r["hour_utc"]) for r in csv.DictReader(handle)]
    assert written == [(user, cluster, format_hour(hour)) for user, cluster, hour in keys]
