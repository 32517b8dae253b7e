"""E8 — soft safety: the comfort/energy/revenue tradeoff (paper §V-B).

Claims reproduced:

- comfort safety margins "may vary depending on who occupies a given
  space at a given time" — the setback controller relaxes the band when
  the zone is empty;
- the system "may deliberately violate these margins to minimize energy
  consumption" — wider setback margins save energy at growing comfort
  cost;
- "the revenue the system provider receives ... can be made dependent on
  the comfort and energy savings" — the revenue model turns the sweep
  into an operating-point choice.

Scenario: one office zone over three simulated winter days (cold
diurnal outside), occupancy 8:00–18:00, SetbackController with margin
0–8 °C, plus a rigid always-strict thermostat as the no-setback anchor.
"""

from benchmarks._common import assert_no_violations, once, publish, run_trials
from repro.core.scenario import Scenario
from repro.core.system import SystemConfig
from repro.deployment.topology import line_topology
from repro.devices.phenomena import DiurnalField
from repro.safety.comfort import ComfortBand, OccupancySchedule
from repro.safety.controllers import BangBangController, SetbackController
from repro.safety.hvac import HvacZone
from repro.safety.revenue import RevenueModel

DAYS = 3.0
BAND = ComfortBand(20.0, 23.0)
SCHEDULE = OccupancySchedule([(8.0, 18.0, 8)])
PRICING = RevenueModel(
    base_fee_per_day=30.0,
    energy_price_per_kwh=0.30,
    comfort_penalty_per_degree_hour=2.0,
    sla_breach_penalty=40.0,
)


def _run_zone(controller_factory, seed):
    outside = DiurnalField(mean=4.0, amplitude=6.0, gradient_per_m=0.0,
                           phase_s=-6 * 3600.0)  # coldest pre-dawn
    system = Scenario(topology=line_topology(2),
                      config=SystemConfig(invariant_checking=True),
                      formation_s=60.0).build(seed)
    zone = HvacZone(system.nodes[1],
                    lambda t: outside.value_at(t, (0.0, 0.0)),
                    BAND, schedule=SCHEDULE, initial_temp_c=20.5)
    zone.start(controller_factory())
    system.run(DAYS * 86_400.0)
    statement = PRICING.statement(
        days=DAYS,
        energy_kwh=zone.zone.energy_used_kwh,
        violation_degree_hours=zone.comfort.violation_degree_hours,
        worst_violation_c=zone.comfort.worst_violation_c,
    )
    assert_no_violations(system)
    return zone, statement


#: ``None`` is the rigid always-strict thermostat anchor.
MARGINS = (None, 1.0, 2.0, 4.0, 6.0, 8.0)


def _trial(margin, seed):
    """Module-level trial (one policy, one seed) so trials parallelize."""
    if margin is None:
        label = "strict thermostat"
        factory = lambda: BangBangController(BAND)  # noqa: E731
    else:
        label = f"setback {margin:.0f} C"
        factory = lambda: SetbackController(  # noqa: E731
            BAND, SCHEDULE, setback_margin_c=margin)
    zone, statement = _run_zone(factory, seed)
    return {
        "policy": label,
        "energy [kWh]": zone.zone.energy_used_kwh,
        "violation [deg-h]": zone.comfort.violation_degree_hours,
        "worst viol [C]": zone.comfort.worst_violation_c,
        "net revenue/day": statement.net_per_day,
    }


def run_e8():
    return run_trials(_trial, [(margin, 101) for margin in MARGINS])


def bench_e8_hvac_safety(benchmark):
    rows = once(benchmark, run_e8)
    publish("e8_hvac_safety",
            "E8 (paper s V-B): occupancy-aware soft safety margins vs "
            "energy and provider revenue, 3 simulated days", rows)
    strict = rows[0]
    mild = rows[1]
    extreme = rows[-1]
    # Setback saves energy, monotonically in the margin.
    energies = [row["energy [kWh]"] for row in rows]
    assert energies[1:] == sorted(energies[1:], reverse=True)
    assert extreme["energy [kWh]"] < strict["energy [kWh]"]
    # The strict policy keeps occupants comfortable.
    assert strict["violation [deg-h]"] < 1.0
    # Extreme setback violates comfort badly enough to not pay off:
    # revenue peaks at an intermediate margin.
    best = max(rows, key=lambda row: row["net revenue/day"])
    assert best["policy"] not in (extreme["policy"],)
    assert best["net revenue/day"] >= strict["net revenue/day"]
