"""Smart building: duty-cycled HVAC control with partition tolerance.

Runs a 2-floor office building through a 12-hour working window
(06:00-18:00), a mid-day partition included::

    python examples/smart_building_hvac.py

What it shows (paper sections in brackets):

1. zones run over a *low-power-listening* MAC with ContikiMAC-style
   phase lock — radios sleep ~98% of the time [§IV-B];
2. an occupancy-aware setback policy deliberately relaxes comfort
   margins at night to save energy, priced by the provider's revenue
   model [§V-B];
3. control is remote (on the border router), but when a partition cuts
   half the building off, the zones fall back to a local safe policy and
   recover when the network heals [§V-C].
"""

from repro.core.metrics import collect_energy, mean
from repro.core.scenario import Scenario
from repro.core.system import SystemConfig
from repro.deployment.topology import building_topology
from repro.devices.phenomena import DiurnalField
from repro.faults.plan import FaultPlan
from repro.net.mac.lpl import LplConfig
from repro.net.rpl.dodag import RplConfig
from repro.net.stack import StackConfig
from repro.safety.comfort import ComfortBand, OccupancySchedule
from repro.safety.controllers import BangBangController, SetbackController
from repro.safety.hvac import HvacZone, RemoteControlLoop, RemoteHvacController
from repro.safety.revenue import RevenueModel

BAND = ComfortBand(20.0, 23.0)
SCHEDULE = OccupancySchedule([(8.0, 18.0, 6)])
WINDOW_H = 12.0  # simulated hours


def main() -> None:
    # Duty-cycled stack: LPL with a 1 s wake interval, slow Trickle.
    config = SystemConfig(stack=StackConfig(
        mac="lpl",
        mac_config=LplConfig(wake_interval_s=1.0, phase_lock=True),
        rpl=RplConfig(trickle_imin_s=8.0, trickle_doublings=7, trickle_k=3,
                      dis_period_s=60.0, float_delay_s=300.0),
    ))
    topology = building_topology(floors=2, zones_per_floor=3)
    system = Scenario(topology=topology, config=config,
                      formation_s=1200.0).build(7)
    print(f"building network: {system.joined_fraction():.0%} of "
          f"{topology.size - 1} zone controllers joined (LPL, W=1s)")

    outside = DiurnalField(mean=6.0, amplitude=6.0, gradient_per_m=0.0,
                           phase_s=-6 * 3600.0)
    controller = RemoteHvacController(system.root)
    zones, loops = [], []
    for node in system.nodes.values():
        if node.is_root:
            continue
        zone = HvacZone(node, lambda t: outside.value_at(t, (0.0, 0.0)),
                        BAND, schedule=SCHEDULE, initial_temp_c=20.5,
                        control_period_s=300.0)
        controller.manage(zone.name, SetbackController(
            BAND, SCHEDULE, setback_margin_c=4.0))
        loop = RemoteControlLoop(
            zone, controller_node=0,
            fallback=BangBangController(BAND.widened(1.5)),
            fallback_timeout_s=900.0,
        )
        zone.start()
        loop.start()
        zones.append(zone)
        loops.append(loop)

    # Morning: normal operation.
    system.run(6 * 3600.0)
    print(f"06:00 (night setback, relaxed band): mean zone temp "
          f"{mean([z.zone.temperature_c for z in zones]):.1f} C, "
          f"commands delivered {controller.reports_handled}")

    # Afternoon: a partition cuts the far half of the building off.
    FaultPlan().partition(system.sim.now, 45.0,
                          heal_after_s=3 * 3600.0).install(system)
    print("partition applied at x=45m (backhaul side vs far wing)")
    system.run(3 * 3600.0)
    in_fallback = sum(1 for loop in loops if loop.in_fallback)
    worst = max(z.comfort.worst_violation_c for z in zones)
    print(f"after 3h partitioned: {in_fallback} zones on local fallback, "
          f"worst comfort violation {worst:.1f} C (soft-safe)")

    system.run(3 * 3600.0)
    print(f"healed: {sum(1 for l in loops if l.in_fallback)} zones still "
          f"in fallback")

    # The bill.
    pricing = RevenueModel(base_fee_per_day=24.0,
                           energy_price_per_kwh=0.30,
                           comfort_penalty_per_degree_hour=1.5)
    total_energy = sum(z.zone.energy_used_kwh for z in zones)
    total_violation = sum(z.comfort.violation_degree_hours for z in zones)
    statement = pricing.statement(
        days=WINDOW_H / 24.0 * len(zones), energy_kwh=total_energy,
        violation_degree_hours=total_violation,
        worst_violation_c=worst,
    )
    print(f"12-hour bill for {len(zones)} zones: energy {total_energy:.0f} kWh"
          f" ({statement.energy_cost:.2f}), comfort penalty "
          f"{statement.comfort_penalty:.2f}, net {statement.net:.2f}")

    summaries = collect_energy(system.nodes.values(), system.sim.now)
    lifetime = mean([s.projected_lifetime_days for s in summaries])
    print(f"radio duty cycle {mean([s.duty_cycle for s in summaries]):.1%}, "
          f"projected battery life {lifetime / 365:.1f} years on 2xAA")


if __name__ == "__main__":
    main()
