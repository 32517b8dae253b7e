"""The one-value protocol constants satisfy what ``validate()`` checked.

Each was a ``*Config`` field or a constructor keyword no run set; as a
module constant it is checked once, here, instead of on every build.  A
test that patches one to another value takes on the same duty.  LPL's
"probe shorter than the wake interval" stays a check ``LplConfig``
runs when made, because the wake interval is still settable.
"""

import math

from repro.checking import availability
from repro.checking import rpl as rpl_checks
from repro.devices import actuators, energy, inference, phenomena, sensors
from repro.net.mac import csma, rimac, sixp, tsch
from repro.net.rpl import dodag, neighbors, objective, trickle
from repro.radio import propagation
from repro.radio.channels import IEEE802154_CHANNELS
from repro.safety import controllers, revenue, thermal
from repro.security import crypto_cost


def test_constants_satisfy_the_checks_validate_ran():
    # TSCH: the in-slot offsets fit in one slot ...
    assert tsch.TX_OFFSET_S > 0
    assert (tsch.TX_OFFSET_S + tsch.SHARED_JITTER_S + tsch.SLOT_GUARD_S
            < tsch.SLOT_DURATION_S)
    # ... the shared-cell backoff and MSF thresholds are ordered ...
    assert 0 <= tsch.SHARED_BE_MIN <= tsch.SHARED_BE_MAX
    assert 0.0 <= tsch.MSF_LOW < tsch.MSF_HIGH <= 1.0
    assert tsch.MSF_EVAL_CELLS >= 1 and tsch.MAX_RETRIES >= 0
    # ... and frames hop over valid 802.15.4 channels.
    assert tsch.HOPPING and set(tsch.HOPPING) <= set(IEEE802154_CHANNELS)
    # 6P offers, times out and grants something.
    assert sixp.SIXP_CANDIDATES >= 1 and sixp.SIXP_TIMEOUT_S > 0
    assert sixp.CHANNEL_OFFSETS >= 1 and sixp.MAX_CELLS_PER_NEIGHBOR >= 1
    # CSMA backoff exponents are ordered; at least one CCA runs.
    assert csma.MIN_BE <= csma.MAX_BE and csma.MAX_CCA_ATTEMPTS >= 1
    # RI-MAC beacons on a positive period, jittered by a fraction of it.
    assert rimac.WAKE_INTERVAL_S > 0
    assert 0 <= rimac.JITTER < 1
    # RPL checks its neighbors' staleness on a finite, positive period.
    assert 0.0 < dodag.STALENESS_CHECK_PERIOD_S < math.inf
    # Zone physics is well posed.
    assert min(thermal.RESISTANCE_K_PER_W, thermal.CAPACITANCE_J_PER_K,
               thermal.STEP_S) > 0
    # Sensor noise and resolution are not negative.
    assert sensors.NOISE_SIGMA >= 0 and sensors.QUANTIZATION >= 0


def test_constants_satisfy_the_checks_constructors_ran():
    # The adaptive Trickle variants shrink, floor and relax I_min within
    # bounds, and never suppress below one message.
    assert 0.0 < trickle.IMIN_SHRINK < 1.0
    assert 0.0 < trickle.IMIN_FLOOR_FACTOR <= 1.0
    assert trickle.IMIN_RELAX_AFTER >= 1 and trickle.K_MIN >= 1
    # An actuator's range is ordered; a node's battery holds charge.
    assert actuators.MINIMUM <= actuators.MAXIMUM
    assert energy.BATTERY_CAPACITY_MAH > 0
    # The availability floor is a fraction; a defect needs one sample.
    assert 0.0 <= availability.FLOOR <= 1.0
    assert rpl_checks.PERSISTENCE >= 1


def test_constants_satisfy_the_checks_their_fields_implied():
    # A random walk steps forward in time; the ETX estimator's weight
    # is a fraction and MRHOF accepts at least a perfect link.
    assert phenomena.WALK_STEP_S > 0
    assert 0.0 < neighbors.EWMA_ALPHA <= 1.0
    assert objective.MAX_LINK_ETX >= 1.0
    # The SLA depth divides the taxonomy's safety grade; a thermostat's
    # hysteresis and warm-up lead are not negative.
    assert revenue.SLA_BREACH_C > 0
    assert controllers.HYSTERESIS_C >= 0 and controllers.WARMUP_LEAD_S >= 0
    # The MCU clocks, draws and computes at positive rates.
    assert crypto_cost.MCU_MHZ > 0
    assert inference.JOULES_PER_MAC > 0 and inference.MACS_PER_SECOND > 0
    assert math.isfinite(propagation.REFERENCE_LOSS_DB)
