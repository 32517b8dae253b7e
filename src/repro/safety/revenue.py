"""The provider's revenue model (paper §V-B).

"The revenue the system provider receives (or the penalties the
provider has to pay) can be made dependent on the comfort and energy
savings."  This module prices a run: a base service fee, minus energy
cost, minus comfort penalties that grow with violation depth.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Violations beyond this depth (°C) breach the SLA entirely (read at
#: run time; a test patches it).  The dependability taxonomy grades the
#: safety axis against the same depth.
SLA_BREACH_C = 3.0


@dataclass(frozen=True)
class RevenueModel:
    """Pricing of one zone-day."""

    base_fee_per_day: float = 10.0
    energy_price_per_kwh: float = 0.25
    #: Penalty per degree-hour of comfort violation.
    comfort_penalty_per_degree_hour: float = 1.0
    #: Penalty for a violation deeper than ``SLA_BREACH_C``.
    sla_breach_penalty: float = 20.0

    def statement(
        self,
        days: float,
        energy_kwh: float,
        violation_degree_hours: float,
        worst_violation_c: float,
    ) -> "RevenueStatement":
        """Price one measured run."""
        if days <= 0:
            raise ValueError("days must be positive")
        revenue = self.base_fee_per_day * days
        energy_cost = self.energy_price_per_kwh * energy_kwh
        comfort_penalty = (
            self.comfort_penalty_per_degree_hour * violation_degree_hours
        )
        breach_penalty = (
            self.sla_breach_penalty if worst_violation_c > SLA_BREACH_C else 0.0
        )
        return RevenueStatement(
            days=days,
            gross=revenue,
            energy_cost=energy_cost,
            comfort_penalty=comfort_penalty,
            breach_penalty=breach_penalty,
        )


@dataclass(frozen=True)
class RevenueStatement:
    """The priced outcome of a run."""

    days: float
    gross: float
    energy_cost: float
    comfort_penalty: float
    breach_penalty: float

    @property
    def net(self) -> float:
        return self.gross - self.energy_cost - self.comfort_penalty - self.breach_penalty

    @property
    def net_per_day(self) -> float:
        return self.net / self.days
