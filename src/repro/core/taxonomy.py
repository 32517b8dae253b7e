"""The paper's evaluation axes as first-class assessments.

The contribution of the paper is a *taxonomy*: industrial IoT systems
should be judged on interoperability, scalability (size / geographic /
administrative), and dependability (reliability / safety / availability
/ maintainability / security).  This module turns that rubric into code:
assessments take *measured* quantities from experiments and produce
graded verdicts with the evidence attached, so a deployment's report
reads like the paper's Section headings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.safety import revenue


@dataclass(frozen=True)
class AxisAssessment:
    """One axis's verdict."""

    axis: str
    #: Grade in [0, 1]: 1 = the property holds strongly.
    score: float
    verdict: str
    evidence: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError("score must be in [0, 1]")


def _grade(ratio: float, good: float, bad: float) -> float:
    """Map a ratio onto [0, 1], linear between the good and bad anchor."""
    if good == bad:
        raise ValueError("good and bad anchors must differ")
    t = (ratio - bad) / (good - bad)
    return max(0.0, min(1.0, t))


# ----------------------------------------------------------------------
# scalability (§IV)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScalabilityReport:
    """The three scalability axes of §IV."""

    size: AxisAssessment
    geographic: AxisAssessment
    administrative: AxisAssessment

    def axes(self) -> List[AxisAssessment]:
        return [self.size, self.geographic, self.administrative]


def assess_scalability(
    small_delivery: float,
    large_delivery: float,
    scale_factor: float,
    latency_per_hop_s: float,
    coexistence_prr_alone: float,
    coexistence_prr_shared: float,
) -> ScalabilityReport:
    """Grade a system's scalability from paired measurements.

    Parameters mirror experiments E2 (delivery at two sizes), E3
    (per-hop latency → geographic), and E6 (PRR alone vs with co-located
    tenants → administrative).
    """
    degradation = large_delivery / small_delivery if small_delivery else 0.0
    size = AxisAssessment(
        axis="size",
        score=_grade(degradation, good=1.0, bad=0.5),
        verdict=(
            f"delivery retained {degradation:.0%} across a "
            f"{scale_factor:.0f}x growth"
        ),
        evidence={
            "small_delivery": small_delivery,
            "large_delivery": large_delivery,
            "scale_factor": scale_factor,
        },
    )
    geographic = AxisAssessment(
        axis="geographic",
        # 10 ms/hop is sync-flood territory, 1 s/hop is heavy duty cycling.
        score=_grade(math.log10(max(latency_per_hop_s, 1e-4)),
                     good=-2.0, bad=0.0),
        verdict=f"{latency_per_hop_s * 1000:.0f} ms per wireless hop",
        evidence={"latency_per_hop_s": latency_per_hop_s},
    )
    coexistence = (
        coexistence_prr_shared / coexistence_prr_alone
        if coexistence_prr_alone else 0.0
    )
    administrative = AxisAssessment(
        axis="administrative",
        score=_grade(coexistence, good=1.0, bad=0.3),
        verdict=(
            f"PRR retained {coexistence:.0%} with co-located tenants"
        ),
        evidence={
            "prr_alone": coexistence_prr_alone,
            "prr_shared": coexistence_prr_shared,
        },
    )
    return ScalabilityReport(size=size, geographic=geographic,
                             administrative=administrative)


# ----------------------------------------------------------------------
# dependability (§V)
# ----------------------------------------------------------------------
def availability_score(service_availability: float) -> float:
    """The taxonomy's availability grade: "three nines" scores 1.0,
    anything at or below 90 % scores 0.  Shared by
    :func:`assess_dependability` and the dependability gate so the CLI
    and the report cannot drift apart."""
    return _grade(service_availability, good=0.999, bad=0.9)



@dataclass(frozen=True)
class DependabilityReport:
    """The five dependability axes of §V."""

    reliability: AxisAssessment
    safety: AxisAssessment
    availability: AxisAssessment
    maintainability: AxisAssessment
    security: AxisAssessment

    def axes(self) -> List[AxisAssessment]:
        return [self.reliability, self.safety, self.availability,
                self.maintainability, self.security]


def assess_dependability(
    delivery_ratio: float,
    worst_comfort_violation_c: float,
    service_availability: float,
    recovery_time_s: Optional[float],
    recovery_target_s: float,
    injected_commands_applied: int,
    injected_commands_total: int,
) -> DependabilityReport:
    """Grade dependability from the E7–E11 measurement family; the safety
    axis against the SLA breach depth ``repro.safety.revenue.SLA_BREACH_C``."""
    sla_breach_c = revenue.SLA_BREACH_C
    reliability = AxisAssessment(
        axis="reliability",
        score=_grade(delivery_ratio, good=0.99, bad=0.8),
        verdict=f"end-to-end delivery ratio {delivery_ratio:.1%}",
        evidence={"delivery_ratio": delivery_ratio},
    )
    safety_margin = 1.0 - worst_comfort_violation_c / sla_breach_c
    safety = AxisAssessment(
        axis="safety",
        score=max(0.0, min(1.0, safety_margin)),
        verdict=(
            f"worst soft-safety violation {worst_comfort_violation_c:.1f} C "
            f"of {sla_breach_c:.1f} C SLA"
        ),
        evidence={"worst_violation_c": worst_comfort_violation_c},
    )
    availability = AxisAssessment(
        axis="availability",
        score=availability_score(service_availability),
        verdict=f"service availability {service_availability:.2%}",
        evidence={"availability": service_availability},
    )
    if recovery_time_s is None:
        maintainability = AxisAssessment(
            axis="maintainability", score=0.0,
            verdict="did not self-heal within the experiment window",
        )
    else:
        maintainability = AxisAssessment(
            axis="maintainability",
            score=_grade(recovery_time_s, good=0.0, bad=recovery_target_s),
            verdict=f"self-healed in {recovery_time_s:.0f} s unaided",
            evidence={"recovery_time_s": recovery_time_s},
        )
    if injected_commands_total:
        blocked = 1.0 - injected_commands_applied / injected_commands_total
    else:
        blocked = 1.0
    security = AxisAssessment(
        axis="security",
        score=blocked,
        verdict=(
            f"blocked {blocked:.0%} of injected actuation commands"
        ),
        evidence={
            "injected_applied": float(injected_commands_applied),
            "injected_total": float(injected_commands_total),
        },
    )
    return DependabilityReport(
        reliability=reliability, safety=safety, availability=availability,
        maintainability=maintainability, security=security,
    )


def taxonomy_table(reports: List[AxisAssessment]) -> List[Dict[str, object]]:
    """Rows for :func:`repro.core.report.ascii_table`."""
    return [
        {"axis": a.axis, "score": round(a.score, 2), "verdict": a.verdict}
        for a in reports
    ]
