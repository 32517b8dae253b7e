"""Incremental rollout plans (paper §IV).

Deployments "start with one or a few small tests, followed by a rollout
comprising initially only a part of the target system" — so the system
must tolerate growth by orders of magnitude *in place*.  A
:class:`RolloutPlan` slices a topology into staged activations;
experiment E13 drives one and verifies the network keeps delivering at
every stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.deployment.topology import Topology
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog


@dataclass(frozen=True)
class RolloutStage:
    """One activation wave."""

    name: str
    start_time_s: float
    node_ids: Sequence[int]

    @property
    def size(self) -> int:
        return len(self.node_ids)


@dataclass
class RolloutPlan:
    """An ordered sequence of activation stages over one topology."""

    topology: Topology
    stages: List[RolloutStage] = field(default_factory=list)

    def validate(self) -> None:
        seen = set()
        last_time = float("-inf")
        for stage in self.stages:
            if stage.start_time_s < last_time:
                raise ValueError("stages must be time-ordered")
            last_time = stage.start_time_s
            for node_id in stage.node_ids:
                if node_id in seen:
                    raise ValueError(f"node {node_id} appears in two stages")
                if node_id not in self.topology.positions:
                    raise ValueError(f"node {node_id} not in topology")
                seen.add(node_id)

    @staticmethod
    def geometric(
        topology: Topology,
        pilot_size: int = 5,
        growth_factor: int = 4,
        stage_interval_s: float = 1800.0,
        start_time_s: float = 0.0,
    ) -> "RolloutPlan":
        """Pilot → ×growth → ×growth … until the topology is exhausted.

        Nodes activate in id order, which for the provided generators is
        roughly distance-from-root order — matching how crews actually
        install outward from the backhaul.
        """
        node_ids = [n for n in topology.node_ids() if n != topology.root_id]
        stages: List[RolloutStage] = []
        cursor = 0
        size = pilot_size
        index = 0
        time = start_time_s
        while cursor < len(node_ids):
            chunk = node_ids[cursor: cursor + size]
            stages.append(RolloutStage(
                name=f"stage-{index}", start_time_s=time, node_ids=chunk,
            ))
            cursor += len(chunk)
            size *= growth_factor
            index += 1
            time += stage_interval_s
        plan = RolloutPlan(topology=topology, stages=stages)
        plan.validate()
        return plan

    def execute(
        self,
        sim: Simulator,
        activate: Callable[[int], None],
        trace: TraceLog,
        on_stage_complete: Optional[Callable[[RolloutStage], None]] = None,
    ) -> None:
        """Schedule every stage's activations on the kernel; each stage
        is a ``rollout.stage`` record in the run's ``trace``."""
        self.validate()

        def run_stage(stage: RolloutStage) -> None:
            for node_id in stage.node_ids:
                activate(node_id)
            trace.emit(sim.now, "rollout.stage", node=None,
                       name=stage.name, size=stage.size)
            if on_stage_complete is not None:
                on_stage_complete(stage)

        for stage in self.stages:
            sim.schedule_at(stage.start_time_s,
                            (lambda s: lambda: run_stage(s))(stage))
