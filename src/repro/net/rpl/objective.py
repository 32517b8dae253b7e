"""RPL objective functions: OF0 and MRHOF.

The objective function turns link metrics into ranks and decides when a
better parent is worth switching to.  MRHOF (ETX-based, RFC 6719) is the
deployed default; OF0 (hop count, RFC 6552) is kept as the ablation
baseline because its indifference to link quality shows why *configuring
networking protocols for individual deployments requires expertise*
(§V-D, ref [45]).
"""

from __future__ import annotations

import abc

#: Rank of a DODAG root.
ROOT_RANK = 256
#: Minimum rank increase per hop (RFC 6550 default).
MIN_HOP_RANK_INCREASE = 256
#: Rank advertised by detached/poisoning nodes.
INFINITE_RANK = 0xFFFF
#: Maximum usable rank.
MAX_RANK = INFINITE_RANK - 1
#: MRHOF refuses a link whose ETX exceeds this (read at each ranking).
MAX_LINK_ETX = 8.0


class ObjectiveFunction(abc.ABC):
    """Strategy deciding ranks and parent switches."""

    #: How much better (in rank units) a candidate must be before we
    #: abandon the current parent (RFC 6719 PARENT_SWITCH_RANK_THRESHOLD).
    parent_switch_threshold: int = 192

    @abc.abstractmethod
    def rank_through(self, parent_rank: int, etx: float) -> int:
        """Rank this node would advertise with that parent."""

    def acceptable(self, parent_rank: int, etx: float) -> bool:
        """Whether a neighbor is usable as a parent at all."""
        return parent_rank < INFINITE_RANK and self.rank_through(parent_rank, etx) <= MAX_RANK

    def should_switch(self, current_rank: int, candidate_rank: int) -> bool:
        """Hysteresis: switch only for a clear improvement."""
        return candidate_rank + self.parent_switch_threshold < current_rank


class Mrhof(ObjectiveFunction):
    """Minimum Rank with Hysteresis OF over the ETX metric (RFC 6719)."""

    def rank_through(self, parent_rank: int, etx: float) -> int:
        if etx > MAX_LINK_ETX:
            return INFINITE_RANK
        increase = max(1.0, etx) * MIN_HOP_RANK_INCREASE
        return min(int(parent_rank + increase), INFINITE_RANK)


class Of0(ObjectiveFunction):
    """Objective Function Zero: pure hop count (RFC 6552).

    Ignores link quality — every audible neighbor costs one hop, and it
    tolerates any link the MAC will attempt — which makes it pick long,
    lossy links.  Kept as the ablation baseline.
    """

    def rank_through(self, parent_rank: int, etx: float) -> int:
        return min(parent_rank + MIN_HOP_RANK_INCREASE, INFINITE_RANK)
