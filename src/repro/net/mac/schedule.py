"""A TSCH node's slotframe: cells, and the slots 6P holds in reserve.

:class:`TschSchedule` is plain state with no MAC, radio or clock behind
it: at most one :class:`Cell` per slot, kept in slot order so the slot
engine (:mod:`repro.net.mac.tsch`) can ask for the next occurrence of a
cell it cares about, plus the per-transaction slot reservations the 6P
layer (:mod:`repro.net.mac.sixp`) takes while an ADD is in flight.
Double-booking a slot, scheduled or reserved, raises
:class:`SlotConflictError`.  The views the slot engine reads on every
sync and boundary — the listening cells, the TX cells per neighbour —
are built once and dropped by the next ``add``/``remove``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.net.mac.base import MacConfigError


class SlotConflictError(ValueError):
    """Raised when a cell would double-book a slot (or reservation)."""


@dataclass(frozen=True)
class Cell:
    """One schedule entry: a (slot, channel offset) rendezvous.

    ``neighbor`` is the peer the cell is dedicated to, or
    :data:`~repro.net.packet.BROADCAST` for the shared minimal cell.
    """

    slot: int
    channel_offset: int
    neighbor: int
    tx: bool = False
    rx: bool = False
    shared: bool = False

    @property
    def listens(self) -> bool:
        """Does serving the cell turn the receiver on?"""
        return self.rx or self.shared


class TschSchedule:
    """One node's slotframe: at most one cell per slot, plus the
    transaction reservations 6P holds while an ADD is in flight."""

    def __init__(self, slots: int) -> None:
        if slots < 2:
            raise MacConfigError("slotframe needs at least 2 slots")
        self.slots = slots
        self._cells: Dict[int, Cell] = {}
        #: The scheduled slots in order, kept by add/remove.
        self._slots: List[int] = []
        self._reserved: Dict[int, int] = {}    # slot -> holding txn
        #: Cached views (see :meth:`listening_cells`, :meth:`tx_cells`);
        #: None until asked for after the last add/remove.
        self._listening: Optional[List[Cell]] = None
        self._tx_cells: Optional[Dict[int, List[Cell]]] = None

    # -- queries -------------------------------------------------------
    def get(self, slot: int) -> Optional[Cell]:
        return self._cells.get(slot)

    def cells(self) -> List[Cell]:
        return [self._cells[s] for s in self._slots]

    def next_occurrence(self, asn: int,
                        wanted: Callable[[Cell], bool]) -> Optional[int]:
        """The first ASN ``>= asn`` whose slot holds a cell ``wanted``
        accepts (None if no cell does): one pass over the scheduled
        slots, starting at ``asn``'s own."""
        slots = self._slots
        frame_start = asn - asn % self.slots
        first = bisect_left(slots, asn - frame_start)
        for i in range(first, first + len(slots)):
            wrapped, index = divmod(i, len(slots))
            if wanted(self._cells[slots[index]]):
                return frame_start + wrapped * self.slots + slots[index]
        return None

    def listening_cells(self) -> List[Cell]:
        """The RX and shared cells, in slot order.  Cached: the caller
        must not mutate it."""
        if self._listening is None:
            self._listening = [c for c in self.cells() if c.listens]
        return self._listening

    def tx_cells(self) -> Dict[int, List[Cell]]:
        """``neighbor -> its dedicated TX cells`` in slot order, for
        every neighbour that has one, in neighbour order.  Cached: the
        caller must not mutate it."""
        if self._tx_cells is None:
            by_neighbor: Dict[int, List[Cell]] = {}
            for c in self.cells():
                if c.tx and not c.shared:
                    by_neighbor.setdefault(c.neighbor, []).append(c)
            self._tx_cells = dict(sorted(by_neighbor.items()))
        return self._tx_cells

    def dedicated_cells(self) -> List[Cell]:
        return [c for c in self.cells() if not c.shared]

    def tx_cells_to(self, neighbor: int) -> List[Cell]:
        return list(self.tx_cells().get(neighbor, ()))

    def rx_cells_from(self, neighbor: int) -> List[Cell]:
        return [c for c in self.cells() if c.rx and not c.shared
                and c.neighbor == neighbor]

    def neighbors(self) -> List[int]:
        return sorted({c.neighbor for c in self._cells.values()
                       if not c.shared})

    def free_slots(self) -> List[int]:
        """Slots neither scheduled nor reserved, in slot order."""
        return [s for s in range(self.slots)
                if s not in self._cells and s not in self._reserved]

    # -- mutation ------------------------------------------------------
    def add(self, cell: Cell) -> None:
        if not 0 <= cell.slot < self.slots:
            raise SlotConflictError(
                f"slot {cell.slot} outside slotframe of {self.slots}")
        if cell.slot in self._cells:
            raise SlotConflictError(f"slot {cell.slot} already scheduled")
        if cell.slot in self._reserved:
            raise SlotConflictError(
                f"slot {cell.slot} reserved by txn {self._reserved[cell.slot]}")
        self._cells[cell.slot] = cell
        insort(self._slots, cell.slot)
        self._listening = self._tx_cells = None

    def remove(self, slot: int) -> Cell:
        if slot not in self._cells:
            raise SlotConflictError(f"slot {slot} not scheduled")
        del self._slots[bisect_left(self._slots, slot)]
        self._listening = self._tx_cells = None
        return self._cells.pop(slot)

    def reserve(self, slot: int, txn: int) -> None:
        if slot in self._cells:
            raise SlotConflictError(f"slot {slot} already scheduled")
        if slot in self._reserved:
            raise SlotConflictError(
                f"slot {slot} reserved by txn {self._reserved[slot]}")
        self._reserved[slot] = txn

    def release(self, slot: int, txn: int) -> None:
        if self._reserved.get(slot) == txn:
            del self._reserved[slot]

    def install_reserved(self, slot: int, txn: int, cell: Cell) -> None:
        """Commit a reservation into a real cell (the 6P confirm step)."""
        if self._reserved.get(slot) != txn:
            raise SlotConflictError(
                f"slot {slot} not reserved by txn {txn}")
        del self._reserved[slot]
        self.add(cell)
