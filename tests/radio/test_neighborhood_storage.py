"""A cached link is a column entry: the neighbourhood's storage.

``_Neighborhood`` keeps a sender's audible set as two columns
(``radios``, ``prr``) beside ``rssi_by_id``, whose values, in insertion
order, are the RSSI column (DESIGN.md, "One neighborhood per sender, two
views of it").  Pinned here: that the columns and the map hold the full
scan's values to the last bit, the map's values in column order, and
that a frame is delivered from the entry current when it was sent,
whatever the world does while it is on the air.  What a link costs once
cached is bounded in ``test_storage.py``.
"""

from array import array

from hypothesis import given, settings, strategies as st

from repro.radio.medium import Frame, Medium, Radio
from repro.radio.propagation import LogDistanceModel, UnitDiskModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog
from tests.radio.test_spatial_index import build_pair, entry_bits

OUTCOMES = ("radio.rx", "radio.miss", "radio.drop", "radio.collision")


coords = st.floats(min_value=0.0, max_value=150.0,
                   allow_nan=False, allow_infinity=False)


@given(positions=st.lists(st.tuples(coords, coords), min_size=2,
                          max_size=25),
       seed=st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_columns_are_the_full_scans_to_the_bit(positions, seed):
    model_kw = dict(path_loss_exponent=3.0, shadowing_sigma_db=4.0, seed=seed)
    (_, indexed, radios), (_, full, full_radios) = build_pair(
        positions, LogDistanceModel, model_kw, seed=seed)
    model = indexed.model
    for radio, full_radio in zip(radios, full_radios):
        entry = indexed._neighborhood(radio)
        assert entry_bits(entry) == entry_bits(
            full._neighborhood(full_radio))
        assert len(entry.radios) == len(entry.rssi_by_id) == len(entry.prr)
        assert entry.prr.typecode == "d"
        # The map's keys run in column order, so its values are the
        # RSSI column: link k is radios[k] at the k-th value.
        assert list(entry.rssi_by_id) == [r.node_id for r in entry.radios]
        rssi = list(entry.rssi_by_id.values())
        assert rssi == sorted(rssi, reverse=True)
        # The doubles the model's list of boxed floats held, bit for bit.
        boxed = model.reception_probability(rssi)
        assert type(boxed) is list
        assert array("d", boxed).tobytes() == entry.prr.tobytes()


# ----------------------------------------------------------------------
# a frame in flight across a world edit
# ----------------------------------------------------------------------
def in_flight_scene(edit):
    """Sender 0 sends one 40-byte frame (1.632 ms) at t=1 ms to
    listening radios 1 and 2; at t=2 ms ``edit(medium)`` changes the
    world.  Returns what each outcome category reached, by node, the
    entry the frame was sent with, its columns then, and the medium."""
    sim = Simulator(seed=1)
    trace = TraceLog()
    medium = Medium(sim, UnitDiskModel(radius_m=25.0), trace)
    sender = Radio(medium, 0, (0.0, 0.0))
    for node, xy in ((1, (10.0, 0.0)), (2, (0.0, 10.0))):
        Radio(medium, node, xy).set_listening()
    seen = []
    for category in OUTCOMES:
        trace.subscribe(category, seen.append)
    sent = {}

    def send():
        medium.transmit(sender, Frame("p", 40, 26, 0))
        entry = medium._neighborhoods[0]
        sent.update(entry=entry, columns=entry_bits(entry))

    sim.schedule_at(0.001, send)
    sim.schedule_at(0.002, lambda: edit(medium))
    sim.run()
    return ([(r.category, r.node) for r in seen], sent["entry"],
            sent["columns"], medium)


def attach_listener(medium):
    """A radio 5 m from the sender, listening from its attach on."""
    Radio(medium, 3, (5.0, 0.0)).set_listening()


def cut_radio_2(medium):
    medium.set_link_filter(lambda s, r: 2 in (s, r))


def test_a_frame_in_flight_across_an_attach_uses_the_entry_it_was_sent_with():
    outcomes, entry, columns, medium = in_flight_scene(attach_listener)
    # Radio 3 was not in the sender's neighbourhood when the frame went
    # on the air: it is skipped, not counted as a miss.
    assert outcomes == [("radio.rx", 1), ("radio.rx", 2)]
    assert medium.radios[3].frames_received == 0
    # The attach replaced the entry; the frame's copy was not mutated.
    assert entry_bits(entry) == columns
    rebuilt = medium._neighborhood(medium.radios[0])
    assert rebuilt is not entry
    assert [r.node_id for r in rebuilt.radios] == [1, 2, 3]


def test_a_frame_in_flight_across_a_link_cut_uses_the_entry_it_was_sent_with():
    outcomes, entry, columns, medium = in_flight_scene(cut_radio_2)
    # The cut changes only later frames: radio 2 still hears this one.
    assert outcomes == [("radio.rx", 1), ("radio.rx", 2)]
    assert entry_bits(entry) == columns
    assert [r.node_id for r in medium._neighborhood(
        medium.radios[0]).radios] == [1]


def test_an_unedited_world_keeps_the_entry():
    outcomes, entry, _, medium = in_flight_scene(lambda medium: None)
    assert outcomes == [("radio.rx", 1), ("radio.rx", 2)]
    assert medium._neighborhood(medium.radios[0]) is entry

