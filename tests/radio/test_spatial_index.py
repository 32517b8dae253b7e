"""The spatial grid index: identity with the full scan, invalidation.

The medium's scalability rework (DESIGN.md, "Scaling the medium")
replaced all-pairs scans with a cell grid plus versioned neighborhoods.
The contract is *trace-exact equivalence*: an indexed medium must be
indistinguishable from the test-side full scan
(``tests.conftest.FullScanMedium``) — same audible sets, same CCA
answers, same collisions, byte for byte.
The property tests here pin that over random placements; the regression
tests pin the invalidation rules (a late attach, a link filter set and
cleared) that keep the neighborhoods honest, with ``model.rssi_dbm`` as
the oracle, and that a radio's geometry cannot be written after it is
built.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.cold_fill import census
from repro.core import system as system_module
from repro.core.system import IIoTSystem, SystemConfig
from repro.deployment.topology import campus_topology
from repro.net.stack import StackConfig
from repro.radio.medium import (
    _CELL_MARGIN,
    AUDIBLE_THRESHOLD_DBM,
    Frame,
    Medium,
    Radio,
)
from repro.radio.propagation import LogDistanceModel, UnitDiskModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog
from tests.conftest import FullScanMedium, TraceRecorder


def build_pair(positions, model_cls, model_kw, seed=1, powers=()):
    """The same placement twice: spatially indexed and full scan.
    ``powers[i]`` is radio ``i``'s tx power (0 dBm past the list)."""
    out = []
    for medium_cls in (Medium, FullScanMedium):
        sim = Simulator(seed=seed)
        medium = medium_cls(sim, model_cls(**model_kw), TraceLog())
        radios = [attach(medium, node_id, position,
                         powers[node_id] if node_id < len(powers) else 0.0)
                  for node_id, position in enumerate(positions)]
        out.append((sim, medium, radios))
    return out


def attach(medium, node_id, position, tx_power_dbm=0.0):
    """A listening radio that discards what it receives."""
    radio = Radio(medium, node_id, position, tx_power_dbm=tx_power_dbm)
    radio.on_receive = lambda frame, rssi: None
    radio.set_listening()
    return radio


def audible_ids(medium, radio):
    return [(r.node_id, rssi) for r, rssi in medium.audible_from(radio)]


def entry_bits(entry):
    """A neighbourhood entry, column by column, floats to the last bit."""
    return ([r.node_id for r in entry.radios],
            entry.prr.typecode, [prr.hex() for prr in entry.prr],
            [(node, rssi.hex()) for node, rssi in entry.rssi_by_id.items()])


def neighborhood_bits(medium, radio):
    """A sender's whole cached effect."""
    return entry_bits(medium._neighborhood(radio))


coords = st.floats(min_value=0.0, max_value=400.0,
                   allow_nan=False, allow_infinity=False)
placements = st.lists(st.tuples(coords, coords), min_size=2, max_size=20)

#: Contended scripts: 40-byte frames last 1.632 ms and senders start
#: 80 us apart, so the first 14 of a round are all on the air at once;
#: rounds are far enough apart that nobody is asked to send while in TX.
ROUND_S = 0.005
STAGGER_S = 0.00008


@st.composite
def contended_scripts(draw):
    """Radios, rounds of overlapping senders, and world edits at any time:
    a late radio attached (it sends one frame at once) or a link filter
    set or cleared."""
    n = draw(st.integers(16, 26))
    positions = draw(st.lists(st.tuples(coords, coords),
                              min_size=n, max_size=n))
    rounds = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=14,
                 max_size=n, unique=True),
        min_size=1, max_size=3))
    edits = draw(st.lists(st.tuples(
        st.floats(0.0, 1.0),  # when, as a fraction of the script
        st.one_of(
            # A late radio: where, and its tx power (6 regrows the grid).
            st.tuples(st.tuples(coords, coords), st.floats(-10.0, 6.0)),
            st.integers(0, n - 1),  # cut every link of this radio
            st.none())),  # clear the filter
        max_size=6))
    return positions, rounds, edits


class TestIdentityProperties:
    @given(positions=placements, model_seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_audible_from_matches_brute_force(self, positions, model_seed):
        (_, indexed, idx_radios), (_, brute, bf_radios) = build_pair(
            positions, LogDistanceModel,
            dict(path_loss_exponent=3.5, shadowing_sigma_db=3.0,
                 seed=model_seed),
        )
        assert indexed.grid_info()["spatial_index"]
        assert not brute.grid_info()["spatial_index"]
        for ir, br in zip(idx_radios, bf_radios):
            assert audible_ids(indexed, ir) == audible_ids(brute, br)

    @given(positions=placements, radius=st.floats(5.0, 120.0))
    @settings(max_examples=30, deadline=None)
    def test_unit_disk_audible_matches(self, positions, radius):
        (_, indexed, idx_radios), (_, brute, bf_radios) = build_pair(
            positions, UnitDiskModel, dict(radius_m=radius))
        for ir, br in zip(idx_radios, bf_radios):
            assert audible_ids(indexed, ir) == audible_ids(brute, br)

    @given(positions=st.lists(st.tuples(coords, coords),
                              min_size=4, max_size=14),
           model_seed=st.integers(0, 200),
           sim_seed=st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_traffic_trace_identical(self, positions, model_seed, sim_seed):
        """Overlapping transmissions: CCA, collisions, drops all equal."""
        (isim, indexed, idx_radios), (bsim, brute, bf_radios) = build_pair(
            positions, LogDistanceModel,
            dict(shadowing_sigma_db=2.0, seed=model_seed),
            seed=sim_seed,
        )
        picker = random.Random(model_seed)
        senders = picker.sample(range(len(positions)),
                                k=min(6, len(positions)))
        streams = []
        for sim, medium, radios in ((isim, indexed, idx_radios),
                                    (bsim, brute, bf_radios)):
            cca = []
            for k, sender in enumerate(senders):
                def send(radio=radios[sender]):
                    cca.append(medium.carrier_busy(radio))
                    medium.transmit(radio, Frame(
                        payload="p", size_bytes=40,
                        channel=radio.channel, sender=radio.node_id))
                # Offsets inside one ~1.6 ms airtime: real contention.
                sim.schedule(0.001 + k * 0.0003, send)
            with TraceRecorder(medium.trace) as recorder:
                sim.run()
            streams.append(recorder(medium.trace) + [("cca", tuple(cca))])
        assert streams[0] == streams[1]

    @given(script=contended_scripts(), model_seed=st.integers(0, 200),
           sim_seed=st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_contended_traffic_identical(self, script, model_seed, sim_seed):
        """More than 12 frames on the air, late attaches and link
        filters between and during them: the indexed medium arbitrates
        exactly like the full scan."""
        positions, rounds, edits = script
        (isim, indexed, idx_radios), (bsim, brute, bf_radios) = build_pair(
            positions, LogDistanceModel,
            dict(path_loss_exponent=3.5, shadowing_sigma_db=2.0,
                 seed=model_seed),
            seed=sim_seed,
        )
        answers = []
        for sim, medium, radios in ((isim, indexed, idx_radios),
                                    (bsim, brute, bf_radios)):
            cca = []
            peak = [0]

            def send(radio):
                # Both media share the cache, so it is checked against
                # fresh builds: no world edit may leave an entry stale.
                stale = [node for node, entry in medium._neighborhoods.items()
                         if entry_bits(entry) != entry_bits(
                             medium._build_neighborhood(medium.radios[node]))]
                assert not stale, f"stale neighbourhoods: {stale}"
                cca.append(medium.carrier_busy(radio))
                medium.transmit(radio, Frame(
                    payload="p", size_bytes=40,
                    channel=radio.channel, sender=radio.node_id))
                peak[0] = max(peak[0], len(medium._active))

            for k, senders in enumerate(rounds):
                for i, sender in enumerate(senders):
                    sim.schedule_at(0.001 + k * ROUND_S + i * STAGGER_S,
                                    lambda radio=radios[sender]: send(radio))

            def edit(change):
                if isinstance(change, tuple):
                    position, power = change
                    late = attach(medium, len(radios), position, power)
                    radios.append(late)
                    send(late)
                elif change is None:
                    medium.set_link_filter(None)
                else:
                    medium.set_link_filter(lambda s, r: change in (s, r))

            for when, change in edits:
                sim.schedule_at(when * len(rounds) * ROUND_S,
                                lambda change=change: edit(change))
            with TraceRecorder(medium.trace) as recorder:
                sim.run()
            assert peak[0] > 12
            answers.append((recorder(medium.trace), cca,
                            [r.frames_received for r in radios]))
        assert answers[0] == answers[1]

#: The grid is first sized for 0 dBm: powers on both sides of that.
tx_powers = st.sampled_from([-15.0, -6.0, 0.0, 3.0, 7.0])


class TestAudibleDisc:
    """Inside its nine cells a sender evaluates only its own disc.

    The disc is the model's range bound at the *sender's* power, so the
    cases that matter are powers away from the one the cells were sized
    for, radios on the disc's edge, a late radio loud enough to regrow
    the cells, and a link filter.  The reference is the full scan, which
    prunes nothing.
    """

    @given(positions=placements,
           powers=st.lists(tx_powers, min_size=20, max_size=20),
           sigma=st.sampled_from([0.0, 2.0, 6.0]),
           model_seed=st.integers(0, 1000),
           target=st.tuples(coords, coords), blocked_id=st.integers(0, 19))
    @settings(max_examples=40, deadline=None)
    def test_neighborhoods_match_full_scan(self, positions, powers, sigma,
                                           model_seed, target, blocked_id):
        model_kw = dict(path_loss_exponent=3.5, shadowing_sigma_db=sigma,
                        seed=model_seed)
        # Four more radios straddle radio 0's audible range and the
        # inflated range the disc (and the cells) are cut at.
        range_m = LogDistanceModel(**model_kw).max_audible_range_m(
            powers[0], AUDIBLE_THRESHOLD_DBM)
        x, y = positions[0]
        edge = [(x + range_m * scale * (1.0 + nudge), y)
                for scale in (1.0, _CELL_MARGIN) for nudge in (-1e-12, 1e-12)]
        worlds = build_pair(positions + edge, LogDistanceModel, model_kw,
                            powers=powers[:len(positions)])
        (_, indexed, idx_radios), (_, brute, bf_radios) = worlds
        assert not brute.grid_info()["spatial_index"]

        def check():
            assert indexed.grid_info()["spatial_index"]
            for ir, br in zip(idx_radios, bf_radios):
                assert neighborhood_bits(indexed, ir) \
                    == neighborhood_bits(brute, br)

        check()
        # Beyond any sizing basis so far: the grid regrows.
        for _, medium, radios in worlds:
            radios.append(attach(medium, len(radios), target, 12.0))
        check()
        for _, medium, _ in worlds:
            medium.set_link_filter(
                lambda s, r: blocked_id % len(idx_radios) in (s, r))
        check()

    def test_cold_neighborhood_evaluates_the_disc_and_nothing_else(self):
        """Counts, not clocks: the model is asked about exactly the
        radios within reach of the sender, which is under half of what
        its nine cells hold once the campus is wider than one cell row
        (4 x 4 buildings here; a single row of four reads 0.66)."""
        topology = campus_topology(16, 100, seed=5)
        model = LogDistanceModel(path_loss_exponent=3.5,
                                 shadowing_sigma_db=2.0, seed=5)
        medium = Medium(Simulator(seed=5), model, TraceLog())
        radios = [Radio(medium, node_id, topology.positions[node_id])
                  for node_id in topology.node_ids()]
        rows = census(medium, radios[::8])
        assert all(row["evaluated"] == row["in_reach"] for row in rows)
        assert all(row["audible"] <= row["evaluated"] <= row["candidates"]
                   for row in rows)
        assert sum(row["evaluated"] for row in rows) \
            < 0.5 * sum(row["candidates"] for row in rows)
        # The census cleaned up, and a neighbourhood still builds.
        assert "rssi_dbm" not in vars(model)
        assert "reception_probability" not in vars(model)
        assert "_reach_m" not in vars(medium)
        assert len(medium.audible_from(radios[0])) == rows[0]["audible"]


class TestSystemIdentity:
    def test_full_system_run_is_identical_under_the_index(self, recorded):
        """Two complete CSMA/RPL systems — stacks, MACs, routing, sensor
        traffic — differing only in whether the system's medium is the
        indexed one or the full scan.  The *entire* trace is compared,
        not just radio events: if the index perturbed anything
        downstream (a parent choice, a DAO's timing), it shows here."""

        def run(medium_cls):
            topology = campus_topology(2, 9, building_span_m=40.0,
                                       building_gap_m=30.0, seed=3)
            model = LogDistanceModel(path_loss_exponent=3.0,
                                     shadowing_sigma_db=2.0, seed=3)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(system_module, "Medium", medium_cls)
                system = IIoTSystem.build(
                    topology,
                    config=SystemConfig(stack=StackConfig(mac="csma")),
                    link_model=model, seed=2018)
            system.start()
            sim, root_id = system.sim, topology.root_id

            def reporter(stack, offset):
                def send():
                    stack.send_datagram(root_id, 7, payload="r",
                                        payload_bytes=24)
                    sim.schedule(30.0, send)
                sim.schedule(120.0 + offset, send)  # after formation

            for node_id in sorted(system.nodes):
                if node_id != root_id:
                    reporter(system.nodes[node_id].stack, 0.1 * node_id)
            system.run(200.0)
            return system

        indexed, brute = run(Medium), run(FullScanMedium)
        assert indexed.medium.grid_info()["spatial_index"]
        assert not brute.medium.grid_info()["spatial_index"]
        assert recorded(indexed.trace) == recorded(brute.trace)
        assert indexed.sim.events_processed == brute.sim.events_processed
        for outcome in ("radio.rx", "radio.collision", "radio.miss"):
            assert indexed.trace.count(outcome) > 0


class TestCacheInvalidation:
    def _medium(self, sim):
        model = LogDistanceModel(shadowing_sigma_db=0.0, seed=1)
        return Medium(sim, model, TraceLog())

    @staticmethod
    def _model_rssi(medium, sender, receiver):
        """The oracle: the model asked directly, past every cache."""
        return medium.model.rssi_dbm(
            sender.position, [receiver.position], sender.tx_power_dbm)[0]

    @pytest.mark.parametrize("attr, value", [("position", (5.0, 0.0)),
                                             ("tx_power_dbm", 20.0)])
    def test_geometry_is_read_only(self, sim, attr, value):
        """A radio is placed once: its position and power are set when
        it is built, and a write is refused without touching a cache."""
        medium = self._medium(sim)
        a = Radio(medium, 1, (0.0, 0.0))
        b = Radio(medium, 2, (150.0, 0.0))
        b.set_listening()
        before = getattr(b, attr)
        assert audible_ids(medium, a) == []
        with pytest.raises(AttributeError):
            setattr(b, attr, value)
        assert getattr(b, attr) == before
        assert audible_ids(medium, a) == []

    def test_attach_after_queries_is_visible(self, sim):
        medium = self._medium(sim)
        a = Radio(medium, 1, (0.0, 0.0))
        assert audible_ids(medium, a) == []
        late = Radio(medium, 2, (5.0, 0.0))
        late.set_listening()
        assert [node for node, _ in audible_ids(medium, a)] == [2]

    def test_link_filter_invalidates_both_ways(self, sim):
        medium = self._medium(sim)
        a = Radio(medium, 1, (0.0, 0.0))
        b = Radio(medium, 2, (10.0, 0.0))
        for radio in (a, b):
            radio.set_listening()
        assert [node for node, _ in audible_ids(medium, a)] == [2]
        medium.set_link_filter(lambda s, r: (s, r) == (1, 2))
        assert audible_ids(medium, a) == []
        assert [node for node, _ in audible_ids(medium, b)] == [1]
        medium.set_link_filter(None)
        assert [node for node, _ in audible_ids(medium, a)] == [2]

    def test_rssi_cache_stays_bounded(self, sim):
        """The medium holds one RSSI per *audible* directed link, however
        many links are asked about: 60 m apart only line neighbours hear
        each other, and all 1560 pairs are queried."""
        medium = self._medium(sim)
        radios = [Radio(medium, i, (60.0 * i, 0.0)) for i in range(40)]
        for sender in radios:
            for receiver in radios:
                if sender is not receiver:
                    assert (medium.rssi_between(sender, receiver)
                            == self._model_rssi(medium, sender, receiver))
        assert medium.grid_info()["rssi_cache"] == 2 * 39

    def test_stale_rssi_cache_entry_not_served(self, sim):
        medium = self._medium(sim)
        a = Radio(medium, 1, (0.0, 0.0))
        b = Radio(medium, 2, (10.0, 0.0))
        near = medium.rssi_between(a, b)
        assert near == self._model_rssi(medium, a, b)

    def test_stale_rssi_map_not_served(self, sim):
        """CCA and arbitration read a sender's id->RSSI map; every edit
        that changes a link must be visible in it on the next read."""
        medium = self._medium(sim)
        a = Radio(medium, 1, (0.0, 0.0))
        b = Radio(medium, 2, (10.0, 0.0))
        a.transmit("long frame", 120)  # on the air for the whole test

        def heard(radio):
            rssi = medium._neighborhood(a).rssi_by_id.get(radio.node_id)
            assert rssi is None or rssi == self._model_rssi(medium, a, radio)
            assert medium.carrier_busy(radio) == (rssi is not None)
            return rssi

        near = heard(b)
        assert near is not None
        # Attached while the frame is in flight, after its map was built.
        late = Radio(medium, 3, (0.0, 10.0))
        assert heard(late) is not None
        medium.set_link_filter(lambda s, r: (s, r) == (1, 2))
        assert heard(b) is None
        medium.set_link_filter(None)
        assert heard(b) == near


class TestGridEngagement:
    @pytest.mark.parametrize("bound", [None, math.nan, math.inf, 0.0])
    def test_model_without_finite_range_is_rejected(self, sim, bound):
        """Every model declares a finite positive reach: the grid is
        sized by it and a sender's disc cut by it, and there is no full
        scan to fall back to, so the medium refuses a model without one
        when it is built."""
        class Unbounded(UnitDiskModel):
            def max_audible_range_m(self, tx_power_dbm, threshold_dbm):
                return bound

        with pytest.raises(ValueError, match="audible range"):
            Medium(sim, Unbounded(), TraceLog())

    def test_grid_engages_for_builtin_models(self, sim):
        for model in (UnitDiskModel(), LogDistanceModel()):
            medium = Medium(Simulator(seed=1), model,
                            TraceLog())
            Radio(medium, 1, (0.0, 0.0))
            info = medium.grid_info()
            assert info["spatial_index"]
            assert info["cell_size_m"] >= 1.0

class TestPerFrameArbitration:
    """Where the overlapping set of a frame is looked for.

    Unit-disk radius 30 m gives 30.3 m cells; thirteen far-away fillers
    keep more than 12 frames on the air, all in the one end-time heap the
    overlapping set is read from.  The full scan must agree.
    """

    def _medium(self, spatial):
        sim = Simulator(seed=3)
        medium_cls = Medium if spatial else FullScanMedium
        medium = medium_cls(sim, UnitDiskModel(radius_m=30.0), TraceLog())
        assert medium.grid_info()["spatial_index"] == spatial
        fillers = [Radio(medium, 100 + i, (1000.0 + 100.0 * i, 1000.0))
                   for i in range(13)]

        def crowd():
            for radio in fillers:
                radio.transmit("filler", 60)
        return sim, medium, crowd

    @pytest.fixture(autouse=True)
    def _record(self, recorded):
        self.recorded = recorded

    def _outcomes(self, medium, node, sender=1):
        """What became of ``sender``'s frames at ``node``."""
        return [r.category for r in self.recorded(medium.trace)
                if r.node == node and r.data.get("sender") == sender]

    @pytest.mark.parametrize("spatial", [True, False])
    def test_interferer_two_cells_from_sender_collides(self, spatial):
        sim, medium, crowd = self._medium(spatial)
        sender = Radio(medium, 1, (29.0, 0.0))        # cell 0
        receiver = Radio(medium, 2, (58.0, 0.0))      # cell 1
        interferer = Radio(medium, 3, (87.0, 0.0))    # cell 2
        receiver.set_listening()
        crowd()
        sender.transmit("wanted", 40)
        interferer.transmit("unwanted", 40)
        assert len(medium._active) > 12
        sim.run()
        assert self._outcomes(medium, 2) == ["radio.collision"]
        assert self._outcomes(medium, 2, sender=3) == ["radio.collision"]

    @pytest.mark.parametrize("spatial", [True, False])
    def test_upcall_that_cuts_a_link_is_seen_by_later_receivers(self, spatial):
        sim, medium, crowd = self._medium(spatial)
        sender = Radio(medium, 1, (0.0, 0.0))
        first = Radio(medium, 2, (10.0, 0.0))
        second = Radio(medium, 3, (20.0, 0.0))
        interferer = Radio(medium, 4, (45.0, 0.0))  # reaches `second` only
        first.set_listening()
        second.set_listening()
        first.on_receive = lambda frame, rssi: medium.set_link_filter(
            lambda s, r: s == interferer.node_id)
        crowd()
        interferer.transmit("unwanted", 60)
        sender.transmit("wanted", 40)
        sim.run()
        assert self._outcomes(medium, 2) == ["radio.rx"]
        assert self._outcomes(medium, 3) == ["radio.rx"]
