"""Link-quality model behaviour."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.radio import propagation
from repro.radio.medium import Medium, PositionError, PowerError, Radio
from repro.radio.propagation import (
    SHADOWING_CLAMP_SIGMA,
    LogDistanceModel,
    UnitDiskModel,
    _point_word,
)
from repro.sim.mix import GOLDEN, mix64
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog


def rssi_call(model, sender, receivers, tx_power_dbm=0.0):
    """One ``rssi_dbm`` call over a list of ``receivers`` positions: the
    contract is a list of floats back, one per receiver."""
    rssi = model.rssi_dbm(sender, list(receivers), tx_power_dbm)
    assert type(rssi) is list and len(rssi) == len(receivers)
    assert all(type(value) is float for value in rssi)
    return rssi


def link_rssi(model, sender, receiver, tx_power_dbm=0.0):
    """One link's RSSI: a one-element call, as the medium makes for a link
    its neighbourhood maps leave out."""
    return rssi_call(model, sender, [receiver], tx_power_dbm)[0]


def prr_call(model, rssi):
    """One ``reception_probability`` call: a list of floats back."""
    prr = model.reception_probability(list(rssi))
    assert type(prr) is list and len(prr) == len(rssi)
    assert all(type(value) is float for value in prr)
    return prr


def link_prr(model, rssi):
    return prr_call(model, [rssi])[0]


def shadowing_db(model, a, b):
    """The clamped shadowing draw of link ``a``-``b``: the same model
    with no path loss, at 0 dBm, hears nothing but the draw."""
    bare = LogDistanceModel(path_loss_exponent=0.0,
                            shadowing_sigma_db=model.shadowing_sigma_db,
                            seed=model.seed)
    with mock.patch.object(propagation, "REFERENCE_LOSS_DB", 0.0):
        return link_rssi(bare, a, b)


class TestUnitDisk:
    def test_binary_connectivity(self):
        model = UnitDiskModel(radius_m=30.0)
        near = link_rssi(model, (0, 0), (10, 0), 0.0)
        far = link_rssi(model, (0, 0), (40, 0), 0.0)
        assert link_prr(model, near) == 1.0
        assert link_prr(model, far) == 0.0

    def test_boundary_inclusive(self):
        model = UnitDiskModel(radius_m=30.0)
        edge = link_rssi(model, (0, 0), (30, 0), 0.0)
        assert link_prr(model, edge) == 1.0


class TestLogDistance:
    def test_rssi_decreases_with_distance(self):
        model = LogDistanceModel(shadowing_sigma_db=0.0)
        rssis = [
            link_rssi(model, (0, 0), (d, 0), 0.0) for d in (5, 10, 20, 40, 80)
        ]
        assert rssis == sorted(rssis, reverse=True)

    def test_prr_monotone_in_rssi(self):
        model = LogDistanceModel()
        assert link_prr(model, -70) > link_prr(model, -95)

    def test_prr_saturates(self):
        model = LogDistanceModel()
        assert link_prr(model, -20) > 0.999999
        assert link_prr(model, -200) == 0.0

    def test_prr_half_at_sensitivity(self):
        model = LogDistanceModel(sensitivity_dbm=-90.0)
        assert abs(link_prr(model, -90.0) - 0.5) < 1e-9

    def test_shadowing_is_per_link_stable(self):
        model = LogDistanceModel(shadowing_sigma_db=6.0, seed=3)
        first = link_rssi(model, (0, 0), (30, 0), 0.0)
        second = link_rssi(model, (0, 0), (30, 0), 0.0)
        assert first == second

    def test_shadowing_is_symmetric(self):
        model = LogDistanceModel(shadowing_sigma_db=6.0, seed=3)
        ab = link_rssi(model, (0, 0), (30, 0), 0.0)
        ba = link_rssi(model, (30, 0), (0, 0), 0.0)
        assert ab == ba

    def test_shadowing_differs_across_links(self):
        model = LogDistanceModel(shadowing_sigma_db=6.0, seed=3)
        links = {
            link_rssi(model, (0, 0), (30, float(k)), 0.0) for k in range(8)
        }
        assert len(links) > 1

    def test_transitional_region_exists(self):
        # Some distance band should have PRR strictly between 5% and 95%.
        model = LogDistanceModel(shadowing_sigma_db=0.0)
        prrs = [
            link_prr(model, link_rssi(model, (0, 0), (d, 0), 0.0))
            for d in range(5, 120, 2)
        ]
        assert any(0.05 < p < 0.95 for p in prrs)

    def test_minimum_distance_clamped(self):
        model = LogDistanceModel(shadowing_sigma_db=0.0)
        at_zero = link_rssi(model, (0, 0), (0, 0), 0.0)
        at_half = link_rssi(model, (0, 0), (0.5, 0), 0.0)
        assert at_zero == at_half


coords = st.floats(min_value=0.0, max_value=500.0,
                   allow_nan=False, allow_infinity=False)
points = st.tuples(coords, coords)


class TestCallSizeIndependence:
    """A link's value does not depend on how many others share its call.

    The medium evaluates a neighbourhood in one ``rssi_dbm`` call and
    one ``reception_probability`` call, and a single link (one its maps
    leave out) in a one-element call: element *i* of a *k*-receiver call
    must be *bitwise* the one-receiver value, or the trace would depend
    on who else happens to be in range.
    """

    @given(sender=points,
           receivers=st.lists(points, min_size=1, max_size=200),
           tx=st.floats(-25.0, 25.0),
           model_seed=st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_log_distance_element_equals_one_row_call(self, sender, receivers,
                                                      tx, model_seed):
        model = LogDistanceModel(shadowing_sigma_db=3.0, seed=model_seed)
        together = rssi_call(model, sender, receivers, tx)
        alone = [link_rssi(model, sender, r, tx) for r in receivers]
        assert [v.hex() for v in together] == [v.hex() for v in alone]
        prrs = prr_call(model, together)
        assert [v.hex() for v in prrs] \
            == [link_prr(model, r).hex() for r in together]

    @given(sender=points,
           receivers=st.lists(points, min_size=1, max_size=200),
           radius=st.floats(1.0, 300.0))
    @settings(max_examples=30, deadline=None)
    def test_unit_disk_element_equals_one_row_call(self, sender, receivers,
                                                   radius):
        model = UnitDiskModel(radius_m=radius)
        together = rssi_call(model, sender, receivers)
        assert together == [link_rssi(model, sender, r) for r in receivers]
        assert prr_call(model, together) \
            == [link_prr(model, r) for r in together]


class TestAudibleRangeBound:
    @given(sender=points, receiver=points,
           tx=st.floats(-25.0, 25.0),
           sigma=st.floats(0.0, 8.0),
           model_seed=st.integers(0, 500))
    @settings(max_examples=100, deadline=None)
    def test_range_is_conservative(self, sender, receiver, tx, sigma,
                                   model_seed):
        """Nothing outside max_audible_range_m can clear the threshold.

        This is the inequality the whole grid index rests on: a cell
        neighborhood sized by this range is a *superset* of the audible
        set, whatever the shadowing draw.
        """
        threshold = -100.0
        model = LogDistanceModel(shadowing_sigma_db=sigma, seed=model_seed)
        if math.dist(sender, receiver) > model.max_audible_range_m(
                tx, threshold):
            assert link_rssi(model, sender, receiver, tx) < threshold

    @given(sigma=st.floats(0.1, 10.0), model_seed=st.integers(0, 500),
           receiver=points)
    @settings(max_examples=60, deadline=None)
    def test_shadowing_clamped(self, sigma, model_seed, receiver):
        model = LogDistanceModel(shadowing_sigma_db=sigma, seed=model_seed)
        deterministic = LogDistanceModel(shadowing_sigma_db=0.0)
        drawn = link_rssi(model, (0.0, 0.0), receiver, 0.0)
        base = link_rssi(deterministic, (0.0, 0.0), receiver, 0.0)
        assert abs(drawn - base) <= SHADOWING_CLAMP_SIGMA * sigma + 1e-9

    def test_unit_disk_range_is_radius(self):
        model = UnitDiskModel(radius_m=42.0)
        assert model.max_audible_range_m(0.0, -100.0) == 42.0


class TestShadowingOrderIndependence:
    def test_query_order_does_not_matter(self):
        """Per-link draws are hash-derived, not sequential RNG state.

        Two models with the same seed must agree on every link no
        matter which links were evaluated first — the property that
        lets indexed and brute-force media (which evaluate links in
        different orders) produce identical RSSI values.
        """
        forward = LogDistanceModel(shadowing_sigma_db=5.0, seed=9)
        backward = LogDistanceModel(shadowing_sigma_db=5.0, seed=9)
        links = [((0.0, 0.0), (float(k), 10.0)) for k in range(12)]
        a = [link_rssi(forward, s, r, 0.0) for s, r in links]
        b = [link_rssi(backward, s, r, 0.0) for s, r in reversed(links)]
        assert a == list(reversed(b))


class TestShadowingPurity:
    def test_draws_are_pure_and_the_model_keeps_none(self):
        """A draw is a function of ``(seed, link key)`` and nothing else.

        One-row, many-row and re-ordered evaluation — with 10 000 other
        links drawn in between — agree to the last bit, and afterwards
        the model holds what it held before the first link: no per-link
        state to bound, evict or invalidate.
        """
        model = LogDistanceModel(shadowing_sigma_db=4.0, seed=3)
        attributes = sorted(vars(model))
        a = (0.0, 0.0)
        near = [(12.0 + k, 5.0) for k in range(40)]
        shadow = [shadowing_db(model, a, b).hex() for b in near]
        alone = [link_rssi(model, a, b, 0.0).hex() for b in near]
        together = [v.hex() for v in rssi_call(model, a, near, 0.0)]
        assert together == alone

        far = [(float(k % 100), 100.0 + k // 100) for k in range(10_000)]
        assert len({v.hex() for v in rssi_call(model, a, far, 0.0)}) > 9_000

        assert [shadowing_db(model, b, a).hex()
                for b in reversed(near)] == shadow[::-1]
        assert [link_rssi(model, a, b, 0.0).hex()
                for b in reversed(near)] == alone[::-1]
        assert [v.hex() for v in rssi_call(model, a, near[::-1], 0.0)] \
            == together[::-1]
        # Same attributes as before the first link, none of them a
        # container a link could have been put in.
        assert sorted(vars(model)) == attributes
        assert not any(hasattr(value, "__len__")
                       for value in vars(model).values())


#: Coordinates a bit-pattern key could get wrong: both zeros, ints,
#: negatives, values that differ in the last bit.
awkward = st.one_of(
    st.sampled_from([0.0, -0.0, 0, 7, -7, 7.0, math.nextafter(7.0, 8.0)]),
    st.floats(-500.0, 500.0, allow_nan=False))
awkward_points = st.tuples(awkward, awkward)


class TestCounterBasedDraw:
    """The draw is a hash of ``(seed, the two positions)``: what that
    buys (symmetry, order- and company-freedom, portability) and what a
    key made of float *bits* must not get wrong."""

    @given(a=awkward_points, b=awkward_points,
           model_seed=st.integers(-2**70, 2**70),
           sigma=st.floats(0.1, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_clamped_on_any_pair(self, a, b, model_seed, sigma):
        model = LogDistanceModel(shadowing_sigma_db=sigma, seed=model_seed)
        draw = shadowing_db(model, a, b)
        assert draw.hex() == shadowing_db(model, b, a).hex()
        assert abs(draw) <= SHADOWING_CLAMP_SIGMA * sigma

    @given(x=st.integers(-3, 3), y=st.integers(-3, 3), other=points)
    @settings(max_examples=60, deadline=None)
    def test_equal_positions_draw_equal_values(self, x, y, other):
        """``-0.0 == 0.0`` and ``7 == 7.0``: one radio, one key."""
        model = LogDistanceModel(shadowing_sigma_db=4.0, seed=1)

        def minus(v):
            return -0.0 if v == 0 else float(v)

        as_float = shadowing_db(model, (float(x), float(y)), other)
        assert shadowing_db(model, (x, y), other) == as_float
        assert shadowing_db(model, (minus(x), minus(y)), other) == as_float
        assert rssi_call(model, other, [(minus(x), y)] * 9, 0.0) \
            == [link_rssi(model, (float(x), float(y)), other, 0.0)] * 9

    def test_a_radio_on_an_axis_has_symmetric_links(self):
        model = LogDistanceModel(shadowing_sigma_db=4.0, seed=1)
        near = [(float(k), 3.0) for k in range(1, 13)]
        for origin in ((0.0, -0.0), (-0.0, 0.0), (0, 0)):
            assert rssi_call(model, origin, near, 0.0) \
                == rssi_call(model, (0.0, 0.0), near, 0.0) \
                == [link_rssi(model, r, origin, 0.0) for r in near]

    @given(sender=awkward_points,
           receivers=st.lists(awkward_points, min_size=1, max_size=40,
                              unique=True),
           company=st.lists(awkward_points, max_size=40),
           order=st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_value_is_free_of_batch_company_and_order(self, sender, receivers,
                                                      company, order):
        model = LogDistanceModel(shadowing_sigma_db=3.0, seed=11)
        alone = dict(zip(receivers,
                         rssi_call(model, sender, receivers, 0.0)))
        mixed = receivers + company
        order.shuffle(mixed)
        for r, rssi in zip(mixed, rssi_call(model, sender, mixed, 0.0)):
            if r in alone:
                assert rssi.hex() == alone[r].hex()
                assert rssi.hex() == link_rssi(model, r, sender, 0.0).hex()

    def test_moments_and_seed_independence_over_1e5_links(self, monkeypatch):
        """Standard normal to sampling error, on the coordinates
        topologies actually produce (a lattice: mantissas mostly
        zeros) as on scattered ones; two seeds share nothing."""
        lattice = [(float(x), float(y))
                   for x in range(1, 401) for y in range(1, 251)]
        spread = np.random.default_rng(3).uniform(0.0, 3000.0, (100_000, 2))
        monkeypatch.setattr(propagation, "REFERENCE_LOSS_DB", 0.0)
        for points_ in (lattice, [tuple(p) for p in spread.tolist()]):
            draws = []
            for model_seed in (2018, 2019):
                model = LogDistanceModel(shadowing_sigma_db=1.0,
                                         path_loss_exponent=0.0,
                                         seed=model_seed)
                draws.append(np.array(
                    rssi_call(model, (0.5, 0.5), points_, 0.0)))
            for sample in draws:
                assert abs(sample.mean()) < 0.02
                assert abs(sample.std() - 1.0) < 0.01
                assert np.abs(sample).max() <= SHADOWING_CLAMP_SIGMA
            assert abs(np.corrcoef(draws[0], draws[1])[0, 1]) < 0.01
            # Neighbouring links (next lattice point) share nothing either.
            assert abs(np.corrcoef(draws[0][:-1], draws[0][1:])[0, 1]) < 0.01


def reference_rssi(model, sender, receivers, tx_power_dbm):
    """``LogDistanceModel.rssi_dbm`` as one fresh array per step, the
    formulation the in-place one replaced: the bits it must keep."""
    arr = np.array(receivers, dtype=float).reshape(-1, 2)
    dx = arr[:, 0] - sender[0]
    dy = arr[:, 1] - sender[1]
    d = np.maximum(np.sqrt(dx * dx + dy * dy), 1.0)
    path_loss = (propagation.REFERENCE_LOSS_DB
                 + 10.0 * model.path_loss_exponent * np.log10(d))
    bits = (arr + 0.0).view(np.uint64)
    # mix64's operators wrap the same way on a uint64 array.
    words = mix64(bits[:, 0]) + bits[:, 1]
    a = _point_word(sender)
    lo, hi = np.minimum(words, a), np.maximum(words, a)
    state = mix64(mix64(model.seed) + lo) + hi + GOLDEN
    u1 = ((mix64(state) >> 11) + 1) * 2.0 ** -53
    u2 = (mix64(state + GOLDEN) >> 11) * 2.0 ** -53
    gauss = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
    clamp = SHADOWING_CLAMP_SIGMA * model.shadowing_sigma_db
    return ((tx_power_dbm - path_loss)
            + np.clip(gauss * model.shadowing_sigma_db, -clamp, clamp)).tolist()


def reference_prr(model, rssi):
    x = (np.array(rssi, dtype=float) - model.sensitivity_dbm) \
        / model.transition_width_db
    prr = 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))
    return np.where(x > 30.0, 1.0, np.where(x < -30.0, 0.0, prr)).tolist()


class TestInPlaceEvaluation:
    """Both evaluations write every step over their input; a reference
    with one fresh array per step pins that no bit moved."""

    @given(sender=awkward_points,
           receivers=st.lists(awkward_points, max_size=120),
           tx=st.one_of(st.just(0.0), st.floats(-25.0, 25.0)),
           sigma=st.one_of(st.just(0.0), st.floats(0.1, 10.0)),
           exponent=st.one_of(st.just(0.0), st.floats(1.0, 5.0)),
           model_seed=st.integers(-2**70, 2**70))
    @settings(max_examples=80, deadline=None)
    def test_bits_equal_a_fresh_array_per_step(self, sender, receivers, tx,
                                                sigma, exponent, model_seed):
        model = LogDistanceModel(path_loss_exponent=exponent,
                                 shadowing_sigma_db=sigma, seed=model_seed)
        rssi = rssi_call(model, sender, receivers, tx)
        assert [v.hex() for v in rssi] == [
            v.hex() for v in reference_rssi(model, sender, receivers, tx)]
        probe = rssi + [-200.0, -165.0, -90.0, -15.0, 40.0]
        assert [v.hex() for v in prr_call(model, probe)] == [
            v.hex() for v in reference_prr(model, probe)]


class TestNonFinitePositions:
    """A NaN would poison the link key (and never equal its own grid
    cell); the radio refuses it where it enters, and a position is set
    only there."""

    @pytest.mark.parametrize("bad", [(math.nan, 0.0), (0.0, math.nan),
                                     (math.inf, 0.0), (0.0, -math.inf)])
    def test_rejected_at_construction_and_on_write(self, bad):
        medium = Medium(Simulator(seed=1), LogDistanceModel(), TraceLog())
        with pytest.raises(PositionError):
            Radio(medium, 1, bad)
        assert 1 not in medium.radios
        radio = Radio(medium, 2, (1.0, 2.0))
        with pytest.raises(AttributeError):
            radio.position = bad
        assert radio.position == (1.0, 2.0)


class TestNonFinitePowers:
    """A NaN or infinite power would size the grid cells and cut the
    sender's disc; the radio refuses it where it enters, like a
    position, and the index keeps the size it had.  A power is set only
    there."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejected_at_construction_and_on_write(self, bad):
        medium = Medium(Simulator(seed=1), LogDistanceModel(), TraceLog())
        size = medium.grid_info()["cell_size_m"]
        with pytest.raises(PowerError):
            Radio(medium, 1, (0.0, 0.0), tx_power_dbm=bad)
        assert 1 not in medium.radios
        radio = Radio(medium, 2, (1.0, 2.0))
        with pytest.raises(AttributeError):
            radio.tx_power_dbm = bad
        assert radio.tx_power_dbm == 0.0
        info = medium.grid_info()
        assert info["spatial_index"] and info["cell_size_m"] == size
        # The index still sizes for a real power attached afterwards.
        loud = Radio(medium, 3, (1.0, 4.0), tx_power_dbm=10.0)
        assert medium.grid_info()["cell_size_m"] > size
        Radio(medium, 4, (40.0, 4.0))
        assert [r.node_id for r, _ in medium.audible_from(loud)] == [2, 4]
