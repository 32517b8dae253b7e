"""The one metrics codec: ``MetricsSnapshot.to_jsonable``/``from_jsonable``.

Snapshots, telemetry windows (the same codec plus an
``index``/``start``/``end`` header) and the attribution tables ``repro
diff`` reads all decode through it, and a malformed payload of any of
them raises ``ValueError`` and nothing else — so ``repro diff`` and
``benchmarks/gates.py`` exit 2 on a bad file instead of crashing.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.analysis import EXPLAIN_FORMAT
from repro.obs.diff import diff_main, snapshot_of
from repro.obs.registry import MetricsSnapshot, Registry
from repro.obs.timeseries import TelemetryWindow

METRICS = MetricsSnapshot.FORMAT

#: One malformed payload per way a naive decoder fails other than with
#: ``ValueError`` (an AttributeError or TypeError would make ``repro
#: diff`` exit 1, "a series moved", instead of 2).
MALFORMED = {
    "top-level list": [1],
    "counters not a list": {"format": METRICS, "counters": 5},
    "list-valued value": {"format": METRICS, "counters": [
        {"name": "net.sent", "labels": {}, "value": [1]}]},
    "list-valued label": {"format": METRICS, "counters": [
        {"name": "net.sent", "labels": {"node": [1]}, "value": 1}]},
    "explain layers a list": {"format": EXPLAIN_FORMAT, "total_s": 1.0,
                              "layers": []},
}


class TestMalformedPayloads:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_decoding_raises_value_error(self, name):
        with pytest.raises(ValueError):
            snapshot_of(MALFORMED[name])

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_repro_diff_exits_two(self, name, tmp_path, capsys):
        registry = Registry()
        registry.inc("net.sent", node=1)
        ok, bad = tmp_path / "ok.json", tmp_path / "bad.json"
        ok.write_text(json.dumps(registry.snapshot().to_jsonable()))
        bad.write_text(json.dumps(MALFORMED[name]))
        assert diff_main([str(ok), str(bad)]) == 2
        assert capsys.readouterr().out.startswith("error: ")

    @pytest.mark.parametrize("payload", [
        {"format": METRICS, "counters": [{"name": 3, "value": 1}]},
        {"format": METRICS, "counters": [{"name": "x"}]},
        {"format": METRICS, "gauges": [{"name": "x", "value": True}]},
        {"format": METRICS, "gauges": [{"name": "x", "value": 10 ** 400}]},
        {"format": METRICS, "histograms": [{"name": "x", "value": 1.0}]},
        {"format": METRICS, "exemplars": [{"name": "x", "cap": 4,
                                           "buckets": [[1, [[0.5]]]]}]},
        {"format": METRICS, "exemplars": [{"name": "x", "cap": 4.0,
                                           "buckets": []}]},
        {"format": EXPLAIN_FORMAT, "total_s": "1", "layers": {}},
        {"format": EXPLAIN_FORMAT, "total_s": 1.0,
         "layers": {"mac": {"seconds": 1.0}}},
    ])
    def test_missing_or_mistyped_fields_raise_value_error(self, payload):
        with pytest.raises(ValueError):
            snapshot_of(payload)

    def test_window_header_is_checked(self):
        payload = TelemetryWindow(index=1, start=0.0, end=1.0).to_jsonable()
        for field, value in (("index", 1.5), ("start", None), ("end", "1")):
            with pytest.raises(ValueError, match=field):
                TelemetryWindow.from_jsonable(dict(payload, **{field: value}))


# ----------------------------------------------------------------------
# fuzzing
# ----------------------------------------------------------------------
_numbers = st.floats(allow_nan=False)
_label_values = (st.text(max_size=3) | st.integers() | _numbers
                 | st.booleans() | st.none())
_keys = st.tuples(
    st.text(max_size=6),
    st.dictionaries(st.text(max_size=3), _label_values, max_size=3)
    .map(lambda labels: tuple(sorted(labels.items()))))
_exemplar_data = st.tuples(
    st.integers(0, 8),
    st.lists(st.tuples(st.integers(-80, 80),
                       st.lists(st.tuples(_numbers, st.integers()),
                                max_size=3).map(tuple)),
             max_size=3).map(tuple))
_series = dict(
    counters=st.dictionaries(_keys, _numbers, max_size=4),
    gauges=st.dictionaries(_keys, _numbers, max_size=4),
    histograms=st.dictionaries(_keys, st.lists(_numbers, max_size=4).map(tuple),
                               max_size=4),
    exemplars=st.dictionaries(_keys, _exemplar_data, max_size=3),
)
_snapshots = st.builds(MetricsSnapshot, **_series)
_windows = st.builds(TelemetryWindow, index=st.integers(), start=_numbers,
                     end=_numbers, **_series)

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)
_entry_like = st.dictionaries(
    st.sampled_from(["name", "labels", "value", "cap", "buckets"]), _json,
    max_size=5)
_snapshot_like = st.builds(
    lambda fmt, tables, header: {**header, **tables, "format": fmt},
    st.sampled_from([METRICS, TelemetryWindow.FORMAT, EXPLAIN_FORMAT]) | _json,
    st.dictionaries(st.sampled_from(["counters", "gauges", "histograms",
                                     "exemplars", "layers"]),
                    st.lists(_entry_like, max_size=3) | _json, max_size=4),
    st.dictionaries(st.sampled_from(["index", "start", "end", "total_s"]),
                    _json, max_size=3))


@st.composite
def _corrupted_payloads(draw):
    """A valid snapshot's or window's payload with one field replaced or
    dropped: a top-level field, or one field of one series entry."""
    payload = json.loads(json.dumps(draw(_snapshots | _windows).to_jsonable()))
    target = payload
    entries = [entry for table in ("counters", "gauges", "histograms",
                                   "exemplars")
               for entry in payload.get(table, [])]
    if entries and draw(st.booleans()):
        target = draw(st.sampled_from(entries))
    key = draw(st.sampled_from(sorted(target)))
    if draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(_json)
    return payload


def _decodes_or_raises_value_error(decode, payload):
    try:
        decoded = decode(payload)
    except ValueError:
        return
    assert isinstance(decoded, MetricsSnapshot)


class TestFuzzedCodec:
    @settings(max_examples=150, deadline=None)
    @given(_snapshots)
    def test_snapshot_round_trip_is_identity(self, snapshot):
        payload = json.loads(json.dumps(snapshot.to_jsonable()))
        assert MetricsSnapshot.from_jsonable(payload) == snapshot

    @settings(max_examples=150, deadline=None)
    @given(_windows)
    def test_window_round_trip_is_identity(self, window):
        payload = json.loads(json.dumps(window.to_jsonable()))
        assert TelemetryWindow.from_jsonable(payload) == window

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_json, _snapshot_like, _corrupted_payloads()))
    def test_any_json_decodes_or_raises_value_error(self, payload):
        _decodes_or_raises_value_error(snapshot_of, payload)
        _decodes_or_raises_value_error(MetricsSnapshot.from_jsonable, payload)
        _decodes_or_raises_value_error(TelemetryWindow.from_jsonable, payload)
