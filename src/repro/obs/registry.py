"""The labeled metrics registry.

A :class:`Registry` keeps plain values in the shape a
:class:`MetricsSnapshot` has, one dict per metric kind, all labeled:

- ``counters`` — monotonically increasing occurrence counts
  (``mac.tx``, ``net.dropped``), written by :meth:`Registry.inc`;
- ``gauges`` — last-written levels (``radio.duty_cycle``), written by
  :meth:`Registry.set`;
- ``histograms`` — full-resolution value series with exact percentiles
  (``net.latency_s``), appended by :meth:`Registry.observe`, whose
  ``exemplar=`` trace ids fill the ``exemplars`` reservoirs.

Histograms are exact on purpose: the ``core`` and ``explain`` gates
(``benchmarks/gates.py``) pin percentiles to the last digit, which no bucketed estimate can
reproduce.

A series is written as ``registry.inc("rpl.dis", node=3)``; the
``(name, sorted label items)`` pair identifies it, and it is absent
until first written.  Counts protocol objects keep are read
(:meth:`Registry.counter_values`).

Determinism is the design center: :meth:`Registry.snapshot` captures a
plain-data :class:`MetricsSnapshot` (picklable, so trial workers can
return one per run).  Trial executors yield results in submission order
regardless of worker scheduling, so the per-trial snapshots of a run
are the same list for every ``jobs`` count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (Any, Callable, ClassVar, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Tuple)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile; NaN on empty input."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    if not values:
        return float("nan")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    index = fraction * (len(ordered) - 1)
    low = int(math.floor(index))
    high = int(math.ceil(index))
    if low == high or ordered[low] == ordered[high]:
        # The equality case also avoids interpolation rounding ever
        # producing a value a few ulps outside [min, max].
        return ordered[low]
    weight = index - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


#: One time-series key: metric name + sorted ``(label, value)`` items.
SeriesKey = Tuple[str, Tuple[Tuple[str, Any], ...]]

#: Frozen exemplar reservoir: ``(cap, ((bucket, ((value, trace), ...)),
#: ...))`` with buckets sorted by index and entries in observation
#: order — plain data, picklable.
ExemplarData = Tuple[int, Tuple[Tuple[int, Tuple[Tuple[float, int], ...]], ...]]


def _series_key(name: str, labels: Dict[str, Any]) -> SeriesKey:
    return name, tuple(sorted(labels.items()))


# ----------------------------------------------------------------------
# strict JSON field readers (the codec's only way to take a value)
# ----------------------------------------------------------------------
#: The label value types a series key may carry: the JSON scalars.
_LABEL_TYPES = (str, int, float, bool, type(None))


def json_number(value: Any, what: str) -> float:
    """``value`` as a float when it is a JSON number (not a bool);
    ``ValueError`` naming ``what`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what}: expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what}: number out of range") from None


def json_int(value: Any, what: str) -> int:
    """``value`` when it is a JSON integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what}: expected an integer, got {type(value).__name__}")
    return value


def json_list(value: Any, what: str) -> List[Any]:
    """``value`` when it is a JSON array."""
    if not isinstance(value, list):
        raise ValueError(f"{what}: expected a list, got {type(value).__name__}")
    return value


# ----------------------------------------------------------------------
# exemplar reservoirs
# ----------------------------------------------------------------------
# Exemplars link histogram values back to the span traces that produced
# them: ``observe(..., exemplar=trace_id)`` keeps the first
# ``EXEMPLARS_PER_BUCKET`` ``(value, trace_id)`` pairs per log-scale
# bucket, so the reservoir spans the value range instead of filling up
# with the common case.
# First-K is the deterministic reservoir policy: observation order is
# seed-determined, so a run's reservoirs are byte-identical for every
# jobs count.
# Exemplars never feed back into the metric values themselves.

#: Reservoir bound: ``(value, trace_id)`` exemplars kept per log bucket
#: per series.  Frozen reservoirs carry it as their ``cap``.
EXEMPLARS_PER_BUCKET = 4

#: Bucket resolution: 8 buckets per decade, edges growing by
#: 10^(1/8) ≈ 1.33×.
_BUCKETS_PER_DECADE = 8
#: Values below 10^-9 (and zero/negative) share the low clamp bucket;
#: values at/above 10^9 share the high clamp bucket.
_LO_IDX = -9 * _BUCKETS_PER_DECADE          # edge 1e-9
_HI_IDX = 9 * _BUCKETS_PER_DECADE           # edge 1e9
_UNDER_IDX = _LO_IDX - 1                    # zero/negative/tiny


def log_bucket(value: float) -> int:
    """Index of the log-scale bucket ``value`` falls in."""
    if value < 1e-9:
        return _UNDER_IDX
    idx = math.floor(math.log10(value) * _BUCKETS_PER_DECADE)
    if idx < _LO_IDX:
        return _UNDER_IDX
    if idx >= _HI_IDX:
        return _HI_IDX
    return idx


class Registry:
    """One run's (or one trial's) metric values, in a snapshot's shape.

    ``counters``, ``gauges``, ``histograms`` and ``exemplars`` are the
    live dicts :meth:`snapshot` copies; a series is absent until it is
    first written.
    """

    def __init__(self) -> None:
        self.counters: Dict[SeriesKey, float] = {}
        self.gauges: Dict[SeriesKey, float] = {}
        self.histograms: Dict[SeriesKey, List[float]] = {}
        #: Per histogram series, the open reservoir: log bucket →
        #: ``(value, trace_id)`` pairs in observation order.
        self.exemplars: Dict[SeriesKey, Dict[int, List[Tuple[float, int]]]] = {}
        # Series keys by *call-site* label order ((name, tuple(labels.items()))),
        # so the hot path skips the per-call sort in _series_key after
        # first touch.  Two orderings of the same labels simply cache
        # the same series key under two call-site keys.
        self._keys: Dict[Tuple[str, Tuple[Tuple[str, Any], ...]], SeriesKey] = {}
        #: Set to the trace log's readers by ``Observability.attach``.
        self.readers: Dict[Any, Callable[[], Iterable[Tuple[SeriesKey, int]]]] = {}

    # ------------------------------------------------------------------
    # writers (the instrumentation hot path)
    # ------------------------------------------------------------------
    # Each inlines the call-site probe: a shared helper costs a call
    # per write.
    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        site = (name, tuple(labels.items()))
        key = self._keys.get(site)
        if key is None:
            key = self._keys[site] = _series_key(name, labels)
        counters = self.counters
        counters[key] = counters.get(key, 0.0) + amount

    def set(self, name: str, value: float, **labels: Any) -> None:
        site = (name, tuple(labels.items()))
        key = self._keys.get(site)
        if key is None:
            key = self._keys[site] = _series_key(name, labels)
        self.gauges[key] = value

    def observe(self, name: str, value: float, exemplar: Optional[int] = None,
                **labels: Any) -> None:
        # ``exemplar`` is an explicit keyword (ahead of **labels) so a
        # trace id is never mistaken for a label dimension.
        site = (name, tuple(labels.items()))
        key = self._keys.get(site)
        if key is None:
            key = self._keys[site] = _series_key(name, labels)
        values = self.histograms.get(key)
        if values is None:
            values = self.histograms[key] = []
        values.append(value)
        if exemplar is not None:
            reservoir = self.exemplars.get(key)
            if reservoir is None:
                reservoir = self.exemplars[key] = {}
            bucket = log_bucket(value)
            entries = reservoir.get(bucket)
            if entries is None:
                entries = reservoir[bucket] = []
            if len(entries) < EXEMPLARS_PER_BUCKET:
                entries.append((value, int(exemplar)))

    def counter_values(self) -> Dict[SeriesKey, float]:
        """Every counter series as a float: pushed counters, then the readers'
        counts summed per key, zeros skipped (a series appears once it occurs)."""
        values = dict(self.counters)
        for reader in self.readers.values():
            for key, count in reader():
                if count:
                    values[key] = values.get(key, 0.0) + count
        return values

    def snapshot(self) -> "MetricsSnapshot":
        """Freeze the registry into plain, picklable data."""
        exemplars = self.exemplars
        return MetricsSnapshot(
            counters=self.counter_values(),
            gauges=dict(self.gauges),
            histograms={k: tuple(v) for k, v in self.histograms.items()},
            # Frozen in the histograms' order, buckets sorted by index.
            exemplars={k: (EXEMPLARS_PER_BUCKET,
                           tuple((idx, tuple(entries))
                                 for idx, entries in sorted(exemplars[k].items())))
                       for k in self.histograms if k in exemplars},
        )


@dataclass
class MetricsSnapshot:
    """A frozen registry: plain dicts keyed by :data:`SeriesKey`.

    Equality is value equality over every series, which is what the
    ``jobs=1`` vs ``jobs=N`` identity tests compare.  A telemetry window
    (:class:`~repro.obs.timeseries.TelemetryWindow`) is one of these for
    a scrape interval, so it shares the readers and the JSON codec.
    """

    counters: Dict[SeriesKey, float] = field(default_factory=dict)
    gauges: Dict[SeriesKey, float] = field(default_factory=dict)
    histograms: Dict[SeriesKey, Tuple[float, ...]] = field(default_factory=dict)
    #: Exemplar reservoirs per histogram series — annotation, never a
    #: metric: `repro diff` and `rows()` ignore it by design.
    exemplars: Dict[SeriesKey, ExemplarData] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def counter_total(self, name: str) -> float:
        return sum(v for (n, _), v in self.counters.items() if n == name)

    def histogram_values(self, name: str) -> List[float]:
        out: List[float] = []
        for key in sorted(self.histograms, key=repr):
            if key[0] == name:
                out.extend(self.histograms[key])
        return out

    def exemplars_for(self, name: str) -> List[Tuple[float, int]]:
        """Every ``(value, trace_id)`` exemplar recorded for ``name``,
        across label sets and buckets, sorted by descending value (ties
        by trace id) — index 0 is the worst case on record."""
        out: List[Tuple[float, int]] = []
        for key in sorted(self.exemplars, key=repr):
            if key[0] == name:
                for _idx, entries in self.exemplars[key][1]:
                    out.extend(entries)
        out.sort(key=lambda entry: (-entry[0], entry[1]))
        return out

    # ------------------------------------------------------------------
    # JSON round trip (the `repro diff` interchange format)
    # ------------------------------------------------------------------
    #: The ``format`` tag :meth:`to_jsonable` writes and
    #: :meth:`from_jsonable` requires.
    FORMAT: ClassVar[str] = "repro.metrics/1"

    def to_jsonable(self) -> Dict[str, Any]:
        """Plain-JSON shape: series listed in deterministic key order.

        Label keys are always strings (they arrive as kwargs); label
        values survive the round trip for JSON scalars (str/int/float/
        bool/null), which is every label the codebase emits.
        """
        def series(mapping: Dict[SeriesKey, Any]) -> List[Dict[str, Any]]:
            out = []
            for key in sorted(mapping, key=repr):
                name, labels = key
                value = mapping[key]
                out.append({"name": name, "labels": dict(labels),
                            "value": list(value) if isinstance(value, tuple) else value})
            return out

        payload = {
            "format": self.FORMAT,
            "counters": series(self.counters),
            "gauges": series(self.gauges),
            "histograms": series(self.histograms),
        }
        if self.exemplars:
            # Additive key: absent unless exemplars were recorded, so
            # pre-exemplar baselines stay byte-identical.
            exemplar_rows = []
            for key in sorted(self.exemplars, key=repr):
                name, labels = key
                cap, buckets = self.exemplars[key]
                exemplar_rows.append({
                    "name": name, "labels": dict(labels), "cap": cap,
                    "buckets": [[idx, [[value, trace] for value, trace in entries]]
                                for idx, entries in buckets],
                })
            payload["exemplars"] = exemplar_rows
        return payload

    @classmethod
    def from_jsonable(cls, payload: Any) -> "MetricsSnapshot":
        """Decode :meth:`to_jsonable`'s shape.

        Any malformed payload — a wrong top-level or entry type, another
        format, a missing or mistyped field, a non-scalar label — raises
        ``ValueError`` and nothing else, so every reader (``repro diff``,
        the gates, ``repro tail``) can report a bad file instead of
        crashing on it.
        """
        if not isinstance(payload, dict):
            raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
        if payload.get("format") != cls.FORMAT:
            raise ValueError(f"not a {cls.FORMAT} payload: "
                             f"format={payload.get('format')!r}")

        def entries(table: str) -> Iterator[Tuple[str, SeriesKey, Dict[str, Any]]]:
            for i, entry in enumerate(json_list(payload.get(table, []), table)):
                where = f"{table}[{i}]"
                if not isinstance(entry, dict):
                    raise ValueError(f"{where}: expected an object")
                name = entry.get("name")
                if not isinstance(name, str):
                    raise ValueError(f"{where}: 'name' must be a string")
                labels = entry.get("labels", {})
                if not isinstance(labels, dict) or not all(
                        isinstance(k, str) and isinstance(v, _LABEL_TYPES)
                        for k, v in labels.items()):
                    raise ValueError(f"{where}: 'labels' must map names to "
                                     f"JSON scalars")
                yield where, (name, tuple(sorted(labels.items()))), entry

        def pair(value: Any, what: str) -> List[Any]:
            if not isinstance(value, list) or len(value) != 2:
                raise ValueError(f"{what}: expected a two-element list")
            return value

        snap = cls()
        for where, key, entry in entries("counters"):
            snap.counters[key] = json_number(entry.get("value"), where)
        for where, key, entry in entries("gauges"):
            snap.gauges[key] = json_number(entry.get("value"), where)
        for where, key, entry in entries("histograms"):
            snap.histograms[key] = tuple(
                json_number(v, where) for v in json_list(entry.get("value"), where))
        for where, key, entry in entries("exemplars"):
            buckets = []
            for bucket in json_list(entry.get("buckets"), where):
                idx, found = pair(bucket, where)
                buckets.append((json_int(idx, where), tuple(
                    (json_number(value, where), json_int(trace, where))
                    for value, trace in (pair(e, where)
                                         for e in json_list(found, where)))))
            snap.exemplars[key] = (json_int(entry.get("cap"), where), tuple(buckets))
        return snap

    def rows(self) -> List[Dict[str, Any]]:
        """Flat, deterministically ordered rows (the CSV export shape)."""
        rows: List[Dict[str, Any]] = []

        def label_str(items: Tuple[Tuple[str, Any], ...]) -> str:
            return ",".join(f"{k}={v}" for k, v in items)

        for key in sorted(self.counters, key=repr):
            rows.append({"kind": "counter", "name": key[0],
                         "labels": label_str(key[1]),
                         "value": self.counters[key]})
        for key in sorted(self.gauges, key=repr):
            rows.append({"kind": "gauge", "name": key[0],
                         "labels": label_str(key[1]),
                         "value": self.gauges[key]})
        for key in sorted(self.histograms, key=repr):
            values = self.histograms[key]
            rows.append({"kind": "histogram", "name": key[0],
                         "labels": label_str(key[1]),
                         "value": sum(values), "count": len(values),
                         "p50": percentile(values, 0.5),
                         "p95": percentile(values, 0.95)})
        return rows
