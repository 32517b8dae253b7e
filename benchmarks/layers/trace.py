"""Outside-in host-time ledger: who spent the timed section's wall time.

For the traced pass only, :class:`LayerTracer` replaces — from outside,
no file under ``src/`` knows — the public methods at each layer's
boundary with timing wrappers, and wraps every callback that crosses
one (kernel events, socket handlers, ``done`` continuations, timer
callbacks, the per-radio / per-MAC ``on_receive`` hooks), attributing it
to the ``repro.<pkg>`` module that defines it.

Each span has a name, a layer, a start, an end and a parent; the spans
of one kernel event share that event's index as trace id.  A span's
*self* time is its duration minus what its child spans cover, so self
times partition the timed section exactly: the root span (layer
``untraced``) keeps whatever no wrapper saw — the ``Simulator.run`` loop
around ``step`` and the benchmark's own glue.  Aggregates per
(layer, function) are kept for the whole run; the first ``max_raw``
raw spans are kept for ``--trace-out``.

What the numbers mean: the wrappers cost ~1-2 us per span, which the
ledger charges partly to the span and partly to its parent, so layers
crossed by many tiny calls read somewhat high; ``trace.overhead_pct``
says by how much the whole run was stretched.  Read shares, not
microseconds, and take end-to-end numbers from untraced runs only.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
import types
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from benchmarks.layers.stats import nearest_rank

#: Ledger rows, in print order: the ``repro`` packages, then the
#: benchmark's own generator/handler code, then the root remainder.
LAYERS: Tuple[str, ...] = (
    "sim", "radio", "net.mac", "net.stack", "net.rpl", "middleware", "crdt",
    "aggregation", "devices", "obs", "checking", "core", "bench", "untraced",
)

_CALLABLE_TYPES = (types.FunctionType, types.MethodType, functools.partial)


def layer_of(module: str) -> str:
    """The ledger layer of a defining module (``bench`` if not repro's)."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "bench"
    if parts[1] == "net":
        sub = parts[2] if len(parts) > 2 else ""
        return {"mac": "net.mac", "rpl": "net.rpl"}.get(sub, "net.stack")
    return parts[1] if parts[1] in LAYERS else "core"


def _boundaries(observed: bool) -> List[Tuple[str, str, Tuple[str, ...], bool]]:
    """``(module, class, methods, takes_callables)`` to wrap.

    The observability plane's entry points are wrapped only when the
    workload switches it on: with tracing off a ``TraceLog.emit`` is a
    counter bump that belongs to the layer calling it, and a wrapper
    there would cost ten times what it measures.
    """
    table = [
        ("repro.sim.kernel", "Simulator", ("step",), False),
        ("repro.sim.kernel", "Simulator", ("schedule", "schedule_at"), True),
        ("repro.sim.timers", "Timer", ("__init__",), True),
        ("repro.sim.timers", "PeriodicTimer", ("__init__",), True),
        ("repro.radio.medium", "Medium",
         ("carrier_busy", "audible_from", "link_prr"), False),
        ("repro.radio.medium", "Medium", ("transmit",), True),
        ("repro.radio.medium", "Radio", ("set_listening", "sleep"), False),
        ("repro.radio.medium", "Radio", ("transmit",), True),
        ("repro.net.mac.base", "MacLayer", ("start", "stop"), False),
        ("repro.net.mac.base", "MacLayer", ("send",), True),
        ("repro.net.stack", "NetworkStack",
         ("send_datagram", "broadcast_control", "unicast_control", "bind"),
         True),
        ("repro.net.stack", "NetworkStack", ("send_local_broadcast",), False),
        ("repro.net.fragmentation", "FragmentationAdapter", ("send",), True),
        ("repro.net.fragmentation", "FragmentationAdapter", ("on_frame",),
         False),
        ("repro.net.rpl.dodag", "RplRouter",
         ("handle_dio", "handle_dis", "handle_dao", "link_feedback"), False),
        ("repro.middleware.coap.transport", "CoapTransport", ("send",), True),
        ("repro.middleware.coap.client", "CoapClient", ("request",), True),
        ("repro.crdt.replication", "CrdtReplica", ("mutate",), True),
        ("repro.crdt.replication", "CrdtReplica", ("absorb",), False),
        ("repro.aggregation.service", "AggregationService", ("run_query",),
         True),
        ("repro.devices.sensors", "Sensor", ("read",), False),
    ]
    if observed:
        table += [
            ("repro.sim.trace", "TraceLog", ("emit",), False),
            ("repro.sim.trace", "TraceLog", ("subscribe",), True),
            ("repro.obs.registry", "Registry", ("inc", "set", "observe"),
             False),
            ("repro.obs.spans", "SpanTracer",
             ("start", "finish", "annotate", "event"), False),
        ]
    return table


#: Instance attributes that hold an upcall into the next layer; a class
#: level descriptor wraps whatever is assigned to them.
_HOOKS = (
    ("repro.radio.medium", "Radio", "on_receive"),
    ("repro.net.mac.base", "MacLayer", "on_receive"),
)


class _Agg:
    """Whole-run aggregate of one (layer, function)."""

    __slots__ = ("layer", "name", "calls", "self_s", "total_s", "true")

    def __init__(self, layer: str, name: str) -> None:
        self.layer = layer
        self.name = name
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        #: Calls that returned ``True`` (CCA busy answers, merges that
        #: changed state): the useful-outcome count at the boundary.
        self.true = 0


class _Hook:
    """Data descriptor shadowing a callback-holding instance attribute.

    The raw value stays in the instance ``__dict__`` under the
    attribute's own name, so deleting the descriptor from the class
    restores plain attribute behaviour on live objects too.
    """

    def __init__(self, tracer: "LayerTracer", attr: str) -> None:
        self.tracer = tracer
        self.attr = attr
        self.shadow = f"_layers_{attr}"

    def __set__(self, obj: Any, value: Any) -> None:
        obj.__dict__[self.attr] = value
        obj.__dict__[self.shadow] = (
            None if value is None else self.tracer.wrap_callback(value))

    def __get__(self, obj: Any, objtype: Any = None) -> Any:
        if obj is None:
            return self
        return obj.__dict__.get(self.shadow)


class LayerTracer:
    """Installs, drives and reads the wall-time ledger of one run."""

    def __init__(self, observed: bool = False, max_raw: int = 10_000) -> None:
        self.observed = observed
        self.max_raw = max_raw
        self.active = False
        self.aggs: Dict[Tuple[str, str], _Agg] = {}
        #: Finished spans ``(id, parent, trace, layer, name, start, end)``.
        self.raw: List[Tuple[int, int, int, str, str, float, float]] = []
        self.step_s = array("d")
        self.spans = 0
        self.wall_s = 0.0
        self._ids = itertools.count(1)
        self._excluded_s = 0.0
        self._stack: List[list] = []
        self._event = 0
        self._installed: List[Tuple[type, str, Any]] = []
        self._root: Optional[list] = None

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def _agg(self, layer: str, name: str) -> _Agg:
        key = (layer, name)
        agg = self.aggs.get(key)
        if agg is None:
            agg = self.aggs[key] = _Agg(layer, name)
        return agg

    def _wrap(self, func: Callable, layer: str, name: str,
              callables: bool, is_step: bool = False) -> Callable:
        agg = self._agg(layer, name)
        tracer = self
        stack = self._stack
        raw = self.raw
        max_raw = self.max_raw
        step_s = self.step_s
        ids = self._ids
        clock = time.perf_counter
        wrap_callback = self.wrap_callback
        callable_types = _CALLABLE_TYPES

        def traced(*args: Any, **kwargs: Any) -> Any:
            if callables:
                # Also outside the timed section: an event scheduled
                # during set-up may fire inside it.
                args = tuple(
                    wrap_callback(a) if type(a) in callable_types else a
                    for a in args)
                for key, value in kwargs.items():
                    if type(value) in callable_types:
                        kwargs[key] = wrap_callback(value)
            if not tracer.active:
                return func(*args, **kwargs)
            span_id = next(ids)
            if is_step:
                tracer._event += 1
            frame = [0.0, span_id]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                del stack[-1]
                duration = end - start
                agg.calls += 1
                agg.total_s += duration
                agg.self_s += duration - frame[0]
                parent[0] += duration
                if is_step:
                    step_s.append(duration)
                if span_id <= max_raw:
                    raw.append((span_id, parent[1], tracer._event, layer,
                                name, start, end))
            if result is True:
                agg.true += 1
            return result

        traced._layers_traced = True  # type: ignore[attr-defined]
        return traced

    def wrap_callback(self, callback: Callable) -> Callable:
        """Wrap a callable crossing a boundary, by its defining module."""
        if getattr(callback, "_layers_traced", False):
            return callback
        func = callback
        while isinstance(func, functools.partial):
            func = func.func
        func = getattr(func, "__func__", func)
        module = getattr(func, "__module__", None) or ""
        name = getattr(func, "__qualname__", type(callback).__name__)
        return self._wrap(callback, layer_of(module), name, callables=False)

    def install(self) -> "LayerTracer":
        """Patch every boundary class.  Call before the system is built."""
        import importlib
        for module, cls_name, methods, callables in _boundaries(self.observed):
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                original = cls.__dict__[method]
                wrapper = self._wrap(
                    original, layer_of(module), f"{cls_name}.{method}",
                    callables, is_step=(method == "step"))
                functools.update_wrapper(wrapper, original)
                self._installed.append((cls, method, original))
                setattr(cls, method, wrapper)
        for module, cls_name, attr in _HOOKS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._installed.append((cls, attr, None))
            setattr(cls, attr, _Hook(self, attr))
        return self

    def uninstall(self) -> None:
        """Put every patched attribute back exactly as it was."""
        for cls, attr, original in reversed(self._installed):
            if original is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)
        self._installed.clear()

    # ------------------------------------------------------------------
    # the timed section
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open the root span; wrappers record from here on."""
        self._root = [0.0, 0]
        self._stack.append(self._root)
        self.active = True
        self._root_start = time.perf_counter()

    def exclude(self, seconds: float) -> None:
        """Take time the caller spent on its own business (sampling the
        host's speed between slices) out of the timed section."""
        self._excluded_s += seconds

    def stop(self) -> None:
        """Close the root span: its self time is the ``untraced`` row."""
        end = time.perf_counter()
        self.active = False
        root = self._stack.pop()
        assert root is self._root and not self._stack, "unbalanced spans"
        self.wall_s = end - self._root_start - self._excluded_s
        self.spans = next(self._ids) - 1
        agg = self._agg("untraced", "timed_section")
        agg.calls += 1
        agg.total_s += self.wall_s
        agg.self_s += self.wall_s - root[0]

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def report(self, top: int = 25) -> Dict[str, Any]:
        """The ledger as plain data (what the child prints)."""
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for agg in self.aggs.values():
            row = layers[agg.layer]
            row["self_s"] += agg.self_s
            row["calls"] += agg.calls
        total = sum(row["self_s"] for row in layers.values())
        steps = sorted(self.step_s)
        ranked = sorted(self.aggs.values(), key=lambda a: -a.self_s)

        by_name = {agg.name: agg for agg in self.aggs.values()}

        def function(name: str) -> Optional[Dict[str, Any]]:
            agg = by_name.get(name)
            if agg is None or not agg.calls:
                return None
            return {"calls": agg.calls, "self_s": agg.self_s,
                    "total_s": agg.total_s, "true": agg.true}

        return {
            "wall_s": self.wall_s,
            "partition_sum_s": total,
            "layers": layers,
            "spans": self.spans,
            "steps": len(steps),
            "step_p50_us": nearest_rank(steps, 50) * 1e6 if steps else None,
            # p99 needs >= 10 samples beyond it.
            "step_p99_us": (nearest_rank(steps, 99) * 1e6
                            if len(steps) >= 1000 else None),
            "functions": {name: function(name) for name in (
                "Medium.transmit", "Medium.carrier_busy", "TraceLog.emit")},
            "top": [[a.layer, a.name, a.calls, a.self_s, a.total_s]
                    for a in ranked[:top]],
        }

    def write_raw(self, path: str) -> None:
        """The first ``max_raw`` spans as JSONL, in finish order."""
        with open(path, "w") as handle:
            for span in self.raw:
                handle.write(json.dumps(dict(zip(
                    ("id", "parent", "trace", "layer", "name", "start", "end"),
                    span))) + "\n")
