"""Outside-in layer tracer: class-level wrappers around public functions.

The tracer times calls into each layer from the benchmark's own files;
the program itself is not changed. :meth:`LayerTracer.install` replaces
each listed method on its class with a wrapper and
:meth:`LayerTracer.uninstall` puts the original class attribute back.
Install before the farm is built: objects that cache a bound method at
construction (the arrival stream caches ``Gateway.dispatch_span``) would
otherwise keep calling the unwrapped original.

A span stack gives each call its *self* time, the span's duration minus
the time of the wrapped calls nested inside it, so recursion such as
``emit_from_vm -> process_inbound -> emit_from_vm`` is split correctly.
Calls and self time are summed per ``(function, parent layer)`` edge in
memory; individual spans are never stored (the reflected outbreak makes
millions of wrapped calls).

Wall time not covered by any wrapped call, plus the self time of
``Simulator.run`` itself and every garbage-collector pause, is the event
loop's: ``sim.self_ms``. By construction the layer self times then sum
to the traced wall time.
"""

from __future__ import annotations

import gc
import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, class name or "*" for every class of the module that
#: defines the method itself, method names). Layer names are the
#: prefixes of the per-layer metrics.
LAYER_TABLE: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.engine", "Simulator", ("run",)),
    ("workloads", "repro.workloads.telescope", "TelescopeWorkload", ("generate",)),
    ("workloads", "repro.testing.scenario", "Scenario", ("build_trace",)),
    ("gateway", "repro.core.gateway", "Gateway", (
        "process_inbound", "dispatch_batch", "dispatch_span",
        "emit_from_vm", "vm_ready", "receive_intershard",
    )),
    ("flow", "repro.net.flow", "FlowTable", (
        "observe", "observe_keyed", "lookup", "expire_idle",
    )),
    ("containment", "repro.core.containment", "*", ("decide",)),
    ("fidelity", "repro.fidelity.ladder", "FidelityLadder", ("consider",)),
    ("fidelity", "repro.fidelity.emulator", "EmulatedSession", ("emulate",)),
    ("guest", "repro.services.guest", "GuestHost", ("handle_packet",)),
    ("memory", "repro.vmm.memory", "GuestAddressSpace", ("write",)),
    ("memory", "repro.vmm.memory", "SharedFrameStore", ("intern", "exchange")),
    ("farm", "repro.core.flash_clone", "FlashCloneEngine", ("clone",)),
    ("farm", "repro.core.honeyfarm", "Honeyfarm", ("spawn_vm", "deliver")),
    ("farm", "repro.core.reclamation", "*", ("plan",)),
    ("intershard", "repro.core.intershard", "ShardRunner", ("run_epoch", "deposit")),
)


def layers_of(table) -> Tuple[str, ...]:
    """Layer names of ``table``, in order, with ``sim`` always present:
    it receives the wall time no other layer accounts for."""
    return tuple(dict.fromkeys(("sim",) + tuple(row[0] for row in table)))


def functions_of(table) -> Tuple[str, ...]:
    """``layer.method`` for every function ``table`` wraps, in order."""
    return tuple(dict.fromkeys(
        f"{layer}.{method}" for layer, __, __, methods in table for method in methods
    ))


LAYERS = layers_of(LAYER_TABLE)
FUNCTIONS = functions_of(LAYER_TABLE)


@dataclass
class _Site:
    owner: type
    name: str
    original: Callable  # the function found in the class ``__dict__``
    label: str
    layer: str


class LayerTracer:
    """Wraps the methods ``table`` lists; see module docstring.

    After each successful call of a function named in :data:`TALLIES`,
    its tally callback sees the return value, for the ratios that must
    be read where the work happens.
    """

    def __init__(self, table=LAYER_TABLE) -> None:
        self.table = table
        self.edges: Dict[Tuple[str, Optional[str]], List[int]] = {}
        #: Inclusive time of the outermost wrapped calls, per function.
        self.roots: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self.gc_collections = 0
        self.gc_pause_ns = 0
        self._gc_started: Optional[int] = None
        self._stack: List[List[Any]] = []
        self._sites: List[_Site] = []

    # -- installation ---------------------------------------------------- #

    def _resolve(self) -> List[_Site]:
        sites = []
        for layer, module_name, class_name, methods in self.table:
            module = importlib.import_module(module_name)
            if class_name == "*":
                owners = [
                    obj for obj in vars(module).values()
                    if isinstance(obj, type) and obj.__module__ == module.__name__
                ]
            else:
                owners = [getattr(module, class_name)]
            for owner in owners:
                for method in methods:
                    if method in owner.__dict__:
                        sites.append(_Site(
                            owner, method, owner.__dict__[method],
                            f"{layer}.{method}", layer,
                        ))
        return sites

    def install(self) -> None:
        if self._sites:
            raise RuntimeError("tracer already installed")
        self._sites = self._resolve()
        for site in self._sites:
            setattr(site.owner, site.name, self._wrap(site.original, site))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for site in reversed(self._sites):
            setattr(site.owner, site.name, site.original)
        self._sites = []
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay installed)."""
        self.edges.clear()
        self.roots.clear()
        self.counts.clear()
        self.gc_collections = 0
        self.gc_pause_ns = 0

    def _wrap(self, fn: Callable, site: _Site) -> Callable:
        stack = self._stack
        edges = self.edges
        roots = self.roots
        clock = time.perf_counter_ns
        layer = site.layer
        label = site.label
        tally = TALLIES.get(label)
        tracer = self

        def traced(*args, **kwargs):
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    parent_layer = parent[0]
                else:
                    parent_layer = None
                    roots[label] = roots.get(label, 0) + elapsed
                key = (label, parent_layer)
                acc = edges.get(key)
                if acc is None:
                    acc = edges[key] = [0, 0]
                acc[0] += 1
                acc[1] += elapsed - frame[1]
            if tally is not None:
                tally(tracer, result, parent_layer)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", site.name)
        traced.__qualname__ = getattr(fn, "__qualname__", site.name)
        return traced

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        """Count collections and charge each pause to the ``sim`` layer.

        A pause is treated as a child of the span it interrupts, so it
        leaves that span's self time and lands in the event loop's
        remainder: its length depends on the whole live heap, not on the
        function that happened to allocate last.
        """
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
        elif self._gc_started is not None:
            pause = time.perf_counter_ns() - self._gc_started
            self.gc_collections += 1
            self.gc_pause_ns += pause
            self._gc_started = None
            if self._stack:
                self._stack[-1][1] += pause

    # -- results ---------------------------------------------------------- #

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def function_totals(self) -> Dict[str, Tuple[int, int]]:
        """``label -> (calls, self_ns)`` summed over parent layers."""
        totals = {label: [0, 0] for label in functions_of(self.table)}
        for (label, __), (calls, self_ns) in self.edges.items():
            acc = totals[label]
            acc[0] += calls
            acc[1] += self_ns
        return {label: (calls, ns) for label, (calls, ns) in totals.items()}

    def layer_self_ns(self, wall_ns: int) -> Dict[str, int]:
        """Self time per layer. The ``sim`` layer gets the wall time no
        other layer's wrapped calls account for."""
        per_layer = {layer: 0 for layer in layers_of(self.table)}
        for (label, __), (__, self_ns) in self.edges.items():
            per_layer[label.split(".", 1)[0]] += self_ns
        per_layer["sim"] = wall_ns - sum(
            ns for layer, ns in per_layer.items() if layer != "sim"
        )
        return per_layer

    def edge_table(self) -> List[Dict[str, Any]]:
        return [
            {"function": label, "parent": parent, "calls": calls,
             "self_ms": self_ns / 1e6}
            for (label, parent), (calls, self_ns) in sorted(
                self.edges.items(), key=lambda item: -item[1][1]
            )
        ]


def _tally_span(tracer: LayerTracer, result: Any, parent: Optional[str]) -> None:
    tracer.count("span_consumed", result)


def _tally_observe(tracer: LayerTracer, result: Any, parent: Optional[str]) -> None:
    tracer.count("flow_observed")
    if result[1]:
        tracer.count("flow_created")


def _tally_decide(tracer: LayerTracer, result: Any, parent: Optional[str]) -> None:
    if parent == "containment":
        return  # a composite policy's inner verdict; the outer one counts
    tracer.count("verdicts")
    if result.action.name == "REFLECT":
        tracer.count("reflected")


def _tally_replies(tracer: LayerTracer, result: Any, parent: Optional[str]) -> None:
    tracer.count("guest_replies", len(result))


def _tally_records(tracer: LayerTracer, result: Any, parent: Optional[str]) -> None:
    if parent != "workloads":
        tracer.count("records", len(result))


TALLIES = {
    "gateway.dispatch_span": _tally_span,
    "flow.observe_keyed": _tally_observe,
    "containment.decide": _tally_decide,
    "guest.handle_packet": _tally_replies,
    "workloads.generate": _tally_records,
    "workloads.build_trace": _tally_records,
}
