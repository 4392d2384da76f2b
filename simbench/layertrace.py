"""Per-layer host-time spans, recorded from outside the simulator.

Every layer is a set of public calls; :class:`LayerTracer` replaces each
of them, at class level, with a wrapper that opens a span on entry and
closes it on exit.  Spans nest: a span's *self* time is its duration
minus the durations of the spans opened while it was the innermost one.
Times are integer ``perf_counter_ns`` readings, so the self times of all
layers sum exactly to the duration of the root span.

The wrappers are installed before any system is built, so bound methods
that components cache at construction already point at them.  Program
generators are reached through a proxy that :meth:`ProcessorNode.load_program`
installs (``run_cg`` loads its programs before calling ``observer``, so
an observer cannot do it).
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from contextlib import ExitStack, contextmanager
from pathlib import Path

from repro.apps import cg as cg_app
from repro.apps import collective_bench as collective_app
from repro.apps.jacobi import driver as jacobi_driver
from repro.bridge.arbiter import NocAccessArbiter
from repro.bridge.pif2noc import Pif2NocBridge
from repro.cache.l1 import L1Cache
from repro.dma.engine import DmaTxEngine
from repro.kernel.simulator import Simulator
from repro.kernel.trace import Tracer
from repro.mpmmu.mpmmu import MpmmuNode
from repro.noc.network import NocFabric
from repro.pe.processor import ProcessorNode
from repro.pe.tie import TieInterface
from repro.system.medea import MedeaSystem
from repro.telemetry import attribution
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.registry import TelemetrySampler

#: The root span: one workload run, driver call plus output checks.  Its
#: self time is the part of the run no layer below accounts for.
ROOT = "apps"
#: Program generators' ``send`` (application code plus the eMPI library).
EMPI = "empi"
#: Spans kept verbatim for :meth:`LayerTracer.write_spans`.  A traced
#: jacobi-wt call opens millions of spans; keeping all of them would cost
#: hundreds of megabytes.
SPANS_KEPT = 100_000


def public_methods(cls: type) -> list[tuple[object, str]]:
    """``(cls, name)`` for every public plain method ``cls`` defines."""
    return [
        (cls, name)
        for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


#: Layer name -> the calls that make up its boundary.  Names follow the
#: modules under ``src/repro``.
LAYER_CALLS: dict[str, list[tuple[object, str]]] = {
    "system.build": [(MedeaSystem, "__init__")],
    "kernel": [(MedeaSystem, "run"), (Simulator, "run")],
    "noc": [(NocFabric, "step")],
    "pe": [(ProcessorNode, "step")],
    "cache": public_methods(L1Cache),
    "bridge": public_methods(Pif2NocBridge) + public_methods(NocAccessArbiter),
    "pe.tie": public_methods(TieInterface),
    "dma": public_methods(DmaTxEngine),
    "mpmmu": [(MpmmuNode, "step")],
    "telemetry": [
        (TelemetrySampler, "step"),
        (TelemetryHub, "emit"),
        (TelemetryHub, "finalize"),
        (Tracer, "emit"),
        (attribution, "attribution_summary"),
    ],
    # The post-run reference checks inside each driver.
    "apps.validate": [
        (jacobi_driver, "jacobi_reference"),
        (jacobi_driver, "extract_grid"),
        (collective_app, "_expected"),
        (cg_app, "reference_cg"),
    ],
}

LAYERS: tuple[str, ...] = (ROOT, *LAYER_CALLS, EMPI)


@contextmanager
def patched(owner: object, name: str, replacement):
    """Set ``owner.name`` to ``replacement`` for the ``with`` block."""
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield original
    finally:
        setattr(owner, name, original)


class LayerTracer:
    """Span recorder with exact online self-time totals.

    Every span is counted and charged; the first :data:`SPANS_KEPT` spans
    are also kept verbatim (id, parent id, name, start, end) for
    :meth:`write_spans`.  A span's name is its boundary, ``Owner.method``.
    """

    def __init__(self) -> None:
        self.layer_index = {layer: i for i, layer in enumerate(LAYERS)}
        self.self_ns = [0] * len(LAYERS)
        #: Span names ("Owner.method"), their layers and their call counts.
        self.boundaries: list[str] = []
        self.boundary_layers: list[str] = []
        self.boundary_calls: list[int] = []
        self.n_spans = 0
        self._ids = array("q")
        self._parents = array("q")
        self._names = array("H")
        self._starts = array("q")
        self._ends = array("q")
        # Open spans, innermost last: [span id, start ns, child ns].
        self._stack: list[list[int]] = []

    def _boundary_id(self, boundary: str, layer: str) -> int:
        if boundary not in self.boundaries:
            self.boundaries.append(boundary)
            self.boundary_layers.append(layer)
            self.boundary_calls.append(0)
        return self.boundaries.index(boundary)

    def wrap(self, layer: str, fn, boundary: str):
        """Return ``fn`` wrapped in a span of ``layer`` named ``boundary``."""
        index = self.layer_index[layer]
        name = self._boundary_id(boundary, layer)
        calls = self.boundary_calls
        clock = time.perf_counter_ns
        stack = self._stack
        self_ns = self.self_ns
        ids, parents, names = self._ids, self._parents, self._names
        starts, ends = self._starts, self._ends
        tracer = self

        def span(*args, **kwargs):
            span_id = tracer.n_spans
            tracer.n_spans = span_id + 1
            frame = [span_id, clock(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self_ns[index] += duration - frame[2]
                calls[name] += 1
                if stack:
                    stack[-1][2] += duration
                if span_id < SPANS_KEPT:
                    ids.append(span_id)
                    parents.append(stack[-1][0] if stack else -1)
                    names.append(name)
                    starts.append(frame[1])
                    ends.append(end)

        return span

    @contextmanager
    def installed(self):
        """Wrap every layer boundary for the ``with`` block."""
        tracer = self

        class ProgramProxy:
            __slots__ = ("send",)

            def __init__(self, program) -> None:
                self.send = tracer.wrap(EMPI, program.send, "program.send")

        def load_program(node, program):
            if hasattr(program, "send"):
                program = ProgramProxy(program)
            return original_load(node, program)

        original_load = ProcessorNode.load_program
        with ExitStack() as stack:
            for layer, calls in LAYER_CALLS.items():
                for owner, name in calls:
                    owner_name = getattr(owner, "__qualname__", owner.__name__)
                    span = self.wrap(
                        layer, getattr(owner, name), f"{owner_name}.{name}"
                    )
                    stack.enter_context(patched(owner, name, span))
            stack.enter_context(patched(ProcessorNode, "load_program", load_program))
            yield self

    def run_root(self, fn):
        """Call ``fn()`` inside the root span; returns its result."""
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        return self.wrap(ROOT, fn, "workload.call")()

    # -- results ---------------------------------------------------------------

    def wall_seconds(self) -> float:
        """Duration of the root spans: the layers' self times telescope
        to it, with the root layer holding the untimed remainder."""
        return sum(self.self_ns) / 1e9

    def self_seconds(self) -> dict[str, float]:
        return {
            layer: self.self_ns[i] / 1e9 for layer, i in self.layer_index.items()
        }

    def call_counts(self) -> dict[str, int]:
        """Calls per layer: the sum over the layer's boundaries."""
        counts = dict.fromkeys(LAYERS, 0)
        for layer, n in zip(self.boundary_layers, self.boundary_calls):
            counts[layer] += n
        return counts

    def boundary_counts(self) -> dict[str, int]:
        return dict(zip(self.boundaries, self.boundary_calls))

    def write_spans(self, path: Path) -> None:
        """Write the kept spans and the per-layer totals as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "self_ns": dict(zip(LAYERS, self.self_ns)),
            "names": self.boundaries,
            "name_layers": self.boundary_layers,
            "calls": self.boundary_calls,
            "spans_total": self.n_spans,
            "spans_kept": len(self._ids),
            "columns": ["id", "parent", "name", "start_ns", "end_ns"],
            "spans": [
                list(row)
                for row in zip(
                    self._ids, self._parents, self._names,
                    self._starts, self._ends,
                )
            ],
        }
        path.write_text(json.dumps(document, separators=(",", ":")) + "\n")

