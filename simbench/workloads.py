"""The benchmark's workloads: one driver call each, with its output checks.

Every workload goes through an application's public driver with
validation on, so a timed run always ends in a bit-exact comparison with
the pure-Python reference.  The inputs are fixed formulas inside the apps
(``initial_grid``, ``bench_value``, ``rhs_value``); there is no workload
seed to pass.  The modelled caches start empty in every call, because
every call builds a fresh system.
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass

from hostclock import HostClock, Reading
from layertrace import LAYERS, patched
from repro.apps.cg import CgParams, run_cg
from repro.apps.collective_bench import CollectiveBenchParams, run_collective_bench
from repro.apps.jacobi import JacobiParams, run_jacobi
from repro.system.config import SystemConfig
from repro.system.medea import MedeaSystem
from repro.telemetry.config import TelemetryConfig


@dataclass(frozen=True)
class Spec:
    """A workload's driver call, its recorded outputs and its layers.

    ``sim_cycles`` (and ``overlap_efficiency`` when set) are the goldens
    every call is checked against.  ``bypasses`` names the layers the
    workload never calls; every other layer must be called at least once.
    """

    driver: Callable
    config: SystemConfig
    params: object
    sim_cycles: int
    bypasses: tuple[str, ...]
    overlap_efficiency: float | None = None

    @property
    def drives(self) -> tuple[str, ...]:
        return tuple(layer for layer in LAYERS if layer not in self.bypasses)


SPECS: dict[str, Spec] = {
    # Shared memory: the MPMMU-bound write-through point (mem_stall 78%,
    # MPMMU busy 80%).
    "jacobi-wt": Spec(
        run_jacobi,
        SystemConfig(n_workers=8, cache_size_kb=16, cache_policy="wt"),
        JacobiParams(n=30, iterations=4, warmup=1, model="hybrid_full"),
        sim_cycles=232017,
        bypasses=("dma", "telemetry"),
    ),
    # Message passing: a DMA ring that saturates the deflection fabric.
    "allreduce-ring": Spec(
        run_collective_bench,
        SystemConfig(n_workers=8, cache_size_kb=16, dma_tx_queue_depth=4),
        CollectiveBenchParams(
            collective="allreduce", model="empi", algorithm="ring",
            n_values=256, repeats=8,
        ),
        sim_cycles=13248,
        bypasses=("cache", "mpmmu", "telemetry"),
    ),
    # Compute: overlapped CG over slow chiplet links, telemetry armed.
    "cg-chiplet": Spec(
        run_cg,
        SystemConfig(
            n_workers=16, cache_size_kb=16, topology_kind="chiplet",
            chiplets=4, chiplet_grid=(2, 2),
            chiplet_link_latency=4, chiplet_link_width=2,
            telemetry=TelemetryConfig(attribution=True),
        ),
        CgParams(
            n=128, iterations=30, model="empi", algorithm="tree", overlap=True,
        ),
        sim_cycles=116746,
        bypasses=("dma",),
        overlap_efficiency=0.9595231939580542,
    ),
}


class CheckFailed(Exception):
    """A driver returned, but its output is not the recorded one."""


@dataclass
class Call:
    """One closed-loop driver call, timed and checked.

    ``start`` and ``end`` are host-clock readings around the driver call,
    ``enter`` and ``exit`` around ``MedeaSystem.run``.  The samples pair
    an interval's seconds, less the ticks' time, with its mean tick, for
    ``hostclock.at_ref``.
    """

    start: Reading
    enter: Reading
    exit: Reading
    end: Reading
    sim_cycles: int
    system: MedeaSystem | None
    result: object

    @property
    def raw_wall_s(self) -> float:
        return self.start.net_s(self.end)

    @property
    def wall_sample(self) -> tuple[float, float]:
        return self.raw_wall_s, self.start.mean_tick_s(self.end)

    @property
    def run_sample(self) -> tuple[float, float]:
        return self.enter.net_s(self.exit), self.enter.mean_tick_s(self.exit)


class SetupDone(Exception):
    """Raised at the entry of ``MedeaSystem.run`` to end a set-up-only call."""


class RunClock:
    """Host-clock readings at the entry and exit of the latest
    ``MedeaSystem.run``.

    The only hook the untraced run needs: set-up is the time from the
    driver call to ``run``'s entry (system build plus program load), and
    simulator throughput is timed over ``run`` itself.  With
    ``setup_only`` set, ``run`` raises :class:`SetupDone` on entry
    instead of simulating.
    """

    def __init__(self, host: HostClock) -> None:
        self.host = host
        self.enter = self.exit = host.read()
        self.system: MedeaSystem | None = None
        self.setup_only = False

    @contextmanager
    def installed(self):
        original = MedeaSystem.run
        clock = self

        def run(system, *args, **kwargs):
            clock.system = system
            clock.enter = clock.host.read()
            if clock.setup_only:
                raise SetupDone
            try:
                return original(system, *args, **kwargs)
            finally:
                clock.exit = clock.host.read()

        with patched(MedeaSystem, "run", run):
            yield self


class Workload:
    """A named driver call plus the outputs recorded for it."""

    def __init__(self, name: str) -> None:
        if name not in SPECS:
            raise KeyError(
                f"unknown workload {name!r}; use one of {', '.join(SPECS)}"
            )
        self.name = name
        self.spec = SPECS[name]

    def call(self, clock: RunClock) -> Call:
        """Run the driver once and check its output; raises on a miss."""
        spec = self.spec
        start = clock.host.read()
        result = spec.driver(spec.config, spec.params)
        self.check(result)
        end = clock.host.read()
        return Call(
            start=start,
            enter=clock.enter,
            exit=clock.exit,
            end=end,
            sim_cycles=result.total_cycles,
            system=clock.system,
            result=result,
        )

    def setup(self, clock: RunClock) -> tuple[Reading, Reading]:
        """Run the driver up to the entry of ``MedeaSystem.run`` and
        return the readings at its start and there."""
        spec = self.spec
        start = clock.host.read()
        clock.setup_only = True
        try:
            spec.driver(spec.config, spec.params)
        except SetupDone:
            return start, clock.enter
        finally:
            clock.setup_only = False
            clock.system = None
        raise RuntimeError(f"{self.name}: the driver never reached MedeaSystem.run")

    def check(self, result) -> None:
        """Raise :class:`CheckFailed` unless the output is the recorded one."""
        spec = self.spec
        if not result.validated:
            raise CheckFailed(f"{self.name}: result differs from the reference")
        if result.total_cycles != spec.sim_cycles:
            raise CheckFailed(
                f"{self.name}: sim_cycles {result.total_cycles} != recorded "
                f"{spec.sim_cycles}"
            )
        if (
            spec.overlap_efficiency is not None
            and result.overlap_efficiency != spec.overlap_efficiency
        ):
            raise CheckFailed(
                f"{self.name}: overlap efficiency {result.overlap_efficiency!r} "
                f"!= recorded {spec.overlap_efficiency!r}"
            )


def check_layers(name: str, calls: dict[str, int]) -> None:
    """Raise :class:`CheckFailed` unless ``calls`` (layer -> traced calls)
    reaches exactly the layers workload ``name`` drives.

    A layer that stops going through its wrapped boundary reads 0 calls
    here, so this is what catches a boundary the tracer no longer sees.
    """
    spec = SPECS[name]
    silent = [layer for layer in spec.drives if not calls[layer]]
    reached = [layer for layer in spec.bypasses if calls[layer]]
    if silent or reached:
        raise CheckFailed(
            f"{name}: driven layers with no calls {silent}, bypassed layers "
            f"with calls {reached}"
        )
