"""The repo benchmark: simulator throughput on three named workloads.

Run from the repository root::

    python3 simbench/run.py --workload jacobi-wt --seed 1 --seconds 40 --trace 0

The load is a closed loop: one client in this process calls the
workload's driver, waits for the validated result, and calls again until
``--seconds`` have passed; after each call it times a batch of set-ups
alone.  ``--trace 0`` reports the end-to-end metrics as medians over
those calls and set-ups, with every time in reference seconds: raw
seconds moved to a fixed host speed along a slope fitted to the run,
the speed being sampled during each call (see ``hostclock.py``).
``--trace 1`` times a few untraced calls, then makes one call with a
span around every layer boundary (see ``layertrace.py``) and reports
per-layer self time and work counts; the spans go to
``.bench_out/<workload>-spans.json``.

The workloads' inputs are fixed formulas inside the apps, so ``--seed``
does not change them; it is accepted and echoed for the record.  The
last line of standard output is one JSON object; the lines before it
are the same figures for humans.  The exit code is 0 only when every
call returned the recorded outputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from functools import partial
from pathlib import Path

from hostclock import REF_TICK_S, HostClock, at_ref, fitted_slope

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Untraced calls per run, at least, whatever ``--seconds`` says.
MIN_CALLS = 3
#: Set-up-only calls after each untraced call: ``setup_s`` is their median.
SETUPS_PER_CALL = 8

END_TO_END_UNITS = {
    "sim_cycles_per_s": "cycles/s",
    "wall_s": "s",
    "setup_s": "s",
    "sim_cycles": "cycles",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_fingerprint() -> str:
    return (
        f"{platform.system()}-{platform.release()}-{platform.machine()} "
        f"nproc={os.cpu_count()} "
        f"python={platform.python_version()}"
    )


class Loop:
    """Closed-loop driver calls, each followed by :data:`SETUPS_PER_CALL`
    set-up-only calls; an attempt that raises counts as failed."""

    def __init__(self, workload, clock) -> None:
        self.workload = workload
        self.clock = clock
        self.calls = []
        #: (seconds, mean tick) of every set-up-only call.
        self.setups: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0

    def _attempt(self, fn):
        # Start every attempt from a clean heap: the previous call's
        # machine is cyclic garbage, and collecting it inside the next
        # timed call swung that call's throughput by up to 30% and a
        # set-up's time by up to 5x.
        gc.collect()
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def call(self, tracer=None):
        """One driver call, inside ``tracer``'s root span when given."""
        if tracer is None:
            call = self._attempt(partial(self.workload.call, self.clock))
        else:
            call = self._attempt(partial(
                tracer.run_root, partial(self.workload.call, self.clock)
            ))
        if call is not None:
            self.calls.append(call)
        return call

    def setup_batch(self) -> None:
        """Time :data:`SETUPS_PER_CALL` set-ups, each paired with the
        batch's mean tick (one set-up alone holds too few ticks)."""
        host = self.clock.host
        first = host.read()
        spans = [
            self._attempt(partial(self.workload.setup, self.clock))
            for _ in range(SETUPS_PER_CALL)
        ]
        tick_s = first.mean_tick_s(host.read())
        self.setups += [
            (start.net_s(enter), tick_s) for start, enter in filter(None, spans)
        ]

    def until(self, deadline: float, minimum: int) -> None:
        """Call until ``deadline``, and at least ``minimum`` times."""
        n_calls = 0
        while n_calls < minimum or time.perf_counter() < deadline:
            n_calls += 1
            if self.call() is not None:
                # Keep the figures, not the machine.
                self.calls[-1].system = self.calls[-1].result = None
                self.setup_batch()


def end_to_end(loop: Loop) -> dict[str, float]:
    calls = loop.calls
    return {
        "sim_cycles_per_s": (
            calls[0].sim_cycles / at_ref([c.run_sample for c in calls])
        ),
        "wall_s": at_ref([c.wall_sample for c in calls]),
        "setup_s": at_ref(loop.setups),
        "sim_cycles": statistics.median(c.sim_cycles for c in calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer, call, untraced_wall_s: float) -> dict:
    """Per-layer figures of one traced call (see the manifest's table)."""
    traced_wall_s = tracer.wall_seconds()
    system = call.system
    stats = call.result.stats
    cycles = call.sim_cycles
    self_s = tracer.self_seconds()
    calls = tracer.call_counts()
    boundary = tracer.boundary_counts()

    def steps(owner: str) -> int:
        return boundary.get(f"{owner}.step", 0)

    hops = stats["noc"]["flit_hops"]
    requests = stats["mpmmu"].get("requests_received", 0)
    caches = [node.cache for node in system.nodes] + [system.mpmmu.cache]
    hits = sum(cache.hits for cache in caches)
    misses = sum(cache.misses for cache in caches)
    n_workers = len(system.nodes)
    mem_stall = sum(node.cycle_ledger(cycles)["mem_stall"] for node in system.nodes)
    kernel_steps = sum(
        steps(owner)
        for owner in ("NocFabric", "ProcessorNode", "MpmmuNode", "TelemetrySampler")
    )
    ops = calls["empi"]
    return {
        "kernel.self_s": (self_s["kernel"], "s"),
        "kernel.steps_per_cycle": (kernel_steps / cycles, "1/cycle"),
        "noc.self_s": (self_s["noc"], "s"),
        "noc.step_calls": (steps("NocFabric"), "count"),
        "noc.ns_per_hop": (_ratio(1e9 * self_s["noc"], hops), "ns"),
        "noc.deflection_ratio": (_ratio(stats["noc"]["deflections"], hops), "ratio"),
        "noc.hops_per_cycle": (hops / cycles, "1/cycle"),
        "pe.self_s": (self_s["pe"], "s"),
        "pe.step_calls": (steps("ProcessorNode"), "count"),
        "pe.ns_per_op": (_ratio(1e9 * self_s["pe"], ops), "ns"),
        "pe.mem_stall_frac": (mem_stall / (n_workers * cycles), "frac"),
        "empi.self_s": (self_s["empi"], "s"),
        "empi.ops": (ops, "count"),
        "empi.ops_per_cycle": (ops / cycles, "1/cycle"),
        "cache.self_s": (self_s["cache"], "s"),
        "cache.calls": (calls["cache"], "count"),
        "cache.calls_per_cycle": (calls["cache"] / cycles, "1/cycle"),
        "cache.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "bridge.self_s": (self_s["bridge"], "s"),
        "bridge.calls": (calls["bridge"], "count"),
        "pe.tie.self_s": (self_s["pe.tie"], "s"),
        "pe.tie.calls": (calls["pe.tie"], "count"),
        "dma.self_s": (self_s["dma"], "s"),
        "dma.calls": (calls["dma"], "count"),
        "mpmmu.self_s": (self_s["mpmmu"], "s"),
        "mpmmu.requests": (requests, "count"),
        "mpmmu.requests_per_cycle": (requests / cycles, "1/cycle"),
        "mpmmu.ns_per_request": (_ratio(1e9 * self_s["mpmmu"], requests), "ns"),
        "mpmmu.busy_frac": (stats["mpmmu"].get("busy_cycles", 0) / cycles, "frac"),
        "telemetry.self_s": (self_s["telemetry"], "s"),
        "telemetry.samples": (stats.get("telemetry", {}).get("samples", 0), "count"),
        "system.build_s": (self_s["system.build"], "s"),
        "apps.validate_s": (self_s["apps.validate"], "s"),
        "apps.self_s": (self_s["apps"], "s"),
        "trace.wall_s": (traced_wall_s, "s"),
        "trace.overhead_frac": (traced_wall_s / untraced_wall_s - 1, "frac"),
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"simbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from layertrace import LayerTracer
    from workloads import CheckFailed, RunClock, Workload, check_layers

    try:
        workload = Workload(args.workload)
    except KeyError as error:
        print(f"simbench: {error.args[0]}", file=sys.stderr)
        return 2
    print(f"# workload={workload.name} seed={args.seed} (inputs are fixed "
          f"formulas; the seed does not change them) seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# host: {host_fingerprint()}")
    start = time.perf_counter()
    host = HostClock()
    clock = RunClock(host)
    correct = True
    with clock.installed():
        loop = Loop(workload, clock)
        with host.installed():
            if not args.trace:
                loop.until(start + args.seconds, MIN_CALLS)
            else:
                loop.until(start + args.seconds / 3, 2)
        if args.trace:
            # No ticks here: they would land in the layers' spans.
            tracer = LayerTracer()
            with tracer.installed():
                traced = loop.call(tracer)
            if traced is not None:
                try:
                    check_layers(workload.name, tracer.call_counts())
                except CheckFailed as error:
                    print(f"simbench: {error}", file=sys.stderr)
                    correct = False
    correct = correct and loop.failed == 0 and bool(loop.calls)

    metrics: dict[str, tuple[float, str]] = {}
    if correct and not args.trace:
        metrics = {
            name: (value, END_TO_END_UNITS[name])
            for name, value in end_to_end(loop).items()
        }
        raw_wall_s = statistics.median(c.raw_wall_s for c in loop.calls)
        tick_us = 1e6 * statistics.median(c.wall_sample[1] for c in loop.calls)
        print(f"# times in reference seconds (a tick takes "
              f"{1e6 * REF_TICK_S:g} us); here a tick took {tick_us:.1f} us "
              f"and a call {raw_wall_s:.4f} raw s (medians); fitted slopes: "
              f"wall {fitted_slope([c.wall_sample for c in loop.calls]):.2f}, "
              f"setup {fitted_slope(loop.setups):.2f}")
    elif correct:
        untraced = statistics.median(c.raw_wall_s for c in loop.calls[:-1])
        metrics = per_layer(tracer, traced, untraced)
        spans = ROOT / ".bench_out" / f"{workload.name}-spans.json"
        tracer.write_spans(spans)
        print(f"# spans: {tracer.n_spans} opened, written to "
              f"{spans.relative_to(ROOT)}")
        print(f"# drives: {', '.join(workload.spec.drives)}; "
              f"bypasses: {', '.join(workload.spec.bypasses)}")
    fail_frac = loop.failed / max(1, loop.attempted)
    print(f"# attempts (calls and set-ups): {loop.attempted}, "
          f"{loop.failed} failed")
    for name, (value, unit) in {**metrics, "fail_frac": (fail_frac, "1")}.items():
        print(f"{name:26s} {value!r:>24} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
