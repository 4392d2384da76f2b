"""Self-tests of the benchmark's tracing, on miniature workloads.

Run from the repository root with either of::

    python3 simbench/selftest.py
    PYTHONPATH=src python3 -m pytest -q simbench/selftest.py

* Work counts repeat exactly: two traced runs of each miniature workload
  open the same number of spans at every layer boundary and report the
  same simulated counts (hops, MPMMU requests, cycles).
* Each miniature reaches exactly the layers its workload drives: a layer
  whose boundary the tracer stops seeing fails the check.
* Attribution is exact: a fixed delay injected into one layer's public
  method is charged to that layer's self time, and to no other layer,
  including the layer that calls it.
* The host clock ticks while installed and not after, its readings take
  the ticks' time out of an interval, and a set-up-only call stops at the
  entry of ``MedeaSystem.run`` without simulating.
"""

from __future__ import annotations

import signal
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from hostclock import (  # noqa: E402
    INTERVAL_S,
    REF_TICK_S,
    SLOPE_RANGE,
    HostClock,
    at_ref,
)
from layertrace import LAYERS, LayerTracer, patched  # noqa: E402
from repro.cache.l1 import L1Cache  # noqa: E402
from repro.mpmmu.mpmmu import MpmmuNode  # noqa: E402
from workloads import SPECS, RunClock, Workload, check_layers  # noqa: E402

#: Miniatures of the benchmark workloads: each one's config and params
#: with smaller sizes replaced in, so they keep the same drivers and
#: features (write-through caches, DMA ring, chiplet links + telemetry).
SHRINK = {
    "jacobi-wt": (
        dict(n_workers=4, cache_size_kb=4),
        dict(n=10, iterations=2),
    ),
    "allreduce-ring": (
        dict(n_workers=4, cache_size_kb=4),
        dict(n_values=16, repeats=2),
    ),
    "cg-chiplet": (
        dict(n_workers=4, cache_size_kb=4, chiplets=2, chiplet_grid=(1, 2)),
        dict(n=16, iterations=3),
    ),
}


def miniature(name: str):
    spec = SPECS[name]
    config, params = SHRINK[name]
    return spec.driver(replace(spec.config, **config), replace(spec.params, **params))


#: Total delay injected per attribution test.  Large against the
#: miniature's own run time, so host noise in other layers stays small
#: beside it.
INJECTED_S = 1.0


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def traced(name: str):
    """One traced run of a miniature; returns (tracer, result)."""
    tracer = LayerTracer()
    with tracer.installed():
        result = tracer.run_root(lambda: miniature(name))
    check(result.validated, f"{name}: miniature failed its reference check")
    check_layers(name, tracer.call_counts())
    return tracer, result


def work_counts(tracer: LayerTracer, result) -> dict[str, int]:
    stats = result.stats
    return {
        **tracer.boundary_counts(),
        "sim_cycles": result.total_cycles,
        "noc.flit_hops": stats["noc"]["flit_hops"],
        "mpmmu.requests": stats["mpmmu"].get("requests_received", 0),
    }


def test_work_counts_repeat_exactly():
    for name in SHRINK:
        first = work_counts(*traced(name))
        second = work_counts(*traced(name))
        differ = {
            key: (value, second.get(key))
            for key, value in first.items()
            if second.get(key) != value
        }
        check(not differ and first.keys() == second.keys(),
              f"{name}: work counts differ between runs: {differ}")


def busy_wait(ns: int) -> None:
    end = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < end:
        pass


def delay_lands_on(layer: str, owner: type, method: str, workload: str) -> None:
    """Delay ``owner.method`` and check only ``layer`` pays for it."""
    base, _ = traced(workload)
    calls = base.boundary_counts()[f"{owner.__qualname__}.{method}"]
    check(calls > 0, f"{workload} never calls {owner.__qualname__}.{method}")
    delay_ns = int(INJECTED_S * 1e9 / calls)
    original = getattr(owner, method)

    def delayed(*args, **kwargs):
        busy_wait(delay_ns)
        return original(*args, **kwargs)

    with patched(owner, method, delayed):
        slow, _ = traced(workload)
    injected = calls * delay_ns / 1e9
    before, after = base.self_seconds(), slow.self_seconds()
    delta = {name: after[name] - before[name] for name in LAYERS}
    check(
        0.95 * injected <= delta[layer] <= 1.5 * injected + 0.05,
        f"{layer} self time grew by {delta[layer]:.3f} s for {injected:.3f} s "
        f"injected",
    )
    for other in LAYERS:
        if other != layer:
            check(
                abs(delta[other]) <= 0.1 * injected,
                f"{other} self time moved by {delta[other]:.3f} s when "
                f"{injected:.3f} s was injected into {layer}",
            )


def test_delay_in_mpmmu_step_is_charged_to_mpmmu():
    delay_lands_on("mpmmu", MpmmuNode, "step", "jacobi-wt")


def test_delay_in_cache_lookup_is_charged_to_cache_not_its_callers():
    # L1Cache.lookup runs inside ProcessorNode.step and MpmmuNode.step.
    delay_lands_on("cache", L1Cache, "lookup", "jacobi-wt")


def test_host_clock_ticks_and_takes_its_time_out():
    host = HostClock()
    handler = signal.getsignal(signal.SIGALRM)
    with host.installed():
        start = host.read()
        busy_wait(int(40 * INTERVAL_S * 1e9))
        end = host.read()
    check(signal.getsignal(signal.SIGALRM) == handler,
          "the host clock left its SIGALRM handler installed")
    check(20 <= end.ticks - start.ticks <= 41,
          f"{end.ticks - start.ticks} ticks in 40 intervals")
    tick_s = end.tick_s - start.tick_s
    check(start.net_s(end) == (end.wall - start.wall) - tick_s,
          "the ticks' time is not taken out of the interval")
    check(host.read().ticks == end.ticks, "the host clock ticks after removal")


def test_reference_seconds_follow_the_fitted_slope():
    ticks = [REF_TICK_S * (0.8 + 0.05 * i) for i in range(12)]
    for slope in (0.5, 0.9):
        samples = [(2.0 * (t / REF_TICK_S) ** slope, t) for t in ticks]
        check(abs(at_ref(samples) - 2.0) < 1e-9,
              f"slope {slope}: {at_ref(samples)} reference s, not 2.0")
        slower = [(3 * seconds, t) for seconds, t in samples]
        check(abs(at_ref(slower) - 6.0) < 1e-9,
              "a program 3x slower does not read 3x slower")
    steep = [(2.0 * (t / REF_TICK_S) ** 3, t) for t in ticks]
    check(at_ref(steep) > 2.0, f"a slope of 3 is not held to {SLOPE_RANGE}")


def test_setup_only_call_stops_before_the_simulation():
    host = HostClock()
    clock = RunClock(host)
    with clock.installed():
        start, enter = Workload("allreduce-ring").setup(clock)
    check(enter.wall > start.wall, "the set-up took no time")
    check(clock.exit.wall < start.wall, "the set-up-only call simulated")
    check(clock.system is None, "the set-up-only call kept its machine")


def main() -> int:
    tests = [
        (name, fn) for name, fn in globals().items()
        if name.startswith("test_") and callable(fn)
    ]
    failed = 0
    for name, test in tests:
        try:
            test()
        except Exception as error:
            failed += 1
            print(f"FAIL {name}: {error}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
