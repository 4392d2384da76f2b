"""End-to-end telemetry: traced workloads, export validity, neutrality.

The ``cg-tiny`` workload (2 workers, ring allreduce on the DMA engine,
overlap, seeded faults + one scheduled stall) exercises every track type
in a couple of seconds; the module-scoped fixture runs it once and every
test inspects the same system.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.apps.cg import CgParams, run_cg
from repro.apps.jacobi import JacobiParams, run_jacobi
from repro.errors import ConfigError
from repro.system.config import SystemConfig
from repro.telemetry.chrome_trace import (
    PID_FAULTS,
    PID_METRICS,
    TID_COLLECTIVES,
    TID_DMA,
    TID_OVERLAP,
    TID_REQUESTS,
    chrome_trace_events,
    write_chrome_trace,
)
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.registry import sampled_overlap_efficiency
from repro.telemetry.workloads import TRACE_WORKLOADS, run_trace_workload

sys.path.insert(
    0, str(Path(__file__).resolve().parents[2] / "benchmarks")
)
from validate_trace import validate_trace_events  # noqa: E402


@pytest.fixture(scope="module")
def tiny_run():
    return run_trace_workload("cg-tiny")


def test_telemetry_config_validation():
    with pytest.raises(ConfigError):
        SystemConfig(
            n_workers=2, telemetry=TelemetryConfig(sample_interval=0)
        ).validate()
    with pytest.raises(ConfigError):
        TelemetryConfig(event_limit=0).validate()
    TelemetryConfig().validate()  # defaults are fine


def test_workload_registry_names_are_stable():
    assert set(TRACE_WORKLOADS) == {
        "cg", "cg-reference", "cg-tiny",
        "allreduce-8w-tree", "allreduce-8w-ring", "allreduce-8w-hw",
    }
    with pytest.raises(KeyError, match="unknown trace workload"):
        run_trace_workload("nope")


def test_tiny_run_validates_and_samples(tiny_run):
    system, result = tiny_run
    assert result.validated
    summary = result.stats["telemetry"]
    assert summary["samples"] > 3
    assert summary["trace_events"] > 0
    assert summary["noc_spatial"] is not None


def test_telemetry_is_cycle_neutral(tiny_run):
    """The same workload with telemetry=None runs the same cycles."""
    __, traced = tiny_run
    config, params = TRACE_WORKLOADS["cg-tiny"].build()
    bare = run_cg(config.with_changes(telemetry=None), params)
    assert bare.validated
    assert bare.total_cycles == traced.total_cycles
    assert bare.solve_cycles == traced.solve_cycles
    assert bare.x == traced.x


#: Telemetry-off cycle counts on the 16-worker 4x(2x2) package with
#: 4-cycle, 2-cycle-wide inter-chiplet links.  Spatial counters make the
#: fabric take its general step everywhere, so these runs also pin that a
#: fabric with telemetry off times every hop the way the general step does.
PACKAGE_RUNS = {
    "cg-overlap-tree": (
        run_cg, CgParams(n=32, iterations=3, model="empi", algorithm="tree",
                         overlap=True),
        7003,
    ),
    "jacobi-hybrid-full": (
        run_jacobi, JacobiParams(n=18, iterations=2, warmup=1,
                                 model="hybrid_full"),
        30043,
    ),
}


@pytest.mark.parametrize("name", sorted(PACKAGE_RUNS))
def test_telemetry_is_cycle_neutral_on_a_slow_link_package(name):
    run, params, cycles = PACKAGE_RUNS[name]
    config = SystemConfig(
        n_workers=16, cache_size_kb=16, topology_kind="chiplet", chiplets=4,
        chiplet_grid=(2, 2), chiplet_link_latency=4, chiplet_link_width=2,
    )
    bare = run(config, params)
    traced = run(config.with_changes(telemetry=TelemetryConfig()), params)
    assert bare.validated and traced.validated
    assert bare.total_cycles == traced.total_cycles == cycles


def test_export_passes_the_schema_validator(tiny_run):
    system, __ = tiny_run
    events = chrome_trace_events(system)
    summary = validate_trace_events(events)
    assert summary["events"] == len(events)
    # Spans, instants, counters and metadata all present.
    for phase in ("X", "i", "C", "M"):
        assert summary["phases"].get(phase, 0) > 0


def test_export_covers_every_track_type(tiny_run):
    system, __ = tiny_run
    events = chrome_trace_events(system)
    spans_by_tid = {
        event["tid"] for event in events if event["ph"] == "X"
    }
    # The acceptance bar: >= 4 distinct track types.  Requests,
    # collectives, overlap regions and DMA descriptors all carry spans;
    # faults and metrics ride their reserved pids.
    assert {
        TID_REQUESTS, TID_COLLECTIVES, TID_OVERLAP, TID_DMA
    } <= spans_by_tid
    pids = {event["pid"] for event in events}
    assert PID_FAULTS in pids  # the scheduled stall guarantees one
    assert PID_METRICS in pids


def test_export_names_carry_workload_labels(tiny_run):
    system, __ = tiny_run
    names = {
        event["name"] for event in chrome_trace_events(system)
        if event["ph"] == "X"
    }
    assert any("allreduce[ring]" in name for name in names)
    assert "overlap" in names


def test_write_chrome_trace_file_round_trip(tiny_run, tmp_path):
    system, __ = tiny_run
    out = tmp_path / "trace.json"
    count = write_chrome_trace(system, str(out))
    from validate_trace import validate_trace_file

    summary = validate_trace_file(str(out))
    assert summary["events"] == count


def test_sampled_overlap_matches_the_apps_own_number(tiny_run):
    system, result = tiny_run
    sampled = sampled_overlap_efficiency(system.telemetry.registry)
    assert sampled == pytest.approx(result.overlap_efficiency, abs=1e-12)


def test_reference_overlap_efficiency_from_samples_alone():
    """The PR-3 acceptance point, reproduced from the sampled timeline:
    ~0.96 overlap efficiency on the 8w tree CG run, computed from
    ``empi.overlap.*`` counter deltas with no access to the notes."""
    system, result = run_trace_workload("cg-reference")
    sampled = sampled_overlap_efficiency(system.telemetry.registry)
    assert sampled == pytest.approx(result.overlap_efficiency, abs=1e-12)
    assert sampled > 0.9


def test_timeout_reports_attach_the_telemetry_snapshot():
    """An eMPI timeout under telemetry carries the last sample summary."""
    from repro.empi.collectives import make_comm
    from repro.errors import DeadlockError, EmpiTimeoutError
    from repro.faults import FaultPlan
    from repro.system.medea import MedeaSystem

    config = SystemConfig(
        n_workers=2,
        faults=FaultPlan(seed=1, drop_rate=1.0, max_retries=2,
                         nack_timeout=64),
        telemetry=TelemetryConfig(sample_interval=256),
        watchdog_cycles=20_000,
    )

    def make_program(rank):
        def program(ctx):
            comm = make_comm(ctx, "empi", "tree", max_values=4)
            yield from comm.allreduce([float(rank)] * 4)
        return program

    system = MedeaSystem(config)
    system.load_programs([make_program(rank) for rank in range(2)])
    with pytest.raises((EmpiTimeoutError, DeadlockError)) as info:
        system.run(max_cycles=500_000)
    assert "telemetry: last sample at cycle" in str(info.value)
