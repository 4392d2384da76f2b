"""Collective microbenchmark driver."""

from __future__ import annotations

import pytest

from repro.apps import collective_bench
from repro.apps.collective_bench import (
    COLLECTIVES,
    CollectiveBenchParams,
    run_collective_bench,
)
from repro.errors import ConfigError
from repro.system.config import SystemConfig


def config_for(n_workers: int) -> SystemConfig:
    return SystemConfig(n_workers=n_workers, cache_size_kb=2)


@pytest.mark.parametrize("collective", COLLECTIVES)
def test_every_collective_benchmarks_and_validates(collective):
    for model in ("empi", "pure_sm"):
        result = run_collective_bench(
            config_for(3),
            CollectiveBenchParams(collective=collective, model=model,
                                  n_values=4, repeats=2),
        )
        assert result.validated, f"{collective}/{model}"
        assert result.op_cycles > 0
        assert result.cycles_per_op == result.op_cycles / 2


def test_sm_costs_more_than_empi():
    """The headline comparison the microbenchmark exists to make."""
    cycles = {}
    for model in ("empi", "pure_sm"):
        result = run_collective_bench(
            config_for(4),
            CollectiveBenchParams(collective="allreduce", model=model),
        )
        assert result.validated
        cycles[model] = result.cycles_per_op
    assert cycles["pure_sm"] > cycles["empi"]


def test_tree_beats_linear_at_scale_for_bcast():
    """log-depth forwarding must beat the root's serial sends."""
    cycles = {}
    for algorithm in ("linear", "tree"):
        result = run_collective_bench(
            config_for(8),
            CollectiveBenchParams(collective="bcast", model="empi",
                                  algorithm=algorithm, n_values=16),
        )
        assert result.validated
        cycles[algorithm] = result.cycles_per_op
    assert cycles["tree"] < cycles["linear"]


def test_params_validation():
    with pytest.raises(ConfigError):
        CollectiveBenchParams(collective="alltoall")
    with pytest.raises(ConfigError):
        CollectiveBenchParams(n_values=0)
    with pytest.raises(ConfigError):
        CollectiveBenchParams(repeats=0)


@pytest.mark.parametrize("collective", ["allreduce", "scatter", "gather"])
def test_validation_flags_one_wrong_element_on_one_rank(collective,
                                                        monkeypatch):
    """The reference is built once per repetition, but every rank's
    output is still compared bit for bit against its own expectation."""
    make_program = collective_bench._make_program

    def corrupting(params, rank, n_workers, results):
        program = make_program(params, rank, n_workers, results)
        if rank != n_workers - 1 and collective != "gather":
            return program

        def wrapped(ctx):
            yield from program(ctx)
            last = results[rank][-1]
            if last is not None:
                if collective == "gather":
                    last[1][0] += 2.0 ** -40
                else:
                    last[0] += 2.0 ** -40

        return wrapped

    monkeypatch.setattr(collective_bench, "_make_program", corrupting)
    result = run_collective_bench(
        config_for(3),
        CollectiveBenchParams(collective=collective, n_values=4, repeats=2),
    )
    assert not result.validated
