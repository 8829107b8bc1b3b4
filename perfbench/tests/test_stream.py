"""The seeded input and the counters that must repeat under a seed."""

import pytest

from perfbench.bench import run_workload
from perfbench.workloads import WORKLOADS, generate

from small import CYCLES, small

NAMES = sorted(WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_stream(name):
    workload = small(name)
    assert generate(workload, 7, CYCLES) == generate(workload, 7, CYCLES)


@pytest.mark.parametrize("name", NAMES)
def test_other_seed_other_stream(name):
    workload = small(name)
    first = generate(workload, 7, CYCLES)
    second = generate(workload, 8, CYCLES)
    assert first.initial != second.initial
    assert first.cycles != second.cycles


def test_stream_is_a_prefix_of_a_longer_stream():
    """A run's length never changes the cycles it shares with another."""
    workload = small("uniform_cold")
    short = generate(workload, 3, CYCLES)
    long = generate(workload, 3, 2 * CYCLES)
    assert long.initial == short.initial
    assert long.cycles[:CYCLES] == short.cycles


def _run(workload, seed, trace):
    outcome = run_workload(workload, seed, 0.0, trace)
    assert outcome.correct, outcome.messages
    assert outcome.failed == 0, outcome.messages
    return outcome.values


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_counts(name):
    workload = small(name)
    first = _run(workload, 11, trace=False)
    second = _run(workload, 11, trace=False)
    for metric in ("sent_pct", "bytes_per_change"):
        assert first[metric] == second[metric]
        assert first[metric] > 0
    first_traced = _run(workload, 11, trace=True)
    second_traced = _run(workload, 11, trace=True)
    metric = "differential.fixup_writes_per_change"
    assert first_traced[metric] == second_traced[metric]
    assert first_traced[metric] > 0
