"""Scaled-down workloads that keep each test to a few seconds."""

from dataclasses import replace

from perfbench.workloads import WORKLOADS

#: Cycles small runs make; the deterministic counters cover all of them.
CYCLES = 6


def small(name: str):
    workload = WORKLOADS[name]
    rows = 600 if workload.mode == "online" else 240
    return replace(
        workload,
        rows=rows,
        ops_per_cycle=24,
        stream_cycles_per_s=0,
        det_cycles=CYCLES,
        setups=1,
    )
