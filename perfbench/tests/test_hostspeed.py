"""Scaling wall times to the reference speed."""

import pytest

from perfbench import hostspeed
from perfbench.workloads import WORKLOADS, generate
from perfbench.world import run_cycles, setup

from small import CYCLES, small


def test_scale_is_reference_over_mean_sample():
    reference = hostspeed.REFERENCE_NS
    assert hostspeed.scale(reference, reference) == 1.0
    assert hostspeed.scale(2 * reference, 2 * reference) == 0.5
    assert hostspeed.scale(reference, 3 * reference) == 0.5


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_timed_sample_is_scaled_once(name):
    workload = small(name)
    stream = generate(workload, 2, CYCLES)
    world, raw_s, scaled_s = setup(workload, stream)
    assert raw_s > 0 and scaled_s > 0
    rec = run_cycles(world, stream.cycles, 0.0, CYCLES)
    assert rec.cycles == len(rec.scales) == len(rec.loop.raw) == CYCLES
    assert len(rec.write.raw) == rec.writes_attempted - rec.writes_failed
    for timings in (rec.write, rec.refresh, rec.lag, rec.loop):
        assert len(timings.scaled) == len(timings.raw) > 0
        assert all(value > 0 for value in timings.scaled)
    assert len(rec.lag.raw) == rec.ops_delivered
