"""The oracle notices a snapshot or base table that went wrong."""

from perfbench.workloads import generate
from perfbench.world import run_cycles, setup, verify

from small import CYCLES, small


def _world(name):
    workload = small(name)
    stream = generate(workload, 3, CYCLES)
    world, *_elapsed = setup(workload, stream)
    run_cycles(world, stream.cycles, 0.0, CYCLES)
    return world


def test_clean_run_matches():
    world = _world("fleet_drain")
    checked, diverged, messages = verify(world)
    assert checked == len(world.bases) * (1 + len(world.workload.snapshots))
    assert diverged == 0, messages


def test_lost_snapshot_row_is_a_divergence():
    world = _world("uniform_cold")
    snapshot = world.manager.snapshot(world.snapshots[0][0]).table
    victim = next(iter(snapshot.as_map()))
    snapshot._delete_addr(victim)
    _checked, diverged, messages = verify(world)
    assert diverged == 1
    assert "1 rows missing" in messages[0]


def test_lost_base_write_is_a_divergence():
    world = _world("hotspot_online")
    rid = world.live[0][0]
    world.mirror[0][rid] = (-1, -1, "lost")
    _checked, diverged, _messages = verify(world)
    assert diverged >= 1
