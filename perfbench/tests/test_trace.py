"""The span tracer: nesting, self time, and clean removal."""

import pytest

from repro.table import Table

from perfbench.trace import FOLDED, Tracer, install
from perfbench.workloads import generate
from perfbench.world import run_cycles, setup, verify

from small import CYCLES, small


@pytest.mark.parametrize("name", ["uniform_cold", "hotspot_online", "fleet_drain"])
def test_refresh_spans_nest_and_self_times_sum(name):
    workload = small(name)
    stream = generate(workload, 5, CYCLES)
    tracer = Tracer()
    installation = install(tracer)
    try:
        world, *_elapsed = setup(workload, stream)
        tracer.reset()
        rec = run_cycles(world, stream.cycles, 0.0, CYCLES)
    finally:
        installation.uninstall()
    assert rec.refreshes_failed == 0
    assert verify(world)[1] == 0

    by_id = {span[0]: span for span in tracer.spans}
    roots = [
        span
        for span in tracer.spans
        if span[3] == "manager.refresh" and span[1] == 0
    ]
    assert len(roots) == CYCLES
    for root_id, _parent, request, _name, root_start, root_end in roots:
        members = [span for span in tracer.spans if span[2] == request]
        assert len(members) > 1
        for span_id, parent_id, _req, _name, start, end in members:
            assert root_start <= start <= end <= root_end
            if span_id == root_id:
                continue
            # Every span lies inside its parent, which is in the request.
            parent = by_id[parent_id]
            assert parent[2] == request
            assert parent[4] <= start <= end <= parent[5]
        self_times = tracer.request_self_times(request)
        assert all(value >= 0 for value in self_times.values())
        assert sum(self_times.values()) == root_end - root_start
        assert "differential.refresh" in self_times or "group.refresh" in self_times


def test_folded_leaves_are_not_stored():
    workload = small("uniform_cold")
    stream = generate(workload, 5, 2)
    tracer = Tracer()
    installation = install(tracer)
    try:
        world, *_elapsed = setup(workload, stream)
        run_cycles(world, stream.cycles, 0.0, 2)
    finally:
        installation.uninstall()
    assert not [span for span in tracer.spans if span[3] in FOLDED]
    assert tracer.count("expr.predicate") > 0
    folded = sum(
        count
        for (_parent, name), (count, _total) in tracer.folded.items()
        if name == "expr.predicate"
    )
    assert folded == tracer.count("expr.predicate")


def test_uninstall_restores_the_program():
    original = Table.__dict__["insert"]
    installation = install(Tracer())
    assert Table.__dict__["insert"] is not original
    installation.uninstall()
    assert Table.__dict__["insert"] is original
