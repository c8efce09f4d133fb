"""Counter tracks: built-in pressure counters on a live simulation."""

from repro.cluster.event_queue import EventQueue
from repro.core.registry import make_scheduler
from repro.obs.counters import (
    STANDARD_TRACKS,
    TRACK_BUSY_NODES,
    TRACK_CACHE,
    TRACK_IO_INFLIGHT,
    TRACK_QUEUE,
    CounterSink,
)
from repro.obs.probe import Probe
from repro.obs.tracer import PID_HEAD, Tracer
from repro.sim.run_config import RunConfig
from repro.sim.service import VisualizationService
from repro.sim.simulator import run_simulation
from repro.workload.scenarios import scenario_1


def traced_run(**kwargs):
    tracer = Tracer()
    result = run_simulation(
        scenario_1(scale=0.05), "OURS", config=RunConfig(tracer=tracer, **kwargs)
    )
    return tracer, result


class TestCounterSampler:
    def test_standard_tracks_present(self):
        tracer, _ = traced_run()
        tracks = tracer.counter_tracks()
        head_tracks = {name for pid, name in tracks if pid == PID_HEAD}
        assert set(STANDARD_TRACKS) <= head_tracks
        assert len(tracks) >= 3

    def test_per_node_cache_tracks(self):
        tracer, result = traced_run()
        cache_pids = {pid for pid, name in tracer.counter_tracks() if name == TRACK_CACHE}
        assert len(cache_pids) == len(result.profile.nodes)
        assert PID_HEAD not in cache_pids

    def test_counter_values_sane(self):
        tracer, _ = traced_run()
        for e in tracer.events:
            if e.phase != "C":
                continue
            for value in e.args.values():
                assert value >= 0.0
            if e.name == TRACK_BUSY_NODES:
                assert e.args["busy"] <= 8

    def test_sampling_respects_interval(self):
        scenario = scenario_1(scale=0.05)
        events = EventQueue()
        service = VisualizationService(
            scenario.system.build_cluster(events=events),
            make_scheduler("OURS"),
            scenario.system.chunk_max,
        )
        tracer = Tracer()
        horizon = scenario.trace.duration
        Probe(0.5, [CounterSink(tracer)], horizon=horizon).attach(service)
        datasets = {d.name: d for d in scenario.trace.datasets}
        for request in scenario.trace.requests:
            events.schedule(
                request.time,
                service.submit_request,
                request,
                datasets[request.dataset],
            )
        service.start()
        events.run(until=horizon)
        times = [
            e.ts for e in tracer.events if e.phase == "C" and e.name == TRACK_QUEUE
        ]
        # horizon 3s at scale 0.05 → ticks at 0, 0.5, ..., 3.0
        assert times == [k * 0.5 for k in range(int(horizon / 0.5) + 1)]

    def test_io_inflight_track_exists(self):
        tracer, _ = traced_run()
        assert any(
            e.phase == "C" and e.name == TRACK_IO_INFLIGHT for e in tracer.events
        )

