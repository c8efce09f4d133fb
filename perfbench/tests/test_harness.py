"""Self-tests of the benchmark harness (no simulator runs).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import array
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_is_span_minus_children():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert spans.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def _dump(pid, names, rows, counts=None):
    return {
        "pid": pid,
        "names": names,
        "name": array.array("i", [r[0] for r in rows]),
        "start": array.array("d", [r[1] for r in rows]),
        "end": array.array("d", [r[2] for r in rows]),
        "parent": array.array("i", [r[3] for r in rows]),
        "counts": counts or {},
    }


def test_summarize_sums_self_time_and_setup_across_processes():
    names = ["simulator.run", "event_queue.run", "event:repro.cluster.node.X.f"]
    main = _dump(1, names, [(0, 0.0, 10.0, -1), (1, 4.0, 9.0, 0), (2, 5.0, 6.0, 1)],
                 counts={"storage.loads": 2})
    worker = _dump(2, names, [(0, 0.0, 3.0, -1), (1, 1.0, 3.0, 0)],
                   counts={"storage.loads": 1})
    summary = spans.summarize([main, worker], main_pid=1)
    run_entry = summary["names"]["simulator.run"]
    assert run_entry["calls"] == 2
    assert run_entry["self_s"] == pytest.approx(5.0 + 1.0)
    assert run_entry["main_root_s"] == pytest.approx(10.0)
    assert summary["names"]["event_queue.run"]["self_s"] == pytest.approx(4.0 + 2.0)
    assert summary["setup_build_s"] == pytest.approx(4.0 + 1.0)
    assert summary["counts"]["storage.loads"] == 3


def test_federation_wait_is_the_busiest_worker_per_federated_run():
    names = ["federation.run_federation", "federation.shard"]
    main = _dump(1, names, [(0, 0.0, 10.0, -1), (0, 20.0, 30.0, -1)])
    # Run 1: worker 2 is busy 6 s, worker 3 is busy 5 s.
    # Run 2: new workers 4 and 5, busy 7 s and 2 s.
    workers = [
        _dump(2, names, [(1, 1.0, 4.0, -1), (1, 5.0, 8.0, -1)]),
        _dump(3, names, [(1, 1.0, 6.0, -1)]),
        _dump(4, names, [(1, 21.0, 28.0, -1)]),
        _dump(5, names, [(1, 21.0, 23.0, -1)]),
    ]
    summary = spans.summarize([main] + workers, main_pid=1)
    assert summary["federation_wait_s"] == pytest.approx(6.0 + 7.0)


def test_recorder_nests_wrapped_calls(tmp_path):
    rec = spans.Recorder(tmp_path)

    def leaf():
        return 1

    wrapped_leaf = rec.wrap("leaf", leaf)
    outer = rec.wrap("outer", lambda: wrapped_leaf() + wrapped_leaf())
    assert outer() == 2
    assert list(rec.parents) == [-1, 0, 0]
    assert [rec.name_list[n] for n in rec.names] == ["outer", "leaf", "leaf"]
    (loaded,) = spans.load(Path(rec.dump()).parent)
    assert list(loaded["parent"]) == [-1, 0, 0]


def test_layer_of_routes_event_callbacks_by_module():
    assert spans.layer_of("event:repro.cluster.node.RenderNode._finish") == "node"
    assert spans.layer_of("event:repro.sim.service.VisualizationService._on_cycle") == "service"
    assert spans.layer_of("event:repro.obs.counters.CounterSampler._tick") == "obs"
    assert spans.layer_of("lru.mirror.insert") == "tables"
    assert spans.layer_of("lru.node.insert") == "node"
    assert spans.layer_of("event:repro.frontend.frontend.F.g") == "other"


@pytest.mark.parametrize(
    "values", [[3.0, 1.0, 2.0], [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]]
)
def test_quartiles_match_statistics(values):
    q1, median, q3 = run.quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert median == statistics.median(values)
    assert run.spread(values) == pytest.approx((q3 - q1) / median)


def _records(digests, slices=None):
    return [
        {"ok": True, "digest": d, "slice": k, "traced": False, "error": ""}
        for d, k in zip(digests, slices or [0] * len(digests))
    ]


def test_wrong_expected_digest_fails_every_run():
    records = run.judge(_records(["abc", "abc", "abc"]), expected=["def"])
    assert run.error_rate(records) == 1.0


def test_each_slice_is_judged_against_its_own_digest():
    records = run.judge(_records(["a", "b", "a"], [0, 1, 1]), expected=["a", "b"])
    assert [r["ok"] for r in records] == [True, True, False]


def test_without_recorded_digest_runs_must_agree():
    records = run.judge(_records(["abc", "abc", "xyz"]), expected=None)
    assert [r["ok"] for r in records] == [True, True, False]
    assert run.error_rate(records) == pytest.approx(1 / 3)


def _stats(total, setup, assignments, loop):
    return {"ok": True, "stats": {
        "total_s": total, "setup_s": setup, "cpu_s": total, "peak_rss_mb": 10.0,
        "assignments": assignments, "loop_s": loop,
    }}


def test_batch_adds_times_and_takes_median_setup():
    batch = [_stats(2.0, 0.5, 100, 1.0), _stats(3.0, 0.7, 300, 1.0),
             _stats(4.0, 0.6, 200, 2.0)]
    m = run.batch_metrics(batch)
    assert m["total_s"] == 9.0 and m["cpu_s"] == 9.0
    assert m["setup_s"] == 0.6
    assert m["assignments_per_s"] == pytest.approx(600 / 4.0)
    # A batch with a failed process yields no metrics.
    batch[1]["ok"] = False
    assert run.end_to_end(batch, slices=3) == {}


def test_html_check_flags_unbalanced_pages():
    good = "<!DOCTYPE html><html><body><p>a<br>b</p><svg><rect/></svg></body></html>"
    assert workloads.html_problems(good) == []
    assert workloads.html_problems("<html></html>")
    assert workloads.html_problems("<!DOCTYPE html><html><body><div></body></html>")


def test_unit_seeds_are_disjoint_across_processes_and_seeds():
    seen = set()
    for seed in (1, 2):
        for k in range(4):
            seeds = workloads.unit_seeds(seed, k, 5)
            assert len(seeds) == 5 and not seen & set(seeds)
            seen.update(seeds)
