"""Tests of the benchmark's own helpers: python3 -m pytest perfbench -q"""

import dataclasses

import numpy as np
import pytest

import run
import stats
import tracing

run.import_gwsos()

import workloads  # noqa: E402  (needs gwsos on the path)


def span(sid, parent, start, end, name="x"):
    return tracing.Span(sid=sid, name=name, parent=parent, start=start,
                        end=end)


def test_self_time_subtracts_the_union_of_children():
    spans = [span(0, None, 0.0, 10.0, "root"),
             span(1, 0, 1.0, 4.0, "a"),
             span(2, 0, 3.0, 6.0, "b"),       # overlaps a
             span(3, 1, 2.0, 3.0, "leaf"),
             span(4, 0, 8.0, 12.0, "late")]   # runs past its parent
    own = tracing.self_times(spans)
    assert own == {0: pytest.approx(3.0), 1: pytest.approx(2.0),
                   2: pytest.approx(3.0), 3: pytest.approx(1.0),
                   4: pytest.approx(4.0)}
    spans.append(span(5, None, 20.0, 21.0, "a"))
    by_name = tracing.self_time_by_name(spans)
    assert by_name["a"] == pytest.approx(3.0)
    assert by_name["root"] == pytest.approx(3.0)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.tail(list(range(99)), 0.9) is None
    assert stats.tail(list(range(100)), 0.9) == 89
    assert stats.tail(list(range(1, 113)), 0.9) == 101
    assert stats.tail(list(range(5)), 0.9) is None
    assert stats.nearest_rank([3.0, 1.0, 2.0], 0.5) == 2.0


def two_by_two_workload():
    rng = np.random.default_rng(7)
    X, Y = workloads.line_space(rng, 2), workloads.line_space(rng, 2)
    return workloads.Workload("test", [workloads.Pair(
        X, Y, 1.0, 1.0, (1, 2), oracle_in_pass=True)])


def test_bound_above_the_oracle_lands_in_failed_frac():
    wl = two_by_two_workload()
    ps = workloads.run_pass(wl)
    failures = []
    attempted, failed, wrong, _ = run.check(wl, [ps], seed=1,
                                            failures=failures)
    assert (attempted, failed, wrong) == (3, 0, 0), failures

    # raise the level-2 bound, so that level 1 <= level 2 still holds
    i, level, res, s = ps.bounds[1]
    raised = dataclasses.replace(res, value=ps.oracles[i].value + 1e-3)
    ps.bounds[1] = (i, level, raised, s)
    attempted, failed, wrong, ok = run.check(wl, [ps], seed=1,
                                             failures=failures)
    assert (failed, wrong, ok) == (1, 1, [1])
    assert "above" in failures[0]
    _, extra, _ = run.end_to_end(wl, [ps], ok, [1.0], 100.0, attempted,
                                 failed, wrong)
    assert extra["failed_frac"][0] == pytest.approx(1 / 3)


def test_unconverged_solve_is_a_failed_operation_not_a_wrong_output():
    wl = two_by_two_workload()
    ps = workloads.run_pass(wl)
    i, level, res, s = ps.bounds[0]
    ps.bounds[0] = (i, level, dataclasses.replace(
        res, status="numerical_failure", value=1e3), s)
    failures, wrong = workloads.check_pass(wl, ps, {}, None)
    assert list(failures) == [("bound", 0)] and not wrong


def test_installed_wrappers_record_nested_spans_and_restore():
    from gwsos import hierarchy, sampling, sdp
    originals = (hierarchy.gw_lower_bound, sdp.solve,
                 sampling.gw_lower_bound)
    wl = two_by_two_workload()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        ps = workloads.run_pass(wl)
    assert (hierarchy.gw_lower_bound, sdp.solve,
            sampling.gw_lower_bound) == originals
    names = [s.name for s in tracer.spans]
    assert names.count("hierarchy.gw_lower_bound") == 2
    assert names.count("oracle.brute_force_gw") == 1
    by_id = {s.sid: s for s in tracer.spans}
    for s in tracer.spans:
        if s.name == "sdp.solve":
            assert by_id[s.parent].name == "hierarchy.gw_lower_bound"
    own = sum(tracing.self_times(tracer.spans).values())
    assert 0.9 * ps.wall <= own <= ps.wall
    assert len(tracer.problems) == 2


def test_a_lost_entry_point_fails_the_traced_run(monkeypatch):
    from gwsos import hierarchy, sampling
    original = hierarchy.gw_lower_bound
    monkeypatch.delattr(sampling, "build_dyadic_partition")
    with pytest.raises(AttributeError):
        with tracing.installed(tracing.Tracer()):
            pass
    assert hierarchy.gw_lower_bound is original


def test_printed_metrics_match_benchmark_json():
    import json
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wl = two_by_two_workload()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        ps = workloads.run_pass(wl)
    layer = tracing.layer_metrics(tracer, ps.wall, ps.wall)
    json.dumps(layer)  # numpy scalars would not serialize
    assert list(layer) == [m["name"] for m in doc["per_layer"]]
    assert all(unit == m["unit"] for (_, unit), m in
               zip(layer.values(), doc["per_layer"]))
    failures = []
    attempted, failed, wrong, ok = run.check(wl, [ps], seed=1,
                                             failures=failures)
    metrics, _, _ = run.end_to_end(wl, [ps], ok, [1.0], 100.0, attempted,
                                   failed, wrong)
    assert list(metrics) == [m["name"] for m in doc["end_to_end"]]
    assert all(unit == m["unit"] for (_, unit), m in
               zip(metrics.values(), doc["end_to_end"]))
