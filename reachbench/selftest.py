"""Tests of the benchmark's own code.

    python3 -m pytest -q reachbench/selftest.py

The file name keeps these tests out of the package's own test run.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402  (sets the BLAS thread variables before numpy loads)
import layers  # noqa: E402
import session  # noqa: E402
import refclock  # noqa: E402
import tracing  # noqa: E402
from stats import MIN_BEYOND, rate, tail_percentile  # noqa: E402


def span(name, start, end, parent=-1):
    return (name, start, end, parent, 0, False)


# ---------------------------------------------------------------------------
# self time


def test_self_time_subtracts_nested_children():
    spans = [span("root", 0.0, 10.0), span("a", 1.0, 4.0, 0), span("a.x", 2.0, 3.0, 1),
             span("b", 5.0, 6.0, 0)]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [span("root", 0.0, 10.0), span("a", 1.0, 5.0, 0), span("b", 3.0, 7.0, 0),
             span("c", 6.5, 8.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 7.0)


def test_self_time_clips_children_to_the_parent():
    spans = [span("root", 2.0, 6.0), span("a", 0.0, 3.0, 0), span("b", 5.0, 9.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(2.0)


def test_summarize_all_spans_or_those_inside_a_call():
    spans = [span("f", 0.0, 4.0), span("op", 0.5, 1.0, 0), span("g", 1.0, 3.0, 0),
             span("op", 1.5, 2.0, 2), span("op", 5.0, 6.0)]
    st = tracing.summarize(spans)
    assert st["op"].calls == 3 and st["op"].total_s == pytest.approx(2.0)
    assert st["f"].self_s == pytest.approx(1.5) and st["g"].self_s == pytest.approx(1.5)
    in_f = tracing.summarize(spans, tracing.inside(spans, "f"))
    assert in_f["op"].calls == 2 and in_f["g"].self_s == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# tail percentile


@pytest.mark.parametrize("n, q", [(1000, 99), (5000, 99), (999, 98), (200, 95), (40, 75),
                                  (20, 50)])
def test_tail_percentile_is_the_highest_with_ten_samples_beyond(n, q):
    values = list(range(n, 0, -1))
    value, got_q, got_n = tail_percentile(values)
    assert (got_q, got_n) == (q, n)
    assert sum(v > value for v in values) >= MIN_BEYOND
    if q < 99:  # one percentile higher leaves fewer than ten beyond
        assert n - math.ceil((q + 1) * n / 100) < MIN_BEYOND


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail_percentile(list(range(19)))


def test_rate_is_total_work_over_total_time():
    # a fast and a slow call: the mean of their rates would be 5.5
    assert rate([(10, 1.0), (10, 10.0)]) == pytest.approx(20 / 11)


# ---------------------------------------------------------------------------
# reference-scaled time


def test_scaled_time_cancels_a_uniform_slowdown(monkeypatch):
    """A machine twice as slow doubles the wall time of both the call and
    the reference runs around it; the scaled time stays the same."""
    clock = [0.0]

    def work(seconds):
        clock[0] += seconds * slow
        return seconds * slow

    monkeypatch.setattr(refclock.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(refclock, "reference_seconds", lambda: work(refclock.REF_S))
    got = []
    for slow in (1.0, 2.0):
        t, out = refclock.timed(lambda x: (work(0.25), x)[1], "y")
        assert out == "y" and t.wall == pytest.approx(0.25 * slow)
        got.append(t.seconds)
    assert got == pytest.approx([0.25, 0.25])


def test_scaled_time_divides_by_the_median_reference_run(monkeypatch):
    """Runs before (1), inside (2, 3) and after (9) the call: median 2.5."""
    runs = iter([1.0, 2.0, 3.0, 9.0])
    monkeypatch.setattr(refclock, "REF_S", 1.0)
    monkeypatch.setattr(refclock, "reference_seconds", lambda: next(runs))

    def call():
        refclock._sample(None, None)
        refclock._sample(None, None)

    t, _ = refclock.timed(call)
    assert t.seconds == pytest.approx(t.wall / 2.5)


def test_reference_runs_inside_a_long_call_are_taken_out_of_it():
    def call():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass

    start = time.perf_counter()
    t, _ = refclock.timed(call)
    elapsed = time.perf_counter() - start
    assert len(refclock._inside) >= 3  # the timer ran the reference during the call
    assert 0.19 < t.wall < 0.2 and t.wall < elapsed


# ---------------------------------------------------------------------------
# wrappers


def _attrs(targets):
    return [(t.owner, t.attr, t.owner.__dict__[t.attr]) for t in targets]


def test_wrappers_record_spans_and_are_removed():
    from reachcast import trainer
    from reachcast.geometry import CameraIntrinsics, Pose, PoseChain
    targets = layers.targets()
    before = _attrs(targets)
    tracer = tracing.Tracer(targets)
    patch = tracer.install()
    try:
        assert len(tracing.wrapped_names(targets)) == len(targets)
        chain = PoseChain([Pose.identity()] * 2)
        intrinsics = CameraIntrinsics(fx=1, fy=1, ox=0, oy=0, width=4, height=4)
        trainer.project(chain.local_to_global([0.0, 0.0, 1.0], 1), intrinsics)
    finally:
        patch.remove()
    assert tracing.wrapped_names(targets) == []
    assert all(o.__dict__[a] is f for o, a, f in before)
    assert [s[0] for s in tracer.spans] == ["geometry.PoseChain.local_to_global",
                                            "geometry.project"]


def test_failed_install_unwinds():
    from reachcast import model
    targets = layers.targets()
    before = _attrs(targets)
    broken = targets + [tracing.Target(model, "no_such_function", "x")]
    with pytest.raises(KeyError):
        tracing.Tracer(broken).install()
    assert all(o.__dict__[a] is f for o, a, f in before)


# ---------------------------------------------------------------------------
# smoke runs


def _small(w):
    split = (4, 0, 2, 2) if w.preset == "paper" else (12, 0, 4, 4)
    return dataclasses.replace(w, split=split, epochs=2, batch=4, shard=4, round_shards=1,
                               round_fits=1, fit_samples=4, forecast_samples=4,
                               round_forecasts=20)


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(run, "gradcheck", lambda rec, cli: None)
    monkeypatch.setattr(session, "MIN_ROUNDS", 1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(session.WORKLOADS))
def test_smoke_run_emits_every_declared_metric(name, trace, tmp_path, quick):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    w = _small(session.WORKLOADS[name])
    metrics, meta, recs = run.measure(w, 3, 0.0, trace, tmp_path)
    assert {k: u for k, (_, u) in metrics.items()} == declared
    assert all(isinstance(v, float | int) for v, _ in metrics.values())
    assert sum(r.failed for r in recs) == 0
    assert tracing.wrapped_names(layers.targets()) == []
    if not trace:  # the request count follows from the arguments, not the program's speed
        assert meta["forecast_requests"] == meta["rounds"] * w.round_forecasts


def test_round_count_depends_on_seconds_only():
    for w in session.WORKLOADS.values():
        assert w.rounds(6 * w.round_seconds, False) == 6
        assert w.rounds(5 * w.round_seconds, True) == 6
        assert w.rounds(0.0, False) == session.MIN_ROUNDS
    assert session.setup_rounds(7) == {0, 3, 6}
    assert session.setup_rounds(2) == {0, 1}


def test_a_failed_forecast_fails_the_run(monkeypatch, capsys, quick):
    """A forecast that raises on one observation ratio (0.1) must end the
    run with exit 1 and no result line."""
    from reachcast import model
    original = model.forecast

    def forecast(params, cfg, frames, points, c):
        if c / len(frames) < 0.15:
            raise FloatingPointError("injected")
        return original(params, cfg, frames, points, c)

    monkeypatch.setitem(session.WORKLOADS, "train-desk", _small(session.WORKLOADS["train-desk"]))
    monkeypatch.setattr(model, "forecast", forecast)
    code = run.main(["--workload", "train-desk", "--seed", "3", "--seconds", "0",
                     "--trace", "0"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "forecast: FloatingPointError: injected" in err
    assert '"correct"' not in out


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(session.WORKLOADS)


def test_command_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "train-desk",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
