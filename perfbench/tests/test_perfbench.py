"""The benchmark's own tests, at a tiny size.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from perfbench import harness, loadgen
from perfbench.harness import END_TO_END, PER_LAYER, require_program
from perfbench.run import WORKLOADS, run_workload
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]
SECONDS = "2"

require_program()


def _run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    completed = _run_cli(
        "--workload", workload, "--seed", "3", "--seconds", SECONDS,
        "--trace", trace, "--tiny",
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, completed.stderr
    assert result["attempted"] >= 1
    catalogue = PER_LAYER if trace == "1" else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == catalogue
    for name, unit in catalogue.items():
        value = result["metrics"][name]["value"]
        assert any(
            line.startswith(f"{workload} {name} = ") and line.endswith(f" {unit}")
            for line in lines[:-1]
        ), name
        if trace == "0":
            assert value > 0, name
    assert any(line.startswith(f"{workload} error_rate = 0 ") for line in lines)


def _drop_matches(monkeypatch, cls, predicate=lambda self: True):
    """Make ``cls.search`` answer wrongly: no matches at all."""
    original = cls.search

    def wrong(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        if predicate(self) and result.matches:
            result = type(result)(
                matches=[], stats=result.stats, k=result.k, theta=result.theta,
                beta=result.beta, t=result.t,
            )
        return result

    monkeypatch.setattr(cls, "search", wrong)


def test_wrong_answer_counts_in_error_rate_sweep(monkeypatch):
    from repro.core.search import NearDuplicateSearcher
    from repro.index.cache import CachedIndexReader

    # Only the measured searcher (over the cached disk reader) is wrong,
    # and only on some queries; the in-memory checks stay right.
    calls = iter(range(10**9))
    _drop_matches(
        monkeypatch, NearDuplicateSearcher,
        lambda self: isinstance(self.index, CachedIndexReader) and next(calls) % 7 == 3,
    )
    outcome = run_workload("sweep_cold", 3, 1.0, False, tiny=True)
    assert outcome.failed >= 1
    assert not outcome.correct
    assert outcome.info["error_rate"] > 0


def test_wrong_answer_counts_in_error_rate_live(monkeypatch):
    from repro.query.resultcache import CachingSearcher

    _drop_matches(monkeypatch, CachingSearcher)
    outcome = run_workload("live_dedup_ingest", 3, 1.0, False, tiny=True)
    assert outcome.failed >= 1
    assert not outcome.correct


def test_served_answer_differing_between_requests_is_counted():
    from perfbench.serve_zipf import Answers

    answers = Answers()
    good = {"matches": [{"text_id": 1}]}
    answers(loadgen.Sample(0, 1.0, 1.0, 200, {"result": good}))
    answers(loadgen.Sample(0, 1.0, 1.0, 200, {"result": {"matches": []}}))
    assert answers.wrong_samples == 1 and answers.mismatched == {0}


def test_traced_and_untraced_take_the_same_path():
    outcome = run_workload("sweep_cold", 3, 1.0, True, tiny=True)
    assert outcome.correct
    assert outcome.info["executor_modes"] == ["planned"]
    assert outcome.info["path_identical"] is True
    assert outcome.metrics["index.storage.load_list_calls"] > 0
    assert outcome.metrics["core.intervals.kernel_calls"] > 0


def test_sweep_latencies_cover_whole_batches(tmp_path):
    """Planning and pinning are charged to the queries of their batch,
    and slices separated by a pause add up to one sweep whose measured
    time leaves the pause out."""
    from perfbench import inputs, sweep_cold

    scale = sweep_cold.TINY
    data = inputs.corpus(scale.texts, scale.mean_length, 3, duplicate_rate=0.15)
    pool = inputs.sweep_queries(data, scale.queries, 3)
    _, disk, _ = sweep_cold._setup(data, tmp_path / "index")
    budget = sweep_cold._cache_budget(disk, pool.queries[: scale.budget_queries])
    sweep = sweep_cold.Sweep(disk, budget, pool.queries, scale.batch)
    sweep.run_for(0.3)
    first = len(sweep.phase.results)
    time.sleep(0.3)
    sweep.run_for(0.3)
    phase = sweep.close()
    assert 0 < first < len(phase.results) <= len(pool.queries)
    assert len(phase.latencies_ms) == len(phase.results)
    assert phase.batch_ends == sorted(phase.batch_ends)
    assert phase.batch_ends[-1] == pytest.approx(phase.wall_s, abs=1e-3)
    assert phase.wall_s < 0.3 + 0.3 + 2 * max(phase.latencies_ms) * scale.batch / 1e3
    assert sum(phase.latencies_ms) / 1e3 == pytest.approx(phase.wall_s, rel=0.05)


@pytest.mark.parametrize("capacity", [0, 5, 30, 60, 100])
@pytest.mark.parametrize("start", [10, 40, 80])
def test_ladder_walk_finds_the_highest_passing_rung(capacity, start):
    """With verdicts that pass up to a capacity rung, the walk ends with
    that rung as the highest known pass, from either side."""
    from perfbench.serve_zipf import _walk

    known: dict[int, bool] = {}
    for rung in _walk(start, known):
        known[rung] = rung <= capacity
    assert max(rung for rung, passed in known.items() if passed) == capacity
    walked = range(capacity, start + 1) if capacity < start else range(start, capacity + 2)
    assert set(known) == set(walked)


def test_missing_program_exits_nonzero_without_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run_cli(
        "--workload", "sweep_cold", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


# -- tracer units ---------------------------------------------------------
def test_self_time_subtracts_children():
    tracer = Tracer()

    def child():
        time.sleep(0.02)

    traced_child = tracer.wrap("child", child)

    def parent():
        traced_child()
        traced_child()
        time.sleep(0.01)

    tracer.wrap("parent", parent, request=True)()
    layers = tracer.layers()
    assert layers["child"].calls == 2
    assert layers["parent"].self_s == pytest.approx(
        layers["parent"].total_s - layers["child"].total_s
    )
    assert 0.005 < layers["parent"].self_s < layers["child"].total_s
    request_ids = {span.request_id for span in tracer.spans}
    assert len(request_ids) == 1


def test_patch_restores_instance_class_and_module_attributes():
    class Thing:
        def value(self):
            return 1

    thing = Thing()
    module = types.SimpleNamespace(function=lambda: 2)
    tracer = Tracer()
    with tracer.patch(thing, "value", "instance"), \
            tracer.patch(Thing, "value", "class"), \
            tracer.patch(module, "function", "module"):
        assert isinstance(thing, Thing)
        assert thing.value() == 1
        assert Thing().value() == 1
        assert module.function() == 2
    assert "value" not in thing.__dict__
    assert not hasattr(Thing.__dict__["value"], "__wrapped__")
    assert not hasattr(module.function, "__wrapped__")
    assert [span.name for span in tracer.spans] == ["instance", "class", "module"]


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_percentile_matches_statistics_median():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]
    assert harness.percentile(values, 50) == pytest.approx(3.5)
    assert harness.percentile(values, 0) == 1.0
    assert harness.percentile(values, 100) == 9.0
