"""Tests of the benchmark's own logic: seeding, span self time, failure counting.

    python3 -m pytest perfbench/test_perfbench.py -q

They live beside the benchmark, outside the tier-1 ``tests/`` suite.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402
from anomdet import gram, protocols  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_items(name):
    make = workloads.WORKLOADS[name].make_items
    items = make(7, 5)
    assert items == make(7, 5)
    assert items != make(8, 5)
    assert len(items) >= 100
    keys = [(i.kind, i.n, i.k, i.param) for i in items]
    assert len(set(keys)) == len(keys), "items repeat within a run"


def test_closed_form_blocks_keep_their_composition():
    items = workloads.closed_form_items(3, 5)
    blocks = len(items) // sum(count for _, count in workloads.CLOSED_FORM_BLOCK)
    assert Counter(i.stratum for i in items) == {
        stratum: count * blocks for stratum, count in workloads.CLOSED_FORM_BLOCK}


@pytest.mark.parametrize("name, kind, max_n", [("oracle_float", "oracle_float", workloads.ORACLE_MAX_N),
                                               ("exact_algebra", "exact", workloads.EXACT_MAX_N)])
def test_grid_rounds_hold_every_cell_once(name, kind, max_n):
    items = workloads.WORKLOADS[name].make_items(3, 5)
    assert [i.batch for i in items] == sorted(i.batch for i in items)
    rounds = {}
    for i in items:
        rounds.setdefault(i.batch, []).append(i)
    for batch in rounds.values():
        assert sorted((i.n, i.k) for i in batch if i.kind == kind) == workloads.nk_grid(max_n)


def test_batch_quantile_averages_over_batches():
    item = workloads.closed_form_items(1, 1)[0]
    outcomes = [workloads.Outcome(dataclasses.replace(item, batch=b), ms * 1e-3, None)
                for b, times in enumerate([[1, 2, 3], [11, 12, 13]]) for ms in times]
    assert workloads.batch_quantile(outcomes, 0.5) == pytest.approx(7)


def test_self_time_of_nested_spans(monkeypatch):
    layer = types.ModuleType("fakepkg.layer")
    exec("__all__ = ['outer', 'inner']\n"
         "def inner():\n    return 1\n"
         "def outer():\n    return inner() + inner()\n", layer.__dict__)
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    monkeypatch.setitem(sys.modules, "fakepkg.layer", layer)
    ticks = iter(range(0, 10_000, 10))  # every clock read advances 10 ns
    tracer = spans.Tracer(clock=lambda: next(ticks))
    tracer.install("fakepkg", ["layer"])
    try:
        assert tracer.item(5, lambda: layer.outer()) == 2
    finally:
        tracer.remove()
    assert layer.outer.__name__ == "outer" and not hasattr(layer.outer, "__wrapped__")

    # reads: root 0, outer 10, inner 20-30, inner 40-50, outer 60, root 70
    stats = tracer.stats
    assert (stats["layer.inner"].calls, stats["layer.inner"].self_ns) == (2, 20)
    assert (stats["layer.outer"].total_ns, stats["layer.outer"].self_ns) == (50, 30)
    assert (stats[spans.ROOT].total_ns, stats[spans.ROOT].self_ns) == (70, 20)
    assert sum(s.self_ns for s in stats.values()) == stats[spans.ROOT].total_ns

    by_name = {}
    for span_id, name, start, end, parent, item in tracer.spans:
        by_name.setdefault(name, []).append((span_id, start, end, parent, item))
    (root_id, _, _, root_parent, _), = by_name[spans.ROOT]
    (outer_id, _, _, outer_parent, _), = by_name["layer.outer"]
    assert root_parent is None and outer_parent == root_id
    assert [span[3] for span in by_name["layer.inner"]] == [outer_id, outer_id]
    assert {span[4] for spans_ in by_name.values() for span in spans_} == {5}


def test_errors_are_counted_on_every_span_they_cross(monkeypatch):
    layer = types.ModuleType("fakepkg.layer")
    exec("__all__ = ['outer', 'inner']\n"
         "def inner():\n    raise OverflowError\n"
         "def outer():\n    return inner()\n", layer.__dict__)
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    monkeypatch.setitem(sys.modules, "fakepkg.layer", layer)
    tracer = spans.Tracer()
    tracer.install("fakepkg", ["layer"])
    try:
        with pytest.raises(OverflowError):
            tracer.item(0, layer.outer)
    finally:
        tracer.remove()
    assert tracer.stats["layer.inner"].errors == tracer.stats["layer.outer"].errors == 1


def _small_items(count=6):
    items = workloads.closed_form_items(11, 1)
    return [i for i in items if i.stratum == "small_k"][:count]


def test_correct_outputs_pass():
    outcomes = [workloads.run_item(i) for i in _small_items()]
    assert [o.failure for o in outcomes] == [None] * len(outcomes)
    assert workloads.end_to_end(outcomes)["passed_ratio"][0] == 1


def test_planted_wrong_value_counts_as_failed(monkeypatch):
    real = protocols.min_error_success

    def planted(instance):
        result = real(instance)
        return dataclasses.replace(result, value=result.value * (1 - 1e-6))

    monkeypatch.setattr(protocols, "min_error_success", planted)
    items = _small_items()
    outcomes = [workloads.run_item(i) for i in items]
    assert all(o.failure and o.failure.startswith("check:") for o in outcomes)
    metrics = workloads.end_to_end(outcomes)
    assert metrics["passed_ratio"][0] == 0
    assert metrics["items_per_s"][0] == 0


def test_exception_counts_as_failed(monkeypatch):
    def broken(instance):
        raise ArithmeticError("planted")

    monkeypatch.setattr(gram, "closed_form_spectrum", broken)
    outcomes = [workloads.run_item(i) for i in _small_items(3)]
    assert [o.failure for o in outcomes] == ["raise:ArithmeticError"] * 3


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "closed_form", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
