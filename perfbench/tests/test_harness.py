"""Tests of the benchmark harness itself (not of the repro package).

Run from the repository root::

    PYTHONPATH=src:. python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro import (LinearScore, MidasOverlay, QueryStats, distributed_skyline,
                   distributed_topk, skyline_reference, topk_reference)
from repro.baselines import dsl
from repro.queries import skyline

from perfbench import harness, layers, workloads
from perfbench.digest import Digest
from perfbench.oracles import topk_oracle
from perfbench.speed import REFERENCE_S, SENSITIVITY, Speed
from perfbench.stats import MIN_QUERIES, failed_frac, percentile
from perfbench.tracer import Tracer, root_time, self_times, wrapped_names

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


# -- self time ------------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [(0, 100, -1),   # root
             (10, 30, 0),    # child
             (20, 25, 1),    # grandchild
             (40, 60, 0)]    # second child
    assert self_times(spans) == [60, 15, 5, 20]
    assert root_time(spans) == 100


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [(0, 100, -1),
             (10, 50, 0),
             (30, 70, 0),     # overlaps its sibling: union is 10..70
             (90, 120, 0)]    # runs past the parent: clipped at 100
    assert self_times(spans)[0] == 100 - 60 - 10


def test_root_time_is_the_union_of_roots():
    spans = [(0, 10, -1), (5, 15, -1), (30, 40, -1), (31, 32, 2)]
    assert root_time(spans) == 25


# -- percentile and failure rules -------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile([3.0], 0.9) == 3.0
    assert percentile([5, 1, 4, 2, 3], 0.5) == 3
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_p90_needs_a_hundred_samples_for_ten_beyond_it():
    values = list(range(MIN_QUERIES))
    beyond = [v for v in values if v > percentile(values, 0.9)]
    assert len(beyond) == 10
    for workload in (workloads.SkylineMidas, workloads.TopKArena):
        assert workload.min_units >= 100


def test_failed_frac_counts_failures_against_attempts():
    assert failed_frac(0, 10) == 0.0
    assert failed_frac(3, 12) == 0.25
    with pytest.raises(ValueError):
        failed_frac(0, 0)
    with pytest.raises(ValueError):
        failed_frac(5, 4)


def _unit(run, expected):
    return workloads._closed_loop_unit(harness.timer(), run, expected)


def test_a_raising_or_wrong_query_is_a_failed_query():
    class Result:
        answer = [1, 2]
        stats = QueryStats()

    def boom():
        raise RuntimeError("engine fault")

    assert _unit(lambda: Result(), lambda: [1, 2]).failed == 0
    assert _unit(lambda: Result(), lambda: [1, 3]).failed == 1
    raised = _unit(boom, lambda: [1, 2])
    assert (raised.attempted, raised.failed) == (1, 1)


# -- oracles ------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_overlay():
    data = np.random.default_rng(4).random((600, 3)) * 0.999
    overlay = MidasOverlay(3, size=1, seed=2, join_policy="data")
    overlay.load(data)
    overlay.grow_to(24)
    return overlay, data


def test_topk_oracle_matches_the_scalar_reference():
    data = np.random.default_rng(1).random((2_000, 3))
    fn = LinearScore([0.3, 1.1, 0.7])
    assert topk_oracle(data, fn, 25) == topk_reference(data, fn, 25)
    assert topk_oracle(data[:5], fn, 25) == topk_reference(data[:5], fn, 25)


def test_oracles_accept_the_engine_and_catch_a_perturbed_answer(
        small_overlay):
    overlay, data = small_overlay
    fn = LinearScore([0.5, 1.0, 0.25])
    top = distributed_topk(overlay.peers()[3], fn, 8,
                           restriction=overlay.domain(), r=2).answer
    assert top == topk_oracle(data, fn, 8)
    score, point = top[-1]
    for bad in (top[:-1], top[:-2] + [top[-1], top[-2]],
                top[:-1] + [(np.nextafter(score, 2.0), point)]):
        assert bad != topk_oracle(data, fn, 8)

    sky = distributed_skyline(overlay.peers()[5], 3,
                              restriction=overlay.domain(), r=0).answer
    assert sky == skyline_reference(data)
    moved = sky[:-1] + [tuple(v + 1e-12 for v in sky[-1])]
    assert moved != skyline_reference(data)
    assert sky[1:] != skyline_reference(data)


# -- digest -------------------------------------------------------------------

def test_digest_catches_a_change_to_any_single_stats_field():
    answer = [(0.9, (0.1, 0.2))]
    base = QueryStats(latency=4, processed=7, forward_messages=6,
                      response_messages=2, answer_messages=3,
                      tuples_shipped=9)

    def digest_of(stats):
        digest = Digest()
        digest.add([answer, stats])
        return digest.hexdigest()

    reference = digest_of(base)
    assert digest_of(dataclasses.replace(base)) == reference
    for spec in dataclasses.fields(QueryStats):
        value = getattr(base, spec.name)
        changed = dataclasses.replace(base, **{spec.name: value + 1})
        assert digest_of(changed) != reference, spec.name


def test_digest_sees_float_bits_and_order():
    def digest_of(*records):
        digest = Digest()
        for record in records:
            digest.add(record)
        return digest.hexdigest()

    assert digest_of([0.1]) != digest_of([np.nextafter(0.1, 1.0)])
    assert digest_of([1], [2]) != digest_of([2], [1])
    assert digest_of([np.float64(0.5)]) == digest_of([0.5])


# -- tracing hygiene ----------------------------------------------------------

def test_tracer_patches_every_import_and_restores_the_originals():
    original = skyline.merge_skylines
    assert dsl.merge_skylines is original
    assert wrapped_names() == []
    probes = layers.probes()
    tracer = Tracer()
    tracer.install(probes)
    try:
        assert skyline.merge_skylines is not original
        assert dsl.merge_skylines is skyline.merge_skylines
        assert "repro.baselines.dsl.merge_skylines" in wrapped_names()
        tracer.begin_block()
        skyline.merge_skylines([(0.0, 1.0)], [(1.0, 0.0)])
        tracer.end_block()
        assert tracer.self_ns["handler.merge"] > 0
        assert tracer.blocks == 1
    finally:
        tracer.uninstall()
    assert skyline.merge_skylines is original
    assert dsl.merge_skylines is original
    assert wrapped_names(probes) == []


def test_probe_buckets_are_known_layers():
    for probe in layers.probes():
        assert probe.bucket is None or probe.bucket in layers.BUCKETS


# -- speed reference ----------------------------------------------------------

def test_speed_scale_is_nominal_over_the_nearby_median():
    speed = Speed()
    # A fast second, then a machine twice as slow.
    speed.times = [0.1 * i for i in range(40)]
    speed.durations = [REFERENCE_S] * 20 + [2 * REFERENCE_S] * 20
    slow = 0.5 ** SENSITIVITY
    assert speed.scale(0.0, 0.5) == pytest.approx(1.0)
    assert speed.scale(3.2, 3.6) == pytest.approx(slow)
    # Far from every sample, the nearest ones decide.
    assert speed.scale(100.0, 101.0) == pytest.approx(slow)
    with pytest.raises(ValueError):
        Speed().scale(0.0, 1.0)


# Scaled-down copies of the workloads, for whole-harness runs.

class TinySkyline(workloads.SkylineMidas):
    name = "tiny-skyline"
    tuples, peers, networks = 400, 16, 2
    digest_units = min_units = 3


class TinyTopK(workloads.TopKArena):
    name = "tiny-topk"
    peers, per_peer = 512, 4
    digest_units = min_units = 4


class TinyServe(workloads.ServeZipfWrites):
    name = "tiny-serve"
    tuples, peers, phase_queries, phase_writes = 1_500, 48, 20, 8
    digest_units, min_units = 2, 2


class Spy(TinySkyline):
    """Records whether the layer functions were wrapped during its units."""

    def __init__(self):
        self.saw_wrapped = []

    def unit(self, world, index, timed):
        self.saw_wrapped.append(bool(wrapped_names()))
        return super().unit(world, index, timed)


@pytest.fixture
def recorded(monkeypatch):
    """Record the digest of a workload's seed, as perfbench.record does."""
    record = {}

    def add(workload, seed):
        digest = harness.run_pass(workload, seed,
                                  workload.digest_units).digest
        record[workload.name] = {"units": workload.digest_units,
                                 "seeds": {str(seed): digest}}

    monkeypatch.setattr(harness, "load_record", lambda: record)
    return add


def test_untraced_run_sees_the_original_functions(recorded):
    recorded(Spy(), 1)
    spy = Spy()
    result = harness.run(spy, seed=1, seconds=0.0, trace=False)
    assert result["correct"]
    assert spy.saw_wrapped and not any(spy.saw_wrapped)

    spy = Spy()
    result = harness.run(spy, seed=1, seconds=0.0, trace=True)
    assert result["correct"]
    # Traced pass first, then the untraced replay of the same units.
    half = len(spy.saw_wrapped) // 2
    assert all(spy.saw_wrapped[:half]) and not any(spy.saw_wrapped[half:])
    assert wrapped_names() == []


@pytest.mark.parametrize("workload", [TinySkyline, TinyTopK, TinyServe])
def test_runs_report_every_metric_and_traced_digest_matches(workload,
                                                             recorded):
    recorded(workload(), 2)
    plain = harness.run(workload(), seed=2, seconds=0.0, trace=False)
    assert plain["correct"] and plain["failed"] == 0
    assert set(plain["metrics"]) == {m["name"]
                                     for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["end_to_end"]:
        assert plain["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert plain["metrics"][metric["name"]]["value"] > 0

    traced = harness.run(workload(), seed=2, seconds=0.0, trace=True)
    # ``correct`` includes traced digest == untraced digest.
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == {m["name"]
                                      for m in BENCHMARK["per_layer"]}
    for metric in BENCHMARK["per_layer"]:
        assert traced["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert traced["metrics"]["trace.coverage"]["value"] > 0.5
    assert 0 < traced["metrics"]["trace.catchall_frac"]["value"] < 1


def test_benchmark_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(workloads.WORKLOADS)


def test_a_recorded_digest_must_match():
    record = {"skyline-midas": {"units": 30, "seeds": {"1": "abc"}}}
    workload = workloads.SkylineMidas()
    assert harness.check_digest(workload, 1, "abc", record)
    assert not harness.check_digest(workload, 1, "abd", record)
    # An unrecorded seed cannot show unchanged behaviour.
    assert not harness.check_digest(workload, 2, "abc", record)
    stale = {"skyline-midas": {"units": 29, "seeds": {"1": "abc"}}}
    assert not harness.check_digest(workload, 1, "abc", stale)


def test_every_recorded_seed_covers_every_workload():
    record = json.loads((Path(workloads.__file__).with_name("digests.json"))
                        .read_text())
    assert set(record) == set(workloads.WORKLOADS)
    seeds = [set(entry["seeds"]) for entry in record.values()]
    assert all(s == seeds[0] for s in seeds)
    assert {str(n) for n in range(harness.VARIANTS)} <= seeds[0]


def test_every_seed_selects_a_recorded_variant():
    assert harness.variant(7) == 7
    assert harness.variant(1101796400) == 0
    assert harness.variant(1101796401) == 1
    assert harness.variant(-1) == harness.VARIANTS - 1
