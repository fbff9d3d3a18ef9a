"""Runs a workload: set-ups, timed passes, checks, and the metric report."""

from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from . import layers
from .digest import Digest, load_record
from .speed import Speed
from .stats import failed_frac, percentile
from .tracer import Tracer, wrapped_names

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5

#: Input variants: ``--seed`` selects variant ``seed % VARIANTS``, and
#: ``digests.json`` records the digest of every variant, so a run on any
#: seed is checked against a recorded digest.
VARIANTS = 100


def variant(seed: int) -> int:
    """The recorded input variant a ``--seed`` selects."""
    return seed % VARIANTS


class _Clock:
    seconds = 0.0


def timer(tracer: Tracer | None = None):
    """The ``timed()`` factory handed to workloads: a wall clock around
    the public call, which also opens and closes the tracer's block."""

    @contextmanager
    def timed() -> Iterator[_Clock]:
        clock = _Clock()
        if tracer is not None:
            tracer.begin_block()
        start = time.perf_counter()
        try:
            yield clock
        finally:
            clock.seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.end_block()

    return timed


@dataclass
class PassResult:
    """Units of one pass.  Timings are rescaled to the nominal machine
    speed (:mod:`perfbench.speed`); ``raw_wall`` keeps the wall clock."""

    units: int = 0
    wall: float = 0.0
    raw_wall: float = 0.0
    samples: list[float] = field(default_factory=list)
    setup: float = 0.0
    attempted: int = 0
    failed: int = 0
    stats: list[Any] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    digest: str = ""

    def absorb(self, unit: Any, scale: float) -> None:
        self.units += 1
        self.wall += unit.wall * scale
        self.raw_wall += unit.wall
        self.samples.extend(sample * scale for sample in unit.samples)
        self.attempted += unit.attempted
        self.failed += unit.failed
        self.stats.extend(unit.stats)
        for name, value in unit.counters.items():
            if ".max_" in name:
                self.counters[name] = max(self.counters.get(name, value),
                                          value)
            else:
                self.counters[name] = self.counters.get(name, 0) + value


def fresh_world(workload: Any, seed: int, speed: Speed) -> tuple[Any, float]:
    """Build a world; return it with its rescaled set-up time."""
    gc.collect()
    speed.sample()
    start = time.perf_counter()
    world = workload.setup(seed)
    end = time.perf_counter()
    speed.sample()
    return world, (end - start) * speed.scale(start, end)


def units_for(workload: Any, seconds: float) -> int:
    """Units a run of ``seconds`` does: ``workload.units_per_s`` per
    second and at least ``min_units``.  The work is fixed, not the time,
    so both sides of a comparison do the same work."""
    return max(workload.min_units, math.ceil(seconds * workload.units_per_s))


def run_pass(workload: Any, seed: int, units: int, *,
             tracer: Tracer | None = None,
             speed: Speed | None = None) -> PassResult:
    """Build a fresh world and run ``units`` units on it in order.  The
    digest covers the first ``workload.digest_units`` units."""
    if units < workload.digest_units:
        raise ValueError("a pass must run every unit the digest covers")
    speed = Speed() if speed is None else speed
    timed = timer(tracer)
    result = PassResult()
    world, took = fresh_world(workload, seed, speed)
    result.setup = took
    digest = Digest()
    spans: list[tuple[Any, float, float]] = []
    for index in range(units):
        speed.tick()
        begin = time.perf_counter()
        unit = workload.unit(world, index, timed)
        spans.append((unit, begin, time.perf_counter()))
        if index < workload.digest_units:
            for record in unit.records:
                digest.add(record)
    speed.sample()
    for unit, begin, end in spans:
        result.absorb(unit, speed.scale(begin, end))
    result.digest = digest.hexdigest()
    return result


def check_digest(workload: Any, seed: int, digest: str,
                 record: dict[str, Any] | None = None) -> bool:
    """True only when a digest is recorded for this seed and equals
    ``digest``.  A run on an unrecorded seed cannot show that behaviour
    is unchanged, so it is not correct."""
    record = load_record() if record is None else record
    entry = record.get(workload.name)
    if entry is None or str(seed) not in entry.get("seeds", {}):
        print(f"perfbench: no digest recorded for {workload.name} "
              f"seed {seed} (got {digest}); record it with "
              f"python3 -m perfbench.record --workload {workload.name} "
              f"--seeds {seed}", file=sys.stderr)
        return False
    if entry.get("units") != workload.digest_units:
        print(f"perfbench: digest record for {workload.name} covers "
              f"{entry.get('units')} units, the workload hashes "
              f"{workload.digest_units}", file=sys.stderr)
        return False
    expected = entry["seeds"][str(seed)]
    if digest != expected:
        print(f"perfbench: DIGEST MISMATCH for {workload.name} seed {seed}: "
              f"recorded {expected}, got {digest}", file=sys.stderr)
        return False
    return True


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


def end_to_end(run: PassResult, setups: list[float]) -> dict[str, Any]:
    completed = run.attempted - run.failed
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "query_p50_ms": _metric(1000 * percentile(run.samples, 0.5), "ms"),
        "query_p90_ms": _metric(1000 * percentile(run.samples, 0.9), "ms"),
        "queries_per_s": _metric(completed / run.wall, "1/s"),
        "peak_rss_mib": _metric(rss_mib, "MiB"),
        "answered_frac": _metric(
            1.0 - failed_frac(run.failed, run.attempted), "frac"),
    }


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(traced: PassResult, plain: PassResult,
              tracer: Tracer) -> dict[str, Any]:
    """Per-query self times and counts from the traced pass.  Self times
    are rescaled by the traced pass's mean speed scale."""
    queries = traced.attempted
    counts, c = tracer.counts, traced.counters
    scale = traced.wall / traced.raw_wall
    out: dict[str, Any] = {}
    for bucket in layers.BUCKETS:
        out[f"{bucket}_ms"] = _metric(
            tracer.self_ns.get(bucket, 0) * scale / 1e6 / queries, "ms")

    def per_query(name: str, value: float) -> None:
        out[name] = _metric(value / queries, "count")

    per_query("drivers.route_hops", counts.get("drivers.route_hops", 0))
    per_query("engine.processed", sum(s.processed for s in traced.stats))
    per_query("engine.messages",
              sum(s.total_messages for s in traced.stats))
    per_query("engine.events", counts.get("engine.events", 0))
    checks = counts.get("handler.link_checks", 0)
    per_query("handler.link_checks", checks)
    out["handler.link_pruned_frac"] = _metric(
        _share(counts.get("handler.link_pruned", 0), checks), "frac")
    hits = counts.get("store.cache_hits", 0)
    out["store.cache_hit_frac"] = _metric(
        _share(hits, hits + counts.get("store.cache_misses", 0)), "frac")
    per_query("substrate.links_calls", counts.get("substrate.links_calls", 0))
    per_query("substrate.intersect_calls",
              counts.get("substrate.intersect_calls", 0))
    lookups = c.get("cache.lookups", 0)
    out["cache.hit_frac"] = _metric(_share(c.get("cache.hits", 0), lookups),
                                    "frac")
    out["cache.semantic_hit_frac"] = _metric(
        _share(c.get("cache.semantic_hits", 0), lookups), "frac")
    per_query("cache.invalidations", c.get("cache.invalidations", 0))
    completed = c.get("scheduler.completed", 0)
    out["scheduler.queue_delay_mean"] = _metric(
        _share(c.get("scheduler.admission_wait", 0), completed), "ticks")
    out["scheduler.peer_queue_delay_mean"] = _metric(
        _share(c.get("scheduler.peer_wait", 0), completed), "ticks")
    out["scheduler.max_saturation"] = _metric(
        c.get("scheduler.max_saturation", 0.0), "frac")
    out["trace.coverage"] = _metric(tracer.coverage, "frac")
    out["trace.catchall_frac"] = _metric(
        _share(sum(tracer.self_ns.get(b, 0) for b in layers.CATCH_ALL),
               tracer.block_ns), "frac")
    out["trace.overhead"] = _metric(traced.wall / plain.wall, "ratio")
    return out


def run(workload: Any, seed: int, seconds: float, trace: bool
        ) -> dict[str, Any]:
    """One benchmark run; returns the result object the CLI prints."""
    print(f"perfbench: {workload.name}: seed {seed} selects input "
          f"variant {variant(seed)}", file=sys.stderr)
    seed = variant(seed)
    if not trace:
        leaked = wrapped_names(layers.probes())
        if leaked:
            raise RuntimeError(f"untraced run sees wrapped functions: {leaked}")
        speed = Speed()
        plain = run_pass(workload, seed, units_for(workload, seconds),
                         speed=speed)
        setups = [plain.setup] + [fresh_world(workload, seed, speed)[1]
                                  for _ in range(SETUPS - 1)]
        digest_ok = check_digest(workload, seed, plain.digest)
        _log(workload, plain, digest_ok)
        return _result(plain, digest_ok and plain.failed == 0,
                       end_to_end(plain, setups))

    # A third of the work traced, then the same units untraced: the
    # reference for the tracing overhead and for the traced digest.  The
    # two passes together take about as long as an untraced run.
    probes = layers.probes()
    speed = Speed()
    tracer = Tracer()
    tracer.install(probes)
    try:
        traced = run_pass(workload, seed, units_for(workload, seconds / 3),
                          tracer=tracer, speed=speed)
    finally:
        tracer.uninstall()
    leaked = wrapped_names(probes)
    if leaked:
        raise RuntimeError(f"wrappers left after uninstall: {leaked}")
    plain = run_pass(workload, seed, traced.units, speed=speed)
    same = traced.digest == plain.digest
    if not same:
        print(f"perfbench: traced digest {traced.digest} differs from "
              f"untraced {plain.digest}", file=sys.stderr)
    digest_ok = same and check_digest(workload, seed, plain.digest)
    _log(workload, traced, digest_ok)
    correct = digest_ok and traced.failed == 0 and plain.failed == 0
    return _result(traced, correct, per_layer(traced, plain, tracer))


def _result(run: PassResult, correct: bool,
            metrics: dict[str, Any]) -> dict[str, Any]:
    return {"correct": correct, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def _log(workload: Any, run: PassResult, digest_ok: bool) -> None:
    print(f"perfbench: {workload.name}: {run.units} units, "
          f"{run.attempted} queries ({len(run.samples)} latency samples), "
          f"failed_frac {failed_frac(run.failed, run.attempted)}, "
          f"timed wall {run.raw_wall:.3f} s (rescaled {run.wall:.3f} s), "
          f"digest {run.digest} ({'ok' if digest_ok else 'FAILED'})",
          file=sys.stderr)
