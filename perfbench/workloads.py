"""The three workloads, each a seeded world plus a sequence of units.

A *unit* is the smallest timed piece: one query for the closed-loop
workloads, one serving phase for ``serve-zipf-writes``.  Unit ``i`` draws
its inputs from ``(seed, i)`` alone, so any prefix of units is the same
on every run with that seed.

Each workload's base dataset comes from a fixed data seed, because its
shape sets the cost of every query: on the fig8-shaped data the global
skyline holds 270 to 510 tuples depending on the data seed, and per-query
time follows it.  For the same reason the arena of ``topk-arena`` and the
network of ``serve-zipf-writes`` come from fixed seeds: per-query cost on
the arena differed by 12% between two network seeds.  ``skyline-midas``
instead spreads its queries over four networks joined from ``--seed``.
``--seed`` draws those networks, the query stream and the written tuples.

``units_per_s`` sizes a run: a run of ``--seconds`` does that many units
per second (:func:`perfbench.harness.units_for`), which takes about
``--seconds`` on a 2-vCPU x86-64 VM.
"""

from __future__ import annotations

import traceback
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import repro
from repro import (SLOW, CacheDirectory, LinearScore, MidasOverlay,
                   QueryCompleted, QueryEngine, SkylineHandler,
                   WorkloadSpec, skyline_reference)
from repro.data.synth import synth_clustered
from repro.overlays import arena as arena_module
from repro.overlays.arena_build import midas_arena

from .oracles import topk_oracle
from .stats import MIN_QUERIES

#: ``timed()`` returns a context manager whose value has ``.seconds``
#: once the block exits; the harness owns the clock and the tracer.
Timed = Callable[[], AbstractContextManager]

_RS = (0, 2, SLOW)

#: Seed of the warm-up inputs, the same for every run: ``setup_s`` then
#: varies with the network only, not with the queries that warmed it.
_WARM_UP = 0


@dataclass
class Unit:
    """What one unit did: its timed wall, per-query samples and checks."""

    wall: float
    #: Per-query wall seconds (one per query; a serving phase contributes
    #: its wall divided by its query count).
    samples: list[float]
    attempted: int
    failed: int
    #: Simulated cost of every attempted query (``QueryStats``).
    stats: list[Any]
    #: Records hashed into the behaviour digest.
    records: list[Any]
    #: Workload-specific counters (cache, scheduler), summed over a run;
    #: names containing ``.max_`` take the maximum instead.
    counters: dict[str, float] = field(default_factory=dict)


def _rng(seed: int, salt: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, salt, index])


def _closed_loop_unit(timed: Timed, run: Callable[[], Any],
                      expected: Callable[[], Any]) -> Unit:
    """Time one query; check it against the oracle outside the clock."""
    try:
        with timed() as clock:
            result = run()
    except Exception as exc:  # a raising query is a failed query
        traceback.print_exc()
        return Unit(wall=clock.seconds, samples=[clock.seconds],
                    attempted=1, failed=1, stats=[],
                    records=[["raised", type(exc).__name__]])
    ok = result.answer == expected()
    return Unit(wall=clock.seconds, samples=[clock.seconds], attempted=1,
                failed=0 if ok else 1, stats=[result.stats],
                records=[[result.answer, result.stats]])


class SkylineMidas:
    """fig8 shape: skyline queries on 200-peer boundary-linked MIDAS
    networks over the same data."""

    name = "skyline-midas"
    dims, tuples, peers = 4, 4_000, 200
    #: Independently joined networks per world, queried in rotation.  Per
    #: query cost follows the network's join points, so one network per
    #: seed made the slowest tenth of queries swing from seed to seed.
    networks = 4
    data_seed = 8
    digest_units = 30
    min_units = MIN_QUERIES
    units_per_s = 7.0

    def setup(self, seed: int) -> dict[str, Any]:
        data = synth_clustered(self.tuples, self.dims, clusters=200,
                               rng=np.random.default_rng(self.data_seed))
        nets = []
        for net in range(self.networks):
            overlay = MidasOverlay(
                self.dims, size=1, seed=int(_rng(seed, 0x4E, net).integers(
                    2 ** 31)),
                join_policy="data", split_rule="midpoint",
                link_policy="boundary")
            overlay.load(data)
            overlay.grow_to(self.peers)
            nets.append({"peers": overlay.peers(),
                         "domain": overlay.domain()})
            for index, r in enumerate(_RS):  # warm-up: each r once
                self._query(nets[-1], _rng(_WARM_UP, 0x3A, index), r)
        return {"seed": seed, "data": data, "nets": nets, "oracle": None}

    def _query(self, net: dict[str, Any], rng: np.random.Generator,
               r: int) -> Any:
        peers = net["peers"]
        initiator = peers[int(rng.integers(len(peers)))]
        return repro.distributed_skyline(initiator, self.dims,
                                         restriction=net["domain"], r=r)

    def _expected(self, world: dict[str, Any]) -> Any:
        if world["oracle"] is None:
            world["oracle"] = skyline_reference(world["data"])
        return world["oracle"]

    def unit(self, world: dict[str, Any], index: int, timed: Timed) -> Unit:
        rng = _rng(world["seed"], 0x5C, index)
        net = world["nets"][index % len(world["nets"])]
        r = _RS[index % len(_RS)]
        return _closed_loop_unit(timed, lambda: self._query(net, rng, r),
                                 lambda: self._expected(world))


class TopKArena:
    """Seeded top-k on a 100k-peer MIDAS arena through the wavefront."""

    name = "topk-arena"
    dims, peers, per_peer = 3, 100_000, 5
    data_seed, network_seed = 3, 11
    digest_units = 100
    min_units = MIN_QUERIES
    units_per_s = 55.0

    def setup(self, seed: int) -> dict[str, Any]:
        data = np.random.default_rng(self.data_seed).random(
            (self.peers * self.per_peer, self.dims)) * 0.999
        arena = midas_arena(self.peers, dims=self.dims,
                            seed=self.network_seed, data=data)
        world = {"seed": seed, "data": data, "arena": arena,
                 "domain": arena.domain()}
        for index in range(6):  # warm-up: every (k, r) pair once
            self._query(world, _rng(_WARM_UP, 0x3B, index), index)
        return world

    @staticmethod
    def _draw(rng: np.random.Generator, index: int
              ) -> tuple[LinearScore, int, int]:
        fn = LinearScore(0.05 + rng.random(TopKArena.dims))
        return fn, (10, 50)[index % 2], _RS[(index // 2) % len(_RS)]

    def _query(self, world: dict[str, Any], rng: np.random.Generator,
               index: int) -> Any:
        fn, k, r = self._draw(rng, index)
        arena = world["arena"]
        initiator = arena.peer(int(rng.integers(len(arena))))
        # Looked up per call: the traced run wraps the module attribute.
        executor = arena_module.wavefront_execute
        return repro.distributed_topk(initiator, fn, k,
                                      restriction=world["domain"], r=r,
                                      executor=executor)

    def unit(self, world: dict[str, Any], index: int, timed: Timed) -> Unit:
        seed = world["seed"]

        def expected() -> Any:
            fn, k, _ = self._draw(_rng(seed, 0x7C, index), index)
            return topk_oracle(world["data"], fn, k)

        return _closed_loop_unit(
            timed, lambda: self._query(world, _rng(seed, 0x7C, index), index),
            expected)


class ServeZipfWrites:
    """Open-loop Zipf serving with a result cache, phases split by writes."""

    name = "serve-zipf-writes"
    dims, tuples, peers = 3, 16_000, 1_000
    data_seed, network_seed = 5, 7
    #: Seed of the query stream.  Each phase draws its own 24 templates,
    #: and which ones it draws decides most of its cost: with the stream
    #: drawn from ``--seed``, p90 over a run's phases spread by 0.23 across
    #: ten seeds.  So phase ``i`` serves the same queries on every seed, and
    #: ``--seed`` draws the written tuples, which decide what the cache
    #: invalidates and what the stores recompute.
    query_seed = 0
    phase_queries, phase_writes = 100, 40
    #: The admission queue holds a whole phase, so no arrival is shed:
    #: with the default limit of 16, long r=2 queries fill it on some seeds.
    queue_limit = 100
    digest_units = 3
    min_units = 10
    units_per_s = 0.95

    def setup(self, seed: int) -> dict[str, Any]:
        base = np.random.default_rng(self.data_seed).random(
            (self.tuples, self.dims)) * 0.999
        overlay = MidasOverlay(self.dims, size=1, seed=self.network_seed,
                               join_policy="data")
        overlay.load(base)
        overlay.grow_to(self.peers)
        world = {"seed": seed, "overlay": overlay, "data": [base],
                 "cache": CacheDirectory(overlay)}
        warm_up = _rng(_WARM_UP, 0x3C)
        _, writes = self._phase(world, warm_up, warm_up)
        world["data"].append(writes)
        return world

    def _spec(self, rng: np.random.Generator) -> WorkloadSpec:
        return WorkloadSpec(queries=self.phase_queries, rate=1.0,
                            seed=int(rng.integers(2 ** 31)),
                            topk_fraction=0.7, rs=(0, 2), population=24,
                            skew=1.1)

    def _phase(self, world: dict[str, Any], queries: np.random.Generator,
               writes: np.random.Generator) -> Any:
        spec = self._spec(queries)
        written = writes.random((self.phase_writes, self.dims)) * 0.999
        engine = QueryEngine(service_time=1, capacity=4,
                             queue_limit=self.queue_limit,
                             cache=world["cache"])
        report = repro.run_workload(world["overlay"], spec, engine=engine)
        world["overlay"].load(written)
        return report, written

    def unit(self, world: dict[str, Any], index: int, timed: Timed) -> Unit:
        cache = world["cache"]
        before = cache.snapshot()
        try:
            with timed() as clock:
                report, writes = self._phase(
                    world, _rng(self.query_seed, 0x51, index),
                    _rng(world["seed"], 0x5D, index))
        except Exception as exc:  # the whole phase failed
            traceback.print_exc()
            return Unit(wall=clock.seconds, samples=[clock.seconds],
                        attempted=self.phase_queries,
                        failed=self.phase_queries, stats=[],
                        records=[["raised", type(exc).__name__]])
        after = cache.snapshot()
        data = np.concatenate(world["data"])
        world["data"].append(writes)
        oracles: dict[Any, Any] = {}

        def expected(handler: Any) -> Any:
            if isinstance(handler, SkylineHandler):
                key: Any = ("skyline",)
                if key not in oracles:
                    oracles[key] = skyline_reference(data)
            else:
                key = ("topk", handler.fn.weights, handler.k)
                if key not in oracles:
                    oracles[key] = topk_oracle(data, handler.fn, handler.k)
            return oracles[key]

        failed = 0
        records: list[Any] = []
        stats = []
        admission_wait = peer_wait = 0
        for job_id in sorted(report.outcomes):
            outcome = report.outcomes[job_id]
            stats.append(outcome.stats)
            answer = getattr(outcome, "answer", None)
            records.append([type(outcome).__name__, answer, outcome.stats,
                            outcome.submitted_at, outcome.finished_at])
            if not isinstance(outcome, QueryCompleted) \
                    or answer != expected(outcome.job.handler):
                failed += 1
                continue
            admission_wait += outcome.turnaround - outcome.stats.latency
            peer_wait += outcome.stats.queue_delay
        records.append([report.completed, report.shed,
                        report.deadline_exceeded, report.budget_exceeded,
                        after])
        attempted = report.submitted
        counters = {
            "cache.lookups": sum(after[k] - before[k]
                                 for k in ("hits", "semantic_hits",
                                           "misses")),
            "cache.hits": after["hits"] - before["hits"],
            "cache.semantic_hits":
                after["semantic_hits"] - before["semantic_hits"],
            "cache.invalidations":
                after["invalidations"] - before["invalidations"],
            "scheduler.admission_wait": admission_wait,
            "scheduler.peer_wait": peer_wait,
            "scheduler.completed": report.completed,
            "scheduler.max_saturation": report.max_saturation,
        }
        return Unit(wall=clock.seconds,
                    samples=[clock.seconds / max(1, attempted)],
                    attempted=attempted, failed=failed, stats=stats,
                    records=records, counters=counters)


WORKLOADS = {w.name: w for w in (SkylineMidas, TopKArena, ServeZipfWrites)}
