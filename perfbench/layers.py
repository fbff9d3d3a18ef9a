"""Which functions the traced run wraps, grouped into the layers of ROADMAP
aim 1: drivers, engine, handler, store, substrate, cache and scheduler.

Each span bucket is named ``<layer>.<part>``; its self time becomes the
per-layer metric ``<layer>.<part>_ms`` (per query).  Functions that are not
wrapped charge their time to the nearest wrapped caller.
"""

from __future__ import annotations

import sys
from typing import Any

from .tracer import Probe

#: Span buckets, in report order.  Every probe's bucket is one of these.
BUCKETS = (
    "drivers.seed_self", "drivers.route",
    "engine.self", "scheduler.self",
    "handler.local_state", "handler.global_state", "handler.update_state",
    "handler.merge", "handler.link_relevant", "handler.link_priority",
    "handler.local_answer", "handler.finalize",
    "store.skyline_kernel", "store.top_scoring", "store.wave_prime",
    "store.write",
    "substrate.links", "substrate.intersect",
    "cache.lookup", "cache.store",
)

#: Buckets of the entry spans.  They hold the time of every function that
#: is not wrapped below them; ``trace.catchall_frac`` reports their share.
CATCH_ALL = ("drivers.seed_self", "engine.self", "scheduler.self")


def _route_hops(counts: dict, result: Any, args: tuple, token: Any) -> None:
    _, path = result
    counts["drivers.route_hops"] += len(path) - 1


def _link_pruned(counts: dict, result: Any, args: tuple, token: Any) -> None:
    if not result:
        counts["handler.link_pruned"] += 1


def _store_hits_before(args: tuple) -> tuple[int, int]:
    store = args[0]
    return store.cache_hits, store.cache_misses


def _store_hit(counts: dict, result: Any, args: tuple,
               token: tuple[int, int]) -> None:
    store = args[0]
    if store.cache_hits > token[0]:
        counts["store.cache_hits"] += 1
    elif store.cache_misses > token[1]:
        counts["store.cache_misses"] += 1


def probes() -> list[Probe]:
    """The probe table over the imported ``repro`` package."""
    from repro.common import store
    from repro.core import framework, regions
    from repro.net import eventsim, resultcache, routing, workload
    from repro.overlays import arena, midas
    from repro.queries import drivers, skyline, topk

    table = [
        Probe(drivers, "run_seeded", "drivers.seed_self"),
        Probe(routing, "greedy_route", "drivers.route", after=_route_hops),
        Probe(framework, "execute", "engine.self"),
        Probe(arena, "wavefront_execute", "engine.self"),
        Probe(eventsim.EventSimulator, "run", "engine.self"),
        Probe(eventsim.EventSimulator, "schedule", counter="engine.events"),
        Probe(workload, "run_workload", "scheduler.self"),
        Probe(skyline, "merge_skylines", "handler.merge"),
        Probe(topk.TopKHandler, "_merge", "handler.merge"),
        Probe(skyline, "skyline_of_array", "store.skyline_kernel"),
        Probe(skyline, "k_skyband_of_array", "store.skyline_kernel"),
        Probe(store.LocalStore, "top_scoring", "store.top_scoring"),
        Probe(store.LocalStore, "scoring_at_least", "store.top_scoring"),
        Probe(store.LocalStore, "cached", before=_store_hits_before,
              after=_store_hit),
        Probe(arena, "prime_topk_wave", "store.wave_prime"),
        Probe(arena, "prime_skyline_wave", "store.wave_prime"),
        Probe(midas.MidasOverlay, "load", "store.write"),
        Probe(midas.MidasPeer, "links", "substrate.links",
              counter="substrate.links_calls"),
        Probe(arena.ArenaPeer, "links", "substrate.links",
              counter="substrate.links_calls"),
        Probe(arena.MidasArena, "decode_links", "substrate.links"),
        Probe(regions.RectRegion, "intersect", "substrate.intersect",
              counter="substrate.intersect_calls"),
        Probe(resultcache.CacheDirectory, "lookup", "cache.lookup"),
        Probe(resultcache.CacheDirectory, "store", "cache.store"),
    ]
    for handler in (skyline.SkylineHandler, topk.TopKHandler):
        table += [
            Probe(handler, "compute_local_state", "handler.local_state"),
            Probe(handler, "compute_global_state", "handler.global_state"),
            Probe(handler, "update_local_state", "handler.update_state"),
            Probe(handler, "is_link_relevant", "handler.link_relevant",
                  counter="handler.link_checks", after=_link_pruned),
            Probe(handler, "link_priority", "handler.link_priority"),
            Probe(handler, "compute_local_answer", "handler.local_answer"),
            Probe(handler, "finalize", "handler.finalize"),
        ]
    present = []
    for probe in table:
        holder = probe.owner.__dict__ if isinstance(probe.owner, type) \
            else vars(probe.owner)
        if probe.attr in holder:
            present.append(probe)
        else:
            # A later refactor may drop a wrapped function; its time then
            # falls to the caller's bucket, and the log says so.
            print(f"perfbench: probe {getattr(probe.owner, '__name__', '?')}"
                  f".{probe.attr} not found; not traced", file=sys.stderr)
    return present
