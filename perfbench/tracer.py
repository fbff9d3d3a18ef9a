"""Span tracing from outside the program: wrappers around layer functions.

The traced run replaces selected functions of each layer with wrappers
that record a span (bucket, start, end, parent) per call, plus call
counts at the same boundaries.  Nothing inside ``repro`` changes and no
``TraceSink`` is attached, so the engines pick the same code paths as in
an untraced run.  Spans stay in memory for one measured block (one query,
or one serving phase); at the block's end they are reduced to self time
per bucket and dropped.

A span's self time is its duration minus the part of its interval that
its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

#: Attribute that marks a wrapper and points at the wrapped original.
MARK = "__perfbench_original__"


@dataclass(frozen=True)
class Probe:
    """One function to wrap.

    ``owner`` is a module (the function is then patched in every loaded
    ``repro`` module that imported it) or a class (patched on the class).
    ``bucket`` names the span's self-time bucket; ``None`` makes a
    count-only wrapper that records no span.  ``counter`` is bumped per
    call; ``before(args)`` and ``after(counts, result, args, token)`` let a
    probe derive counts from arguments and results.
    """

    owner: Any
    attr: str
    bucket: str | None = None
    counter: str | None = None
    before: Callable[[tuple], Any] | None = None
    after: Callable[[dict, Any, tuple, Any], None] | None = None


def self_times(spans: Sequence[tuple[int, int, int]]) -> list[int]:
    """Self time of each span in ``spans = [(start, end, parent), ...]``.

    ``parent`` indexes an earlier span, or is -1 for a root.  Spans must be
    listed in order of their start (the order a tracer opens them).  A
    span's self time is its duration minus the union of its children's
    intervals, each clipped to the span's own interval.
    """
    covered = [0] * len(spans)
    reach = [0] * len(spans)
    for start, end, parent in spans:
        if parent < 0:
            continue
        p_start, p_end, _ = spans[parent]
        lo = max(start, reach[parent], p_start)
        hi = min(end, p_end)
        if hi > lo:
            covered[parent] += hi - lo
            reach[parent] = hi
    return [end - start - covered[i]
            for i, (start, end, _) in enumerate(spans)]


def root_time(spans: Sequence[tuple[int, int, int]]) -> int:
    """Total time covered by root spans (union of their intervals)."""
    total = reach = 0
    for start, end, parent in spans:
        if parent >= 0:
            continue
        lo = max(start, reach)
        if end > lo:
            total += end - lo
            reach = end
    return total


def _repro_modules() -> list[Any]:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class Tracer:
    """Records spans and counts while a block is open; aggregates per block."""

    def __init__(self) -> None:
        self.recording = False
        self._bucket: list[str] = []
        self._start: list[int] = []
        self._end: list[int] = []
        self._parent: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        #: Self time per bucket, nanoseconds, summed over flushed blocks.
        self.self_ns: dict[str, int] = defaultdict(int)
        #: Time inside root spans, and total block wall time, nanoseconds.
        self.root_ns = 0
        self.block_ns = 0
        self.blocks = 0
        self._patches: list[tuple[Any, str, Any]] = []
        self._block_t0 = 0

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn: Callable, probe: Probe) -> Callable:
        tracer = self
        bucket, counter, before, after = (probe.bucket, probe.counter,
                                          probe.before, probe.after)
        buckets, starts, ends = self._bucket, self._start, self._end
        parents, stack, counts = self._parent, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            index = len(starts)
            buckets.append(bucket)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            if counter is not None:
                counts[counter] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(counts, result, args, token)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def _count_wrapper(self, fn: Callable, probe: Probe) -> Callable:
        tracer = self
        counter, before, after = probe.counter, probe.before, probe.after
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            result = fn(*args, **kwargs)
            if counter is not None:
                counts[counter] += 1
            if after is not None:
                after(counts, result, args, token)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, probes: Iterable[Probe]) -> None:
        """Wrap every probe's function; :meth:`uninstall` restores them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _repro_modules()
        try:
            for probe in probes:
                self._install_one(probe, modules)
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, probe: Probe, modules: list[Any]) -> None:
        make = self._span_wrapper if probe.bucket is not None \
            else self._count_wrapper
        if isinstance(probe.owner, type):
            original = probe.owner.__dict__[probe.attr]
            self._patch(probe.owner, probe.attr, make(original, probe))
            return
        original = getattr(probe.owner, probe.attr)
        wrapper = make(original, probe)
        # Patch the name wherever it was imported, so callers that bound
        # it with ``from ... import name`` see the wrapper too.
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, name, wrapper)

    def _patch(self, owner: Any, name: str, wrapper: Callable) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        self.recording = False
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- blocks --------------------------------------------------------------

    def begin_block(self) -> None:
        self._block_t0 = time.perf_counter_ns()
        self.recording = True

    def end_block(self) -> None:
        """Stop recording; fold the block's spans into the totals."""
        self.recording = False
        self.block_ns += time.perf_counter_ns() - self._block_t0
        self.blocks += 1
        spans = list(zip(self._start, self._end, self._parent))
        for bucket, own in zip(self._bucket, self_times(spans)):
            self.self_ns[bucket] += own
        self.root_ns += root_time(spans)
        del self._bucket[:], self._start[:], self._end[:], self._parent[:]
        del self._stack[:]

    @property
    def coverage(self) -> float:
        """Share of measured block wall time spent inside root spans."""
        return self.root_ns / self.block_ns if self.block_ns else 0.0


def wrapped_names(probes: Iterable[Probe] = ()) -> list[str]:
    """Every currently wrapped name in ``repro`` modules and probe classes.

    Empty in an untraced run: the benchmark checks that before timing.
    """
    found = []
    for module in _repro_modules():
        for name, value in vars(module).items():
            if callable(value) and hasattr(value, MARK):
                found.append(f"{module.__name__}.{name}")
    for probe in probes:
        if isinstance(probe.owner, type):
            value = probe.owner.__dict__.get(probe.attr)
            if value is not None and hasattr(value, MARK):
                found.append(f"{probe.owner.__qualname__}.{probe.attr}")
    return found
