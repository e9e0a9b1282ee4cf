"""Benchmark-side tracing: timing wrappers around each layer's public
entry points, installed by patching from this file.  Nothing under
``src/repro`` is instrumented for the benchmark.

A span records its name, start, end, parent span and job id; spans stay
in memory and are written out when the run ends.  A span's *self time*
is its duration minus its children's.  One span stack is enough because
every workload uses the in-memory :class:`~repro.Channel`, whose streams
and pre-copy rounds run on the caller's thread; the nesting check in
:func:`analyse` would catch a span closed out of order.

Layers (span name prefixes):

- ``clang``: ``repro.clang.parse`` as ``compile_program`` looks it up;
- ``vm``: ``compile_program`` minus parse, ``CompiledProgram.for_arch``
  (both timed around the benchmark's own set-up calls) and
  ``Process.run`` outside ``migrate``;
- ``msr``: ``Collector.save_variable``/``finish`` and
  ``Restorer.restore_variable`` (subclasses included), plus the pre-copy
  delta rounds' ``build_round``/``apply_round``;
- ``wire``: frame encode/decode and zlib in ``repro.msr.wire``, patched
  where the engine and channels look them up;
- ``transport``: every send and receive of :class:`TracedChannel`;
- ``precopy``: ``Process.run`` inside ``migrate`` (the source's slices);
- ``obs``: ``MigrationObservation`` construction and the engine's
  ``_finish_observation``;
- ``engine``: ``MigrationEngine.migrate`` minus all of the above.

The benchmark's clock and its machine-speed reference live here too, so
that spans and end-to-end times read the same clock.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager

import repro.migration.engine as engine_mod
import repro.migration.precopy as precopy_mod
import repro.migration.transport as transport_mod
import repro.vm.program as program_mod
from repro import Channel, MigrationEngine, Process
from repro.msr.collect import Collector
from repro.msr.restore import Restorer
from repro.msr.wire import ChunkDecoder, DeltaDecoder

#: The benchmark's one clock.  Every timed region is single-threaded
#: Python that neither sleeps nor does I/O (the channel is in memory and
#: Tx is modeled), so its CPU time is its wall time on an idle machine.
#: On a shared VM the wall clock also counts time the vCPU was stolen by
#: other tenants (up to 2.8x on a fixed loop, where CPU time stayed within
#: about 10%), which no code change causes.
clock = time.process_time

#: CPU seconds :func:`reference_seconds` takes at the nominal speed (a
#: 2-core x86-64 VM running CPython 3.11 when no other tenant competes)
REFERENCE_S = 0.0065
#: how strongly ``migrate()``'s CPU time follows the reference loop's.
#: Execution (the interpreter, the compiler) is pure Python like the
#: reference and follows it one to one: fitted exponents 0.8-1.06 over 10
#: seeded runs per workload on that VM.  ``migrate()`` spends part of its
#: time in NumPy and zlib and follows it less: 0.55-0.86.
MIGRATE_EXPONENT = 0.6


def reference_seconds() -> float:
    """CPU seconds of a fixed stdlib-only loop that runs no repro code.

    The VM's speed drifts between modes that differ by ~30% for tens of
    seconds at a time, and CPU time follows it.  Every job and set-up is
    bracketed by two reference runs (see :func:`speed_ratio`).
    """
    t0 = clock()
    table = {}
    acc = 0
    for i in range(20000):
        table[i & 1023] = i
        acc += table.get((i * 7) & 1023, 0) ^ len(str(i))
    return clock() - t0


def speed_ratio(fn):
    """``(fn(), ratio)``: *fn*'s result and ``REFERENCE_S`` over the mean
    of reference runs just before and after it.  Execution seconds times
    the ratio, and ``migrate()`` seconds times the ratio to the power
    :data:`MIGRATE_EXPONENT`, are seconds at the nominal speed."""
    before = reference_seconds()
    out = fn()
    after = reference_seconds()
    return out, 2 * REFERENCE_S / (before + after)


MIGRATE = "engine.migrate"
EXEC = "vm.exec"
SLICE = "precopy.slice"

#: (owner, attribute, span name) for every patched entry point
PATCHES = (
    (program_mod, "parse", "clang.parse"),
    (Collector, "save_variable", "msr.collect"),
    (Collector, "finish", "msr.collect"),
    (Restorer, "restore_variable", "msr.restore"),
    (precopy_mod, "build_round", "msr.collect"),
    (precopy_mod, "apply_round", "msr.restore"),
    (engine_mod, "compress_payload", "wire.codec"),
    (engine_mod, "expand_payload", "wire.codec"),
    (transport_mod, "encode_chunk_parts", "wire.codec"),
    (transport_mod, "encode_delta_parts", "wire.codec"),
    (ChunkDecoder, "decode", "wire.codec"),
    (DeltaDecoder, "decode", "wire.codec"),
    (engine_mod, "MigrationObservation", "obs.observe"),
    (MigrationEngine, "_finish_observation", "obs.observe"),
    (MigrationEngine, "migrate", MIGRATE),
)


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, job id]
        self.spans: list[list] = []
        #: counts recorded at span boundaries, by key
        self.counts: dict[str, int] = {}
        self.job = None
        self._stack: list[int] = []
        self._saved: list = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.job])
        self._stack.append(idx)
        self.spans[idx][1] = clock()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = clock()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def in_migrate(self) -> bool:
        spans = self.spans
        return any(spans[i][0] == MIGRATE for i in self._stack)

    def _timed(self, name: str, fn):
        open_, close = self._open, self._close

        @functools.wraps(fn, updated=())
        def timed(*args, **kwargs):
            idx = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return timed

    def _timed_run(self, fn):
        """``Process.run``: execution outside ``migrate`` is the vm layer,
        inside it the pre-copy slices; steps/polls/mallocs are counted at
        the same boundary."""
        tracer = self

        @functools.wraps(fn)
        def run(proc, *args, **kwargs):
            name = SLICE if tracer.in_migrate() else EXEC
            before = (proc.steps, proc.polls, proc.mallocs)
            idx = tracer._open(name)
            try:
                return fn(proc, *args, **kwargs)
            finally:
                tracer._close(idx)
                tracer.count(name + ".steps", proc.steps - before[0])
                tracer.count(name + ".polls", proc.polls - before[1])
                tracer.count(name + ".mallocs", proc.mallocs - before[2])

        return run

    @contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        targets = [*PATCHES, (Process, "run", None)]
        for owner, attr, name in targets:
            raw = inspect.getattr_static(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self._timed(name, raw.__func__)))
            elif name is None:
                setattr(owner, attr, self._timed_run(raw))
            else:
                setattr(owner, attr, self._timed(name, raw))
        try:
            yield self
        finally:
            while self._saved:
                owner, attr, raw = self._saved.pop()
                setattr(owner, attr, raw)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "job": job}
                ) + "\n")


def _traced_method(name: str, method):
    @functools.wraps(method)
    def traced(self, *args, **kwargs):
        with self.tracer.span(name):
            return method(self, *args, **kwargs)

    return traced


class TracedChannel(Channel):
    """The in-memory channel with every send and receive timed."""

    def __init__(self, link, tracer: Tracer) -> None:
        super().__init__(link)
        self.tracer = tracer


for _name, _methods in (
    ("transport.send", ("send", "send_chunk", "end_stream", "send_context",
                        "send_delta", "end_delta_round")),
    ("transport.recv", ("recv", "recv_chunk", "recv_context", "recv_delta")),
):
    for _m in _methods:
        setattr(TracedChannel, _m, _traced_method(_name, getattr(Channel, _m)))


class Analysis:
    """Self times of a run's spans, grouped for the per-layer report."""

    def __init__(self) -> None:
        #: self seconds inside migrate() by span name (migrate's own is
        #: the engine's self time)
        self.in_migrate: dict[str, float] = {}
        #: self seconds outside migrate() by span name
        self.outside: dict[str, float] = {}
        self.migrate_total = 0.0
        self.n_migrates = 0
        #: largest |sum of subtree self times - migrate duration| / duration
        self.partition_err = 0.0
        #: spans not nested inside their parent, or overlapping a sibling
        self.nesting_errors = 0
        #: job time (checks excluded) covered by no child span
        self.job_uncovered = 0.0
        self.job_total = 0.0


def analyse(spans: list[list]) -> Analysis:
    """Self times by span name, inside and outside ``migrate``, and the
    checks that the spans nest and partition each ``migrate`` call."""
    n = len(spans)
    child_dur = [0.0] * n
    last_child_end: dict[int, float] = {}
    out = Analysis()
    for i, (name, start, end, parent, _job) in enumerate(spans):
        if parent < 0:
            continue
        p = spans[parent]
        if start < p[1] or end > p[2] or start < last_child_end.get(parent, p[1]):
            out.nesting_errors += 1
        last_child_end[parent] = end
        child_dur[parent] += end - start
    root = [-1] * n  # the enclosing migrate span, if any
    subtree_self: dict[int, float] = {}
    check_dur: dict[int, float] = {}
    for i, (name, start, end, parent, _job) in enumerate(spans):
        self_s = end - start - child_dur[i]
        if name == MIGRATE and (parent < 0 or root[parent] < 0):
            root[i] = i
        elif parent >= 0:
            root[i] = root[parent]
        if root[i] >= 0:
            out.in_migrate[name] = out.in_migrate.get(name, 0.0) + self_s
            subtree_self[root[i]] = subtree_self.get(root[i], 0.0) + self_s
        else:
            out.outside[name] = out.outside.get(name, 0.0) + self_s
        if name == "check" and parent >= 0:
            check_dur[parent] = check_dur.get(parent, 0.0) + end - start
    for i, (name, start, end, parent, _job) in enumerate(spans):
        if root[i] == i:
            dur = end - start
            out.migrate_total += dur
            out.n_migrates += 1
            err = abs(subtree_self[i] - dur) / dur if dur > 0 else 0.0
            out.partition_err = max(out.partition_err, err)
        elif name == "job":
            out.job_total += end - start - check_dur.get(i, 0.0)
            out.job_uncovered += end - start - child_dur[i]
    return out
