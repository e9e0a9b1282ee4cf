"""The benchmark's workloads and the job runner they share.

A *job* starts a process on its first host, runs it to a poll-point,
migrates it along its route (one or more hops) and runs it to exit on
the last host.  Every input of a job — program seed, poll-point, route —
is drawn from the ``--seed`` stream; the programs receive only those
generated inputs.

Every job is checked, outside its timed region, against an unmigrated
run of the same compiled program on its first host (stdout and exit
code) and, at every hop, by comparing canonical heap fingerprints of the
stopped source and the restored destination
(:mod:`repro.difftest.oracle`).
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from repro import Channel, ETHERNET_10M, MigrationEngine, Process
from repro.arch.machine import MACHINES
from repro.difftest.oracle import fingerprint_diff, heap_fingerprint
from repro.migration.precopy import PrecopyPolicy
from repro.vm.builtins import RAND_STATE_GLOBAL
from repro.workloads import bitonic_source, linpack_source
from repro.workloads.programs import structgrid_source
from tracing import TracedChannel, clock

LINK = ETHERNET_10M


@dataclass(frozen=True)
class JobSpec:
    """One job: which program, where it starts, when it first stops, and
    where it goes."""

    program: int  # index into the run's programs
    first: object  # MachineArch
    first_polls: int  # poll-points executed before the first migration
    hops: tuple  # destination MachineArch per migration, in order


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: keyword arguments of every ``MigrationEngine.migrate`` call
    migrate_kwargs: dict

    #: programs per run, each from its own drawn seed; jobs take turns
    PROGRAMS = 1

    def sources(self, rng: random.Random) -> list[str]:
        return [self.source(rng) for _ in range(self.PROGRAMS)]

    def jobs(self, rng: random.Random):
        for i in itertools.count():
            yield self.job(rng, i % self.PROGRAMS)

    def source(self, rng: random.Random) -> str:
        raise NotImplementedError

    def job(self, rng: random.Random, program: int) -> JobSpec:
        raise NotImplementedError


class JobLinpack(Workload):
    # n=64 (the paper's Fig. 2a scale) takes ~1.6 s per job on a 2-core
    # x86-64 VM, too few migrations per run for a tail percentile; n=32
    # keeps execution at ~99% of job_s with ~60 jobs in 20 s.
    N = 32

    def source(self, rng):
        return linpack_source(self.N)

    def job(self, rng, program):
        first, dest = rng.sample(MACHINES, 2)
        # dgefa's loop runs N-1 times with one poll-point per pass
        return JobSpec(program, first, rng.randint(1, self.N - 1), (dest,))


class HopsBitonic(Workload):
    N = 4000
    # the tree's shape moves the cost of a hop by ~15% from one program
    # seed to the next; six programs per run average that out
    PROGRAMS = 6

    def source(self, rng):
        return bitonic_source(self.N, seed=rng.randrange(1, 2**31 - 1))

    def jobs(self, rng):
        # one seeded first host per program: an unmigrated reference run
        # of this program costs ~1.3 s, one per (program, first host)
        firsts = [rng.choice(MACHINES) for _ in range(self.PROGRAMS)]
        for i in itertools.count():
            program = i % self.PROGRAMS
            route = [m for m in MACHINES if m is not firsts[program]]
            rng.shuffle(route)
            yield JobSpec(program, firsts[program], self.N // 2, tuple(route))


class LiveStructgrid(Workload):
    CELLS = 16384
    PROBES = 256

    def source(self, rng):
        return structgrid_source(
            self.CELLS, self.PROBES, seed=rng.randrange(1, 2**31 - 1)
        )

    def job(self, rng, program):
        first, dest = rng.sample(MACHINES, 2)
        return JobSpec(program, first, 1, (dest,))


WORKLOADS = {
    w.name: w
    for w in (
        JobLinpack(
            "job-linpack",
            "linpack (paper Fig. 2a), one monolithic hop inside dgefa; "
            "interpreter execution is ~99% of job_s, msr and transport do "
            "almost nothing",
            {},
        ),
        HopsBitonic(
            "hops-bitonic",
            "tree sort (paper Fig. 2b) stopped at ~2000 heap nodes, five "
            "streamed+zlib hops through all six machines; the MSRLT pointer "
            "path dominates each hop",
            {"streaming": True, "compress": True},
        ),
        LiveStructgrid(
            "live-structgrid",
            "struct grid migrated with pre-copy while the source keeps "
            "writing: dirty tracking, delta rounds, cached-block elision, "
            "plan/codec tiers",
            # each probe slice dirties three blocks (the new probe, chain,
            # hot[]), so stop_dirty_blocks=2 runs delta rounds up to the
            # cap instead of converging after the snapshot
            {
                "precopy": True,
                "precopy_policy": PrecopyPolicy(max_rounds=4, stop_dirty_blocks=2),
            },
        ),
    )
}


class JobFailed(Exception):
    """A job ran but its outputs disagree with the oracle."""


@dataclass
class MigrationRecord:
    """What one ``migrate`` call cost and did, as plain numbers (keeping
    the stats objects alive would grow the collector's work run-long)."""

    migrate_s: float  # CPU seconds, as is pause_s
    pause_s: float
    wire_bytes: int  # bytes handed to the channel, pre-copy rounds included
    frames: int  # channel messages
    msrlt_searches: int  # on the source's MSRLT
    msrlt_hits: int
    blocks: int
    payload_bytes: int
    stored_bytes: int  # payload bytes after compression, when it engaged
    attempts: int
    obs_spans: int
    precopy_rounds: int
    precopy_dirty_blocks: int
    precopy_round_bytes: tuple  # snapshot first, then each delta round


@dataclass
class JobResult:
    job_s: float  # CPU seconds, as are the migrations' times
    migrations: list = field(default_factory=list)
    #: the machine's speed around this job (:func:`tracing.speed_ratio`)
    speed: float = 1.0


class Stopwatch:
    """CPU time of a job minus the time spent checking it."""

    def __init__(self) -> None:
        self.start = clock()
        self.excluded = 0.0

    @contextmanager
    def paused(self):
        t0 = clock()
        try:
            yield
        finally:
            self.excluded += clock() - t0

    def elapsed(self) -> float:
        return clock() - self.start - self.excluded


class Oracle:
    """Unmigrated reference runs of a run's programs, per first host."""

    def __init__(self, programs) -> None:
        self.programs = programs
        self._runs: dict = {}
        #: wall seconds spent computing reference runs
        self.wall_s = 0.0

    def expect(self, program: int, arch) -> tuple[str, int]:
        key = (program, arch.name)
        if key not in self._runs:
            t0 = time.perf_counter()
            proc = Process(self.programs[program], arch)
            code = proc.run_to_completion()
            self._runs[key] = (proc.stdout, code)
            self.wall_s += time.perf_counter() - t0
        return self._runs[key]


def corrupt_one_byte(proc) -> None:
    """Flip one byte of a restored destination (the self-test's fault):
    the low byte of the hidden PRNG-state global, a data cell every
    program has and every heap fingerprint covers."""
    idx = proc.program.global_index(RAND_STATE_GLOBAL)
    addr = proc.image.global_addrs[idx]
    value = proc.memory.read_bytes(addr, 1)[0]
    proc.memory.write_bytes(addr, bytes([value ^ 0x5A]))


def run_job(workload, spec, oracle, tracer=None, corrupt=False) -> JobResult:
    """Run one job; raises on any failure (exception or oracle mismatch).

    With a *tracer* the job, its checks and every call into the layers
    record spans; without one nothing but the clock is touched.
    """
    engine = MigrationEngine(LINK)
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    proc = Process(oracle.programs[spec.program], spec.first)
    watch = Stopwatch()
    result = JobResult(job_s=0.0)
    with span("job"):
        proc.start()
        proc.migration_pending = True
        proc.migrate_after_polls = spec.first_polls
        run = proc.run()
        for hop, dest_arch in enumerate(spec.hops):
            if run.status != "poll":
                raise JobFailed(f"hop {hop}: source stopped with {run.status!r}")
            dest, record = migrate_one(engine, proc, dest_arch, workload, tracer, watch)
            with watch.paused(), span("check"):
                if corrupt and hop == 0:
                    corrupt_one_byte(dest)
                diff = fingerprint_diff(heap_fingerprint(proc), heap_fingerprint(dest))
                if diff is not None:
                    raise JobFailed(
                        f"hop {hop} {proc.arch.name}->{dest_arch.name}: "
                        f"heap fingerprint changed: {diff}"
                    )
            result.migrations.append(record)
            proc = dest
            if hop < len(spec.hops) - 1:
                # one poll-point's worth of work on each intermediate host
                proc.migration_pending = True
                proc.migrate_after_polls = 1
            run = proc.run()
        if run.status != "exit":
            raise JobFailed(f"last host stopped with {run.status!r}, not exit")
        result.job_s = watch.elapsed()
        with span("check"):
            want_out, want_code = oracle.expect(spec.program, spec.first)
            if proc.stdout != want_out or run.exit_code != want_code:
                raise JobFailed(
                    f"output differs from the unmigrated run on "
                    f"{spec.first.name}: exit {run.exit_code} vs {want_code}, "
                    f"stdout {proc.stdout[-60:]!r} vs {want_out[-60:]!r}"
                )
    return result


def migrate_one(engine, proc, dest_arch, workload, tracer, watch):
    """One timed ``migrate`` call; returns the destination and its
    :class:`MigrationRecord`.  The source's pause runs from the return of
    its last ``Process.run`` (pre-copy slices included)."""
    last_return = [None]
    cls = type(proc)

    def run_and_mark(*args, **kwargs):
        try:
            # looked up per call, so a tracer installed later still sees it
            return cls.run(proc, *args, **kwargs)
        finally:
            last_return[0] = clock()

    proc.run = run_and_mark
    channel = Channel(LINK) if tracer is None else TracedChannel(LINK, tracer)
    searches0, hits0 = proc.msrlt.n_searches, proc.msrlt.n_cache_hits
    t0 = clock()
    dest, stats = engine.migrate(proc, dest_arch, channel=channel, **workload.migrate_kwargs)
    t1 = clock()
    with watch.paused():
        del proc.run
        record = MigrationRecord(
            migrate_s=t1 - t0,
            pause_s=t1 - max(t0, last_return[0] or t0),
            wire_bytes=channel.bytes_sent,
            frames=channel.messages_sent,
            msrlt_searches=proc.msrlt.n_searches - searches0,
            msrlt_hits=proc.msrlt.n_cache_hits - hits0,
            blocks=stats.n_blocks,
            payload_bytes=stats.payload_bytes,
            stored_bytes=stats.compressed_bytes if stats.compressed else stats.payload_bytes,
            attempts=stats.attempts,
            obs_spans=sum(1 for _ in stats.obs.tracer.iter_spans()),
            precopy_rounds=stats.precopy_rounds,
            precopy_dirty_blocks=stats.precopy_dirty_blocks,
            precopy_round_bytes=tuple(stats.precopy_round_bytes),
        )
    return dest, record
