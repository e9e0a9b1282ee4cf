#!/usr/bin/env python3
"""End-to-end benchmark of migratable jobs.

Run from the root of a checkout::

    python3 perfbench/run.py                      # all workloads, untraced
    python3 perfbench/run.py --workload hops-bitonic --seed 3 --seconds 20
    python3 perfbench/run.py --workload live-structgrid --trace 1
    python3 perfbench/run.py --smoke              # every workload, 1 s, both modes
    python3 perfbench/run.py --self-test          # the two fault injections

Each run compiles its workload's programs from ``src/`` (``setup_s``,
several times), runs one untimed warm-up job, then runs jobs for
``--seconds``; each job's program also runs unmigrated once per first
host, as the oracle, outside that time.  With ``--trace 0`` it reports
the end-to-end metrics listed in ``BENCHMARK.json``; with ``--trace 1``
it alternates untraced and traced runs of the same jobs, reports the
per-layer metrics, the tracing overhead and the span checks, and writes
the spans to ``perfbench/out/``.  The last line of stdout is one JSON
object; the exit code is nonzero when any job failed or a check did not
hold.

Times are process CPU seconds, each job's scaled to a nominal machine
speed by reference runs just before and after it (see
``tracing.speed_ratio``): on a shared VM both wall and CPU time drift
with the other tenants' load, which no code change causes.

Workloads and why each was chosen are in ``workloads.py``.  Seeds 1-10
were used while the benchmark was tuned; a claimed gain must also hold
on the held-out seed :data:`HELD_OUT_SEED`.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: a seed not used while tuning the benchmark, for checking claims
HELD_OUT_SEED = 9001
#: set-ups per run; setup_s is their median
SETUP_REPS = 15
#: the tail percentile is the highest with this many samples beyond it
TAIL_BEYOND = 10
WORKLOAD_NAMES = ("job-linpack", "hops-bitonic", "live-structgrid")

E2E_UNITS = {
    "job_s": "s",
    "migrate_s": "s",
    "migrate_tail_s": "s",
    "pause_s": "s",
    "wire_bytes": "B",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


def tail(samples):
    """``(value, percentile)`` at the highest percentile with
    :data:`TAIL_BEYOND` samples beyond it, or ``(None, None)`` when the
    run has too few samples."""
    n = len(samples)
    if n < 2 * TAIL_BEYOND + 1:  # below that the "tail" would sit under the median
        return None, None
    i = n - TAIL_BEYOND - 1
    return sorted(samples)[i], 100.0 * (i + 1) / n


def median(values):
    return statistics.median(values) if values else None


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


@contextmanager
def slowed_restore(factor: float):
    """The self-test's slowdown: every ``Restorer.restore_variable`` call
    spins for *factor* times its own duration before returning."""
    from repro.msr.restore import Restorer
    from tracing import clock

    raw = Restorer.__dict__["restore_variable"]

    def restore_variable(self, block):
        t0 = clock()
        try:
            return raw(self, block)
        finally:
            until = clock() + factor * (clock() - t0)
            while clock() < until:
                pass

    Restorer.restore_variable = restore_variable
    try:
        yield
    finally:
        Restorer.restore_variable = raw


def set_up(source, machines, tracer=None):
    """Compile *source* fresh and specialise it for every machine; returns
    the program and the CPU seconds that took."""
    from repro import compile_program
    from tracing import clock

    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    t0 = clock()
    with span("vm.compile"):
        prog = compile_program(source, poll_strategy="user")
    with span("vm.specialize"):
        for arch in machines:
            prog.for_arch(arch)
    return prog, clock() - t0


def run_workload(name, seed, seconds, trace, inject):
    """One run of one workload; returns ``(result dict, report lines)``."""
    from repro.arch.machine import MACHINES
    from tracing import Tracer, speed_ratio
    from workloads import WORKLOADS, Oracle, run_job

    wl = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    sources = wl.sources(rng)
    specs = wl.jobs(rng)

    programs = [None] * len(sources)
    setup_s = []
    tracer = Tracer() if trace else None
    for i in range(SETUP_REPS):
        source = sources[i % len(sources)]
        gc.collect()
        if trace:
            tracer.job = f"setup-{i}"
            with tracer.installed():
                prog, _ = set_up(source, MACHINES, tracer)
        else:
            (prog, cpu_s), speed = speed_ratio(lambda: set_up(source, MACHINES))
            setup_s.append(cpu_s * speed)
        programs[i % len(sources)] = prog

    oracle = Oracle(programs)
    failures = []
    runs = {False: [], True: []}
    with slowed_restore(0.2) if inject == "slow-restore" else nullcontext():
        try:
            spec = next(specs)
            oracle.expect(spec.program, spec.first)
            run_job(wl, spec, oracle)  # warm-up, untimed
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            failures.append(f"warm-up: {type(exc).__name__}: {exc}")
        attempted = 0
        # the run measures jobs for `seconds`; reference runs come on top
        start = time.perf_counter() - oracle.wall_s
        while time.perf_counter() - oracle.wall_s - start < seconds or not attempted:
            spec = next(specs)
            oracle.expect(spec.program, spec.first)
            order = (False,)
            if trace:
                # traced and untraced runs of the same job, alternating order
                order = (False, True) if attempted % 4 == 0 else (True, False)
            for traced in order:
                attempted += 1
                job_tracer = tracer if traced else None
                if traced:
                    tracer.job = attempted
                corrupt = inject == "corrupt" and attempted == 1
                gc.collect()
                try:
                    with tracer.installed() if traced else nullcontext():
                        res, res.speed = speed_ratio(lambda: run_job(
                            wl, spec, oracle, job_tracer, corrupt=corrupt
                        ))
                except Exception as exc:  # noqa: BLE001 - every failure is counted
                    failures.append(f"job {attempted}: {type(exc).__name__}: {exc}")
                else:
                    runs[traced].append(res)

    lines = [
        f"{name}: seed {seed}, {attempted} jobs in {seconds} s",
        f"  {'failed_frac':<16} {len(failures) / attempted:>12.6g} {'':<4} "
        f"{len(failures)} of {attempted} jobs failed",
    ]
    lines += [f"  FAILED {f}" for f in failures[:5]]
    if trace:
        metrics, checks_ok = layer_metrics(tracer, runs, programs[0], lines)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
    else:
        metrics = end_to_end_metrics(runs[False], setup_s, lines)
        checks_ok = True
    result = {
        "correct": not failures and checks_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, lines


def end_to_end_metrics(results, setup_s, lines):
    """Times are CPU seconds scaled to the nominal speed, job by job."""
    from tracing import MIGRATE_EXPONENT

    jobs = [r.job_s * r.speed for r in results]
    migs = [(m, r.speed**MIGRATE_EXPONENT) for r in results for m in r.migrations]
    mig_s = [m.migrate_s * k for m, k in migs]
    tail_s, pct = tail(mig_s)
    lines.append(
        f"  CPU seconds scaled to the nominal speed: machine speed "
        f"{median([r.speed for r in results]):.4g} (median over jobs)"
    )
    values = {
        "job_s": (median(jobs), f"median of {len(jobs)} jobs"),
        "migrate_s": (median(mig_s), f"median of {len(mig_s)} migrations"),
        "migrate_tail_s": (
            tail_s,
            f"p{pct:.1f} of {len(mig_s)} migrations, {TAIL_BEYOND} beyond"
            if pct is not None
            else f"unavailable: {len(mig_s)} migrations, need {2 * TAIL_BEYOND + 1}",
        ),
        "pause_s": (
            median([m.pause_s * k for m, k in migs]),
            f"median of {len(migs)} migrations",
        ),
        "wire_bytes": (
            median([m.wire_bytes for m, _ in migs]),
            f"median of {len(migs)} migrations",
        ),
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ru_maxrss of this process",
        ),
        "setup_s": (median(setup_s), f"median of {len(setup_s)} set-ups"),
    }
    metrics = {}
    for key, (value, note) in values.items():
        unit = E2E_UNITS[key]
        metrics[key] = {"value": value, "unit": unit}
        shown = "unavailable" if value is None else f"{value:.6g}"
        lines.append(f"  {key:<16} {shown:>12} {unit:<4} {note}")
    return metrics


#: per-layer metric units, in report order
LAYER_UNITS = {
    "clang.parse_s": "s",
    "vm.compile_s": "s",
    "vm.ir_instrs": "count",
    "vm.specialize_s": "s",
    "vm.exec_s": "s",
    "vm.steps": "count",
    "vm.steps_per_s": "1/s",
    "vm.polls": "count",
    "vm.mallocs": "count",
    "msr.collect_s": "s",
    "msr.restore_s": "s",
    "msr.blocks": "count",
    "msr.payload_bytes": "B",
    "msr.msrlt_searches": "count",
    "msr.msrlt_hit_ratio": "ratio",
    "wire.codec_s": "s",
    "wire.compression_ratio": "ratio",
    "transport.send_s": "s",
    "transport.recv_s": "s",
    "transport.frames": "count",
    "transport.tx_model_s": "s",
    "engine.self_s": "s",
    "engine.attempts": "count",
    "obs.observe_s": "s",
    "obs.spans": "count",
    "precopy.slice_s": "s",
    "precopy.rounds": "count",
    "precopy.dirty_blocks": "count",
    "precopy.resent_ratio": "ratio",
    "trace.migrate_s": "s",
    "trace.partition_err": "ratio",
    "trace.nesting_errors": "count",
    "trace.uncovered_job_frac": "ratio",
    "trace.overhead_job_s": "s",
    "trace.overhead_migrate_s": "s",
}


#: per-layer CPU seconds of execution, and of ``migrate()``'s layers
EXEC_LAYER_TIMES = ("clang.parse_s", "vm.compile_s", "vm.specialize_s", "vm.exec_s")
MIGRATE_LAYER_TIMES = (
    "msr.collect_s", "msr.restore_s", "wire.codec_s", "transport.send_s",
    "transport.recv_s", "obs.observe_s", "precopy.slice_s", "engine.self_s",
)


def layer_metrics(tracer, runs, prog, lines):
    """Per-layer metrics of the traced jobs.  Times inside ``migrate`` are
    self seconds per migration, ``vm.exec``/``vm.*`` counts are per job,
    set-up times per set-up; CPU seconds are scaled to the nominal speed."""
    from tracing import MIGRATE_EXPONENT, analyse
    from workloads import LINK

    a = analyse(tracer.spans)
    traced, plain = runs[True], runs[False]
    migs = [m for r in traced for m in r.migrations]
    n_mig = max(a.n_migrates, 1)
    n_jobs = max(len(traced), 1)
    per_mig = lambda key: a.in_migrate.get(key, 0.0) / n_mig  # noqa: E731
    counts = tracer.counts
    exec_s = a.outside.get("vm.exec", 0.0)
    payload = sum(m.payload_bytes for m in migs)
    stored = sum(m.stored_bytes for m in migs)
    rounds = [m.precopy_round_bytes for m in migs if m.precopy_round_bytes]
    searches = sum(m.msrlt_searches for m in migs)

    def overhead(pick):
        t, p = pick(traced), pick(plain)
        return median(t) - median(p) if t and p else 0.0

    # one factor for the whole traced run keeps the partition exact
    speed = median([r.speed for r in traced]) or 1.0
    k_mig = speed**MIGRATE_EXPONENT

    values = {
        "clang.parse_s": a.outside.get("clang.parse", 0.0) / SETUP_REPS,
        "vm.compile_s": a.outside.get("vm.compile", 0.0) / SETUP_REPS,
        "vm.ir_instrs": sum(len(f.code) for f in prog.functions),
        "vm.specialize_s": a.outside.get("vm.specialize", 0.0) / SETUP_REPS,
        "vm.exec_s": exec_s / n_jobs,
        "vm.steps": counts.get("vm.exec.steps", 0) / n_jobs,
        "vm.steps_per_s": counts.get("vm.exec.steps", 0) / exec_s if exec_s else 0.0,
        "vm.polls": counts.get("vm.exec.polls", 0) / n_jobs,
        "vm.mallocs": counts.get("vm.exec.mallocs", 0) / n_jobs,
        "msr.collect_s": per_mig("msr.collect"),
        "msr.restore_s": per_mig("msr.restore"),
        "msr.blocks": mean(m.blocks for m in migs),
        "msr.payload_bytes": mean(m.payload_bytes for m in migs),
        "msr.msrlt_searches": mean(m.msrlt_searches for m in migs),
        "msr.msrlt_hit_ratio": (
            sum(m.msrlt_hits for m in migs) / searches if searches else 0.0
        ),
        "wire.codec_s": per_mig("wire.codec"),
        "wire.compression_ratio": payload / stored if stored else 1.0,
        "transport.send_s": per_mig("transport.send"),
        "transport.recv_s": per_mig("transport.recv"),
        "transport.frames": mean(m.frames for m in migs),
        "transport.tx_model_s": mean(LINK.transfer_time(m.wire_bytes) for m in migs),
        "engine.self_s": per_mig("engine.migrate"),
        "engine.attempts": mean(m.attempts for m in migs),
        "obs.observe_s": per_mig("obs.observe"),
        "obs.spans": mean(m.obs_spans for m in migs),
        "precopy.slice_s": per_mig("precopy.slice"),
        "precopy.rounds": mean(m.precopy_rounds for m in migs),
        "precopy.dirty_blocks": mean(m.precopy_dirty_blocks for m in migs),
        "precopy.resent_ratio": (
            sum(sum(r[1:]) for r in rounds) / sum(r[0] for r in rounds)
            if rounds else 0.0
        ),
        "trace.migrate_s": a.migrate_total / n_mig,
        "trace.partition_err": a.partition_err,
        "trace.nesting_errors": a.nesting_errors,
        "trace.uncovered_job_frac": (
            a.job_uncovered / a.job_total if a.job_total else 0.0
        ),
        "trace.overhead_job_s": overhead(lambda rs: [r.job_s * r.speed for r in rs]),
        "trace.overhead_migrate_s": overhead(lambda rs: [
            m.migrate_s * r.speed**MIGRATE_EXPONENT for r in rs for m in r.migrations
        ]),
    }
    for key in EXEC_LAYER_TIMES:
        values[key] *= speed
    values["vm.steps_per_s"] /= speed
    for key in (*MIGRATE_LAYER_TIMES, "trace.migrate_s"):
        values[key] *= k_mig
    lines.append(
        f"  traced: {len(traced)} jobs, {a.n_migrates} migrations; untraced: "
        f"{len(plain)} jobs (self seconds per migration inside migrate)"
    )
    metrics = {}
    for key, unit in LAYER_UNITS.items():
        value = values[key]
        metrics[key] = {"value": value, "unit": unit}
        note = "  (modeled, never in an end-to-end metric)" if key == "transport.tx_model_s" else ""
        lines.append(f"  {key:<26} {value:>12.6g} {unit}{note}")
    inside = sum(values[key] for key in MIGRATE_LAYER_TIMES)
    lines.append(
        f"  partition: layer self times sum to {inside:.6g} s of "
        f"{values['trace.migrate_s']:.6g} s per migrate"
    )
    checks_ok = a.nesting_errors == 0 and a.partition_err < 1e-9
    if not checks_ok:
        lines.append("  FAILED span checks: layer self times do not partition migrate")
    return metrics, checks_ok


def child(name, seed, seconds, trace, inject=None):
    """Run one workload in its own process; returns ``(result, returncode,
    stdout)``.  Its peak RSS is then that workload's alone."""
    cmd = [sys.executable, "-B", str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return result, proc.returncode, "\n".join(lines[:-1])


def run_all(seed, seconds, traces):
    """Every workload, each in its own process; prints each report and a
    combined JSON line whose metric keys are ``<workload>.<metric>``."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace in traces:
        for name in WORKLOAD_NAMES:
            result, code, report = child(name, seed, seconds, trace)
            print(report, flush=True)
            if result is None or code != 0:
                total["correct"] = False
                print(f"{name}: exited {code}", flush=True)
                if result is None:
                    continue
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for key, value in result["metrics"].items():
                total["metrics"][f"{name}.{key}"] = value
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def self_test(seed, seconds, repeats=3):
    """Both fault injections must be caught: a corrupted destination byte
    fails the run, and a 20% slower restore moves ``migrate_s`` and
    ``msr.restore_s`` on hops-bitonic past the ``migrate_s`` bound.  Each
    side of the slowdown is the median of *repeats* runs on seeds
    ``seed, seed+1, ...``, the two sides alternating which runs first."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}["migrate_s"]
    ok = True

    result, code, _ = child("job-linpack", seed, 1, 0, inject="corrupt")
    caught = code != 0 and result is not None and result["failed"] >= 1
    print(f"corrupt one restored byte: exit {code}, failed "
          f"{result and result['failed']}/{result and result['attempted']} -> "
          f"{'caught' if caught else 'MISSED'}", flush=True)
    ok &= caught

    for trace, key in ((0, "migrate_s"), (1, "msr.restore_s")):
        values = {None: [], "slow-restore": []}
        for i in range(repeats):
            sides = (None, "slow-restore") if i % 2 == 0 else ("slow-restore", None)
            for inject in sides:
                result, code, _ = child("hops-bitonic", seed + i, seconds, trace, inject)
                if result is None or code != 0:
                    print(f"hops-bitonic --trace {trace} --inject {inject}: "
                          f"exited {code}")
                    return 1
                values[inject].append(result["metrics"][key]["value"])
        before, after = median(values[None]), median(values["slow-restore"])
        change = after / before - 1.0
        caught = change > bound
        print(f"slow restore (+20%): {key} {before:.6g} -> {after:.6g} s "
              f"({change:+.1%}, bound {bound:.0%}) -> "
              f"{'caught' if caught else 'MISSED'}", flush=True)
        ok &= caught
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all", *WORKLOAD_NAMES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("corrupt", "slow-restore"),
                    help="self-test faults (see --self-test)")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload for 1 s, untraced then traced")
    ap.add_argument("--self-test", action="store_true",
                    help="check that both fault injections are caught")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; run from a "
              f"full checkout of the repository", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    if args.self_test:
        return self_test(args.seed, args.seconds)
    if args.smoke:
        return run_all(args.seed, 1, (0, 1))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, (args.trace,))
    result, lines = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.inject
    )
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
