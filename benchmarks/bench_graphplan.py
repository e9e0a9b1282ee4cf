"""Benchmark: compiled collect/restore plans vs the per-cell reference.

Measures the compiled plans — the pointer-free plan's one-cast bulk
moves, the PtrArrayPlan vectorized swizzle over the searchsorted MSRLT
arena, and the ChainPlan stride walk — against the per-cell reference
loop (``TITable.plans_enabled = False``), on the same stopped process,
with byte-identity asserted between the two payloads on every row.
Results feed ``BENCH_PR8.json``.

The "off" arm is the per-cell loop for every block, flat blocks
included.  Rows recorded before the plans were folded into one per type
used a faster off arm (struct codecs on, graph plans off), so only their
compiled-arm times compare with today's rows, not their speedups.

Timing is interleaved (off/on alternating inside one loop, best-of
repeats) because wall-clock drift between back-to-back process runs on
shared machines easily exceeds the effect being measured.

Both halves are timed through the *wire path* — collection drains
``collect_state_chunks`` (what a channel send consumes), restoration
replays those chunks through ``restore_state_stream`` (what the
destination's channel delivers).  That is the data path migration
actually takes, and it is where the zero-copy work lands: the
convenience APIs (``collect_state``/``restore_state``) add a full
payload copy on each side that is identical in both modes and would
only dilute the ratio being measured.

Workload roles:

- **structgrid** — struct-heavy grid whose per-probe allocations form
  long heap chains; the ChainPlan acceptance case (>= 10x total).
- **linpack** — large flat f64 matrices; the pointer-free plan's
  zero-copy wire acceptance case (>= 3x total; the payload memcpy floor is paid in
  both modes, which caps the collect side).
- **bitonic** — a pointer *tree*: every chain probe fails after one
  link, so the deterministic backoff must hold this workload at parity
  (documented decline case, excluded from the speedup gate but still
  byte-identity-checked).

Usage::

    python benchmarks/bench_graphplan.py --smoke     # small sizes, CI mode
    python benchmarks/bench_graphplan.py             # full sizes

Exits 1 in full mode if an acceptance workload misses its speedup gate,
and in any mode if a payload ever differs between plan-on and plan-off.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(_ROOT / "src"), str(_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.arch import SPARC20  # noqa: E402
from repro.migration.engine import (  # noqa: E402
    collect_state_chunks,
    restore_state_stream,
)
from repro.vm.process import Process  # noqa: E402

from benchmarks.bench_codec import _program, _stopped  # noqa: E402
from benchmarks.results import update_bench_json  # noqa: E402

BENCH_PR8 = _ROOT / "BENCH_PR8.json"

#: (workload, full size, smoke size)
SIZES = {
    "structgrid": ((8192, 8192), (512, 64)),
    "linpack": (1024, 96),
    "bitonic": (4000, 800),
}

#: full-mode acceptance: minimum total (collect+restore) speedup
GATES = {"structgrid": 10.0, "linpack": 3.0}

# plan-off restoration of an 8k-node chain recurses a few Python frames
# per node; give the interpreter room for the full-size workloads
sys.setrecursionlimit(max(sys.getrecursionlimit(), 200_000))


def _set_mode(proc: Process, dest_ti, enabled: bool) -> None:
    """Toggle the compiled plans on BOTH sides (off: per-cell loop)."""
    proc.ti.plans_enabled = enabled
    dest_ti.plans_enabled = enabled


def bench_graphplan(workload: str, size, repeats: int) -> dict:
    prog, polls = _program(workload, size)
    proc = _stopped(prog, polls)
    dest_ti = Process(prog, SPARC20).ti  # shared per (program, arch)

    # warm-up: materializes the arena, and gives byte-identity its
    # first check before anything is timed
    payloads, infos = {}, {}
    for enabled in (False, True):
        _set_mode(proc, dest_ti, enabled)
        info_slot = []
        chunks = [bytes(c) for c in collect_state_chunks(proc, info_slot=info_slot)]
        payloads[enabled] = b"".join(chunks)
        infos[enabled] = info_slot[0]
        scratch = Process(prog, SPARC20)
        _set_mode(proc, scratch.ti, enabled)
        restore_state_stream(prog, iter(chunks), scratch)
    payload_identical = payloads[True] == payloads[False]
    assert payload_identical, (
        f"{workload}: plan-on payload differs from plan-off payload"
    )
    payload = payloads[True]

    # interleaved best-of timing: collection is re-runnable (it registers
    # and then drops its stack blocks), restoration gets a fresh scratch
    # process per repeat with construction outside the timed region and
    # replays the chunks collection just drained — source and
    # destination halves of one wire transfer.  Cyclic GC is paused
    # inside the loops — a gen2 pass over the debris of an earlier
    # (larger) workload lands on whichever mode is timing and can flip
    # a ratio by 2x
    gc.collect()
    gc.disable()
    try:
        collect_s = {False: float("inf"), True: float("inf")}
        restore_s = {False: float("inf"), True: float("inf")}
        for _ in range(repeats):
            for enabled in (False, True):
                _set_mode(proc, dest_ti, enabled)
                t0 = time.perf_counter()
                chunks = list(collect_state_chunks(proc))
                collect_s[enabled] = min(
                    collect_s[enabled], time.perf_counter() - t0
                )
                scratch = Process(prog, SPARC20)
                _set_mode(proc, scratch.ti, enabled)
                t0 = time.perf_counter()
                restore_state_stream(prog, iter(chunks), scratch)
                restore_s[enabled] = min(
                    restore_s[enabled], time.perf_counter() - t0
                )
                del scratch, chunks
    finally:
        gc.enable()
    _set_mode(proc, dest_ti, True)

    stats = infos[True].stats
    total_off = collect_s[False] + restore_s[False]
    total_on = collect_s[True] + restore_s[True]
    return {
        "workload": workload,
        "size": list(size) if isinstance(size, tuple) else size,
        "payload_bytes": len(payload),
        "payload_identical": payload_identical,
        "n_blocks": stats.n_blocks,
        "n_plan_blocks": stats.n_plan_blocks,
        "collect_off_s": collect_s[False],
        "collect_plan_s": collect_s[True],
        "restore_off_s": restore_s[False],
        "restore_plan_s": restore_s[True],
        "collect_speedup": collect_s[False] / collect_s[True],
        "restore_speedup": restore_s[False] / restore_s[True],
        "total_speedup": total_off / total_on if total_on > 0 else 1.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes + no speedup gate (CI mode)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per mode (default: 5 full, 3 smoke)")
    parser.add_argument("--out", default=str(BENCH_PR8),
                        help="bench JSON to update (default: BENCH_PR8.json)")
    args = parser.parse_args(argv)
    repeats = args.repeats or (3 if args.smoke else 5)

    rows = []
    failures = []
    for workload, (full, smoke) in SIZES.items():
        size = smoke if args.smoke else full
        row = bench_graphplan(workload, size, repeats)
        rows.append(row)
        gate = GATES.get(workload)
        gated = gate is not None and not args.smoke
        print(
            f"{workload:10s} {str(size):>14s}  "
            f"collect {row['collect_off_s'] * 1e3:8.2f} -> "
            f"{row['collect_plan_s'] * 1e3:8.2f} ms "
            f"({row['collect_speedup']:5.2f}x)  "
            f"restore {row['restore_off_s'] * 1e3:8.2f} -> "
            f"{row['restore_plan_s'] * 1e3:8.2f} ms "
            f"({row['restore_speedup']:5.2f}x)  "
            f"total {row['total_speedup']:5.2f}x"
            + (f"  [gate >= {gate:.0f}x]" if gated else "")
        )
        if not row["payload_identical"]:
            failures.append(f"{workload}: payload mismatch between modes")
        if gated and row["total_speedup"] < gate:
            failures.append(
                f"{workload}: total speedup {row['total_speedup']:.2f}x "
                f"below the {gate:.0f}x acceptance gate"
            )

    out = update_bench_json(
        "graphplan",
        {"mode": "smoke" if args.smoke else "full", "rows": rows},
        Path(args.out),
    )
    print(f"wrote {out}")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
