"""Benchmark: compiled type codecs, MSRLT caching, and wire compression.

Three experiments, all feeding ``BENCH_PR3.json`` at the repo root:

- **codec** — collect + restore CPU time with the compiled plans
  enabled vs the per-cell reference loop (``TITable.plans_enabled``),
  on the same stopped process, with byte-identity asserted between the
  two payloads.  The struct-heavy ``structgrid`` workload is the
  acceptance case (the compiled path must be >= 2x faster end to end
  there); the pointer-chasing ``bitonic`` tree gains little — its nodes
  carry pointers and the chain plan declines tree-shaped data.
- **compression** — a monolithic-vs-streamed x raw-vs-compressed grid:
  wire bytes actually stored, compression ratio, codec (deflate) time,
  and modeled transfer time over the paper's 10 Mb/s Ethernet.
- **msrlt_cache** — the last-hit cache's hit rate during collection
  (``n_cache_hits / n_searches``, the E5 complexity counters).

Usage::

    python benchmarks/bench_codec.py --smoke     # small sizes, CI mode
    python benchmarks/bench_codec.py             # full sizes

Exits 1 if, on a workload where the pointer-free plan engages on
non-flat structs (``n_codec_blocks > 0``), the compiled collect is
slower than the per-cell reference beyond a 10% noise margin — the
whole point of compiling the plans.  Other workloads are excluded from
the check.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(_ROOT / "src"), str(_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.arch import SPARC20, ULTRA5  # noqa: E402
from repro.migration.engine import (  # noqa: E402
    MigrationEngine,
    collect_state,
    restore_state,
)
from repro.migration.transport import Channel, ETHERNET_10M  # noqa: E402
from repro.vm.process import Process  # noqa: E402
from repro.vm.program import compile_program  # noqa: E402
from repro.workloads import (  # noqa: E402
    bitonic_source,
    linpack_source,
    structgrid_source,
)

from benchmarks.results import update_bench_json  # noqa: E402

BENCH_PR3 = _ROOT / "BENCH_PR3.json"

#: (workload, full size, smoke size)
SIZES = {
    "structgrid": ((4096, 256), (512, 64)),
    "bitonic": (4000, 800),
    "linpack": (256, 96),
}


def _program(workload: str, size):
    if workload == "structgrid":
        cells, probes = size
        return compile_program(
            structgrid_source(cells, probes), poll_strategy="user"
        ), probes
    if workload == "bitonic":
        return compile_program(bitonic_source(size), poll_strategy="user"), size
    return compile_program(linpack_source(size), poll_strategy="user"), 1


def _stopped(prog, polls: int) -> Process:
    proc = Process(prog, ULTRA5)
    proc.start()
    proc.migration_pending = True
    proc.migrate_after_polls = polls
    result = proc.run()
    assert result.status == "poll", "workload never reached its poll-point"
    return proc


def _time_collect(proc, repeats: int) -> tuple[float, bytes]:
    """Best-of-*repeats* wall time of one full collection (re-runnable:
    collection registers and then drops its stack blocks)."""
    best, payload = float("inf"), b""
    for _ in range(repeats):
        t0 = time.perf_counter()
        payload, _info = collect_state(proc)
        best = min(best, time.perf_counter() - t0)
    return best, payload


def _time_restore(prog, payload: bytes, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        scratch = Process(prog, SPARC20)
        t0 = time.perf_counter()
        restore_state(prog, payload, scratch)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_codecs(workload: str, size, repeats: int) -> dict:
    """Collect + restore CPU time, compiled plans vs per-cell reference."""
    prog, polls = _program(workload, size)
    proc = _stopped(prog, polls)
    dest_ti = Process(prog, SPARC20).ti  # shared per (program, arch)

    results = {}
    for mode, enabled in (("percell", False), ("codec", True)):
        proc.ti.plans_enabled = enabled
        dest_ti.plans_enabled = enabled
        collect_s, payload = _time_collect(proc, repeats)
        restore_s = _time_restore(prog, payload, repeats)
        results[mode] = (collect_s, restore_s, payload)

    pc_c, pc_r, pc_payload = results["percell"]
    cd_c, cd_r, cd_payload = results["codec"]
    assert pc_payload == cd_payload, (
        f"{workload}: compiled codec payload differs from per-cell payload"
    )
    _, info = collect_state(proc)  # one extra pass for the codec counters
    total_speedup = (pc_c + pc_r) / (cd_c + cd_r) if cd_c + cd_r > 0 else 1.0
    return {
        "workload": workload,
        "size": size,
        "payload_bytes": len(cd_payload),
        "collect_percell_s": pc_c,
        "collect_codec_s": cd_c,
        "restore_percell_s": pc_r,
        "restore_codec_s": cd_r,
        "collect_speedup": pc_c / cd_c if cd_c > 0 else 1.0,
        "restore_speedup": pc_r / cd_r if cd_r > 0 else 1.0,
        "total_speedup": total_speedup,
        "n_codec_blocks": info.stats.n_codec_blocks,
        "payload_identical": True,
    }


def bench_compression(workload: str, size) -> list[dict]:
    """Monolithic vs streamed, raw vs compressed, on one workload."""
    prog, polls = _program(workload, size)
    rows = []
    for streamed in (False, True):
        for compress in (False, True):
            proc = _stopped(prog, polls)
            channel = Channel(ETHERNET_10M)
            _, stats = MigrationEngine().migrate(
                proc,
                SPARC20,
                channel=channel,
                streaming=streamed,
                chunk_size=16 * 1024,
                compress=compress,
            )
            rows.append({
                "workload": workload,
                "size": size,
                "streamed": streamed,
                "compressed": compress,
                "payload_bytes": stats.payload_bytes,
                "stored_bytes": stats.compressed_bytes or stats.payload_bytes,
                "compression_ratio": stats.compression_ratio,
                "codec_s": stats.codec_time,
                "tx_s": stats.tx_time,
                "response_s": stats.response_time,
            })
    return rows


def bench_msrlt_cache(size) -> dict:
    """Last-hit cache hit rate while collecting the structgrid workload."""
    prog, polls = _program("structgrid", size)
    proc = _stopped(prog, polls)
    # scalar-cache measurement: bulk lookups bypass the last-hit cache,
    # so pin the plans off to keep the hit-rate comparable
    proc.ti.plans_enabled = False
    collect_state(proc)
    msrlt = proc.msrlt
    return {
        "workload": "structgrid",
        "size": size,
        "n_searches": msrlt.n_searches,
        "n_cache_hits": msrlt.n_cache_hits,
        "hit_rate": msrlt.n_cache_hits / msrlt.n_searches
        if msrlt.n_searches
        else 0.0,
    }


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, fewer repeats (CI mode)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per mode (best-of)")
    parser.add_argument("--out", default=None,
                        help="bench JSON path (default: BENCH_PR3.json)")
    args = parser.parse_args(argv)

    idx = 1 if args.smoke else 0
    repeats = args.repeats or (2 if args.smoke else 5)
    out = args.out or BENCH_PR3

    codec_rows = []
    for workload in ("structgrid", "bitonic", "linpack"):
        row = bench_codecs(workload, SIZES[workload][idx], repeats)
        codec_rows.append(row)
        print(
            f"{workload:10s} {str(row['size']):>12s} "
            f"{row['payload_bytes']:>9d} B | "
            f"collect {row['collect_percell_s'] * 1e3:8.2f} -> "
            f"{row['collect_codec_s'] * 1e3:8.2f} ms "
            f"({row['collect_speedup']:.2f}x) | "
            f"restore {row['restore_percell_s'] * 1e3:8.2f} -> "
            f"{row['restore_codec_s'] * 1e3:8.2f} ms "
            f"({row['restore_speedup']:.2f}x) | "
            f"total {row['total_speedup']:.2f}x"
        )

    comp_rows = bench_compression("structgrid", SIZES["structgrid"][idx])
    comp_rows += bench_compression("linpack", SIZES["linpack"][idx])
    for r in comp_rows:
        mode = ("streamed" if r["streamed"] else "monolith") + (
            "+zlib" if r["compressed"] else ""
        )
        print(
            f"{r['workload']:10s} {mode:14s} "
            f"{r['payload_bytes']:>9d} -> {r['stored_bytes']:>9d} B "
            f"(ratio {r['compression_ratio']:6.2f}x) | "
            f"codec {r['codec_s'] * 1e3:6.2f} ms | tx {r['tx_s'] * 1e3:8.2f} ms"
        )

    cache = bench_msrlt_cache(SIZES["structgrid"][idx])
    print(
        f"msrlt cache: {cache['n_cache_hits']}/{cache['n_searches']} hits "
        f"({cache['hit_rate']:.1%}) on structgrid{cache['size']}"
    )

    mode = "smoke" if args.smoke else "full"
    update_bench_json("codec", {"mode": mode, "repeats": repeats,
                                "rows": codec_rows}, out)
    update_bench_json("compression", {"mode": mode, "link": ETHERNET_10M.name,
                                      "rows": comp_rows}, out)
    path = update_bench_json("msrlt_cache", cache, out)
    print(f"(results merged into {path})")

    failed = 0
    for row in codec_rows:
        # where the gate declined compilation both modes run the same
        # code, so a delta there is timer noise, not a regression
        if row["n_codec_blocks"] == 0:
            continue
        if row["collect_codec_s"] > row["collect_percell_s"] * 1.10:
            print(
                f"WARNING: compiled codec collect slower than per-cell on "
                f"{row['workload']} ({row['collect_codec_s']:.4f}s vs "
                f"{row['collect_percell_s']:.4f}s)",
                file=sys.stderr,
            )
            failed = 1
    return failed


if __name__ == "__main__":
    raise SystemExit(run())
