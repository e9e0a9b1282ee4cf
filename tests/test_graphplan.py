"""Whole-graph vectorized collect/restore (PR 8).

Four contracts under test:

- **Arena equivalence** — the searchsorted arena's bulk lookup agrees
  with the scalar ``lookup_addr`` on every address class (start,
  interior, one-past-end-with-adjacent-successor, miss), and both the
  scalar last-hit cache and the cached arena snapshots are invalidated
  by *every* mutation class (the generation-stamp regression tests).
- **Byte identity** — graph plans never change a single wire byte, on
  any workload × architecture pair, and a plan-restored process resumes
  to the same stdout (DESIGN §12's invariant; the corpus-wide version
  lives in test_difftest_corpus.py).
- **Zero-copy plumbing** — WriteBuffer drain/flush detach storage
  (views survive later writes), StreamReadBuffer.readinto fills a
  destination straight from chunks, and Segment.write materializes
  fresh windows from the data itself.
- **Complexity accounting** — ``n_searches`` is identical plan-on vs
  plan-off, so E5's complexity counters keep their meaning.
"""

import numpy as np
import pytest

from repro.arch import ALPHA, DEC5000, SPARC20, ULTRA5, X86
from repro.arch.buffers import ReadBuffer, StreamReadBuffer, WriteBuffer
from repro.clang.ctypes import INT, TypeLayout
from repro.migration.engine import collect_state, restore_state
from repro.msr.graphplan import ChainPlan
from repro.msr.msrlt import MSRLT, BlockKind, MSRLTError
from repro.obs import MigrationObservation
from repro.vm.memory import Memory, MemoryFault
from repro.vm.process import Process
from repro.vm.program import compile_program
from repro.workloads import (
    bitonic_source,
    hashtable_source,
    linpack_source,
    structgrid_source,
)

WORKLOADS = {
    "structgrid": (structgrid_source(64, 24), 12),
    "linpack": (linpack_source(48), 1),
    "bitonic": (bitonic_source(96), 24),
    "hashtable": (hashtable_source(120), 60),
}

#: endianness flip, word-size change, and a same-layout control
ARCH_PAIRS = [(ULTRA5, DEC5000), (SPARC20, ALPHA), (DEC5000, X86)]


def _stopped(source: str, polls: int, arch) -> Process:
    prog = compile_program(source, poll_strategy="user")
    proc = Process(prog, arch)
    proc.start()
    proc.migration_pending = True
    proc.migrate_after_polls = polls
    result = proc.run()
    assert result.status == "poll"
    return proc


def _set_plans(proc: Process, enabled: bool) -> None:
    proc.ti.plans_enabled = enabled


# ---------------------------------------------------------------------------
# arena vs scalar lookup
# ---------------------------------------------------------------------------


@pytest.fixture
def table():
    return MSRLT(TypeLayout(SPARC20))


class TestArenaLookup:
    def _populated(self, table):
        table.register_global(0, 0x1000, INT, name="g")          # [0x1000, 0x1004)
        table.register_heap(0x2000, INT, 4)                       # [0x2000, 0x2010)
        table.register_heap(0x2010, INT, 2)                       # adjacent successor
        table.register_stack(0, 0, 0x7000, INT, name="s")         # [0x7000, 0x7004)
        return table

    def test_bulk_matches_scalar_on_every_address_class(self, table):
        self._populated(table)
        arena = table.arena()
        addrs = [0x1000, 0x2000, 0x2008, 0x2010, 0x7000, 0x7003]
        idx, offs = arena.lookup(np.asarray(addrs, dtype=np.int64))
        for k, addr in enumerate(addrs):
            block, off = table.lookup_addr(addr)
            assert arena.blocks[idx[k]] is block, hex(addr)
            assert offs[k] == off, hex(addr)

    def test_one_past_end_prefers_the_adjacent_start(self, table):
        """C's one-past-the-end rule: 0x2010 ends block A and starts
        block B — both paths must resolve it to B at offset 0."""
        self._populated(table)
        block, off = table.lookup_addr(0x2010)
        assert block.addr == 0x2010 and off == 0
        idx, offs = table.lookup_addrs_bulk(np.asarray([0x2010], dtype=np.int64))
        assert table.arena().blocks[idx[0]].addr == 0x2010 and offs[0] == 0

    def test_bulk_reports_misses_as_minus_one(self, table):
        self._populated(table)
        idx, _ = table.lookup_addrs_bulk(
            np.asarray([0x0500, 0x2020, 0x9999], dtype=np.int64)
        )
        assert list(idx) == [-1, -1, -1]
        with pytest.raises(MSRLTError):
            table.lookup_addr(0x0500)


class TestGenerationInvalidation:
    """Satellite 1: every cache in the lookup path is generation-gated."""

    def test_last_hit_cache_dies_with_its_block(self, table):
        table.register_heap(0x2000, INT, 4)
        table.lookup_addr(0x2004)  # primes the last-hit cache
        table.unregister(0x2000)
        with pytest.raises(MSRLTError):
            table.lookup_addr(0x2004)

    def test_last_hit_cache_survives_unrelated_mutation(self, table):
        b = table.register_heap(0x2000, INT, 4)
        table.lookup_addr(0x2004)
        hits_before = table.n_cache_hits
        table.register_heap(0x3000, INT, 1)  # bumps generation
        block, off = table.lookup_addr(0x2004)
        assert block is b and off == 4
        # the mutation invalidated the cache, so this was a re-search
        assert table.n_cache_hits == hits_before

    def test_bulk_lookup_interleaved_with_unregister(self, table):
        table.register_heap(0x2000, INT, 4)
        keep = table.register_heap(0x4000, INT, 4)
        addrs = np.asarray([0x2000, 0x4000], dtype=np.int64)
        idx, _ = table.lookup_addrs_bulk(addrs)
        assert -1 not in idx
        table.unregister(0x2000)
        idx, _ = table.lookup_addrs_bulk(addrs)
        assert idx[0] == -1
        assert table.arena().blocks[idx[1]] is keep

    def test_arena_snapshot_tracks_generation(self, table):
        table.register_heap(0x2000, INT, 1)
        a1 = table.arena()
        assert table.arena() is a1  # cached while nothing mutates
        table.register_heap(0x3000, INT, 1)
        a2 = table.arena()
        assert a2 is not a1 and len(a2.blocks) == 2

    def test_heap_arena_survives_stack_churn(self, table):
        """Collection registers/drops stack blocks around every pass;
        the heap-gated arena must not be rebuilt by that churn."""
        table.register_heap(0x2000, INT, 1)
        h1 = table.heap_arena()
        table.register_stack(0, 0, 0x7000, INT, name="s")
        table.drop_stack_blocks()
        assert table.heap_arena() is h1
        table.unregister(0x2000)  # heap mutation DOES invalidate
        assert table.heap_arena() is not h1

    def test_stale_arena_never_resolves_dropped_stack_blocks(self, table):
        table.register_stack(0, 0, 0x7000, INT, name="s")
        idx, _ = table.lookup_addrs_bulk(np.asarray([0x7000], dtype=np.int64))
        assert idx[0] != -1
        table.drop_stack_blocks()
        idx, _ = table.lookup_addrs_bulk(np.asarray([0x7000], dtype=np.int64))
        assert idx[0] == -1


class TestRegisterHeapBulk:
    def test_bulk_matches_serial_registration(self, table):
        blocks = table.register_heap_bulk(0x2000, 0x10, INT, 1, [0, 1, 2])
        assert [b.addr for b in blocks] == [0x2000, 0x2010, 0x2020]
        for b in blocks:
            found, off = table.lookup_addr(b.addr)
            assert found is b and off == 0
        # local serials continue above the imported ones
        assert table.register_heap(0x5000, INT, 1).logical[1] == 3

    def test_duplicate_serial_rejected(self, table):
        table.register_heap(0x5000, INT, 1, serial=7)
        with pytest.raises(MSRLTError, match="duplicate"):
            table.register_heap_bulk(0x2000, 0x10, INT, 1, [6, 7])

    def test_overlapping_range_rejected(self, table):
        table.register_heap(0x2010, INT, 1)
        with pytest.raises(MSRLTError, match="overlaps"):
            table.register_heap_bulk(0x2000, 0x10, INT, 1, [10, 11])

    def test_bulk_bumps_heap_generation(self, table):
        before = table.heap_generation
        table.register_heap_bulk(0x2000, 0x10, INT, 1, [0, 1])
        assert table.heap_generation > before


# ---------------------------------------------------------------------------
# byte identity + resume
# ---------------------------------------------------------------------------


class TestPlanByteIdentity:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize(
        "pair", ARCH_PAIRS, ids=lambda p: f"{p[0].name}-{p[1].name}"
    )
    def test_payload_and_resume_identical(self, workload, pair):
        src_arch, dst_arch = pair
        source, polls = WORKLOADS[workload]
        proc = _stopped(source, polls, src_arch)
        try:
            _set_plans(proc, False)
            baseline, _ = collect_state(proc)
            _set_plans(proc, True)
            planned, info = collect_state(proc)
            assert planned == baseline

            prog = proc.program
            outs = {}
            for enabled in (False, True):
                dest = Process(prog, dst_arch)
                _set_plans(dest, enabled)
                restore_state(prog, planned, dest)
                result = dest.run()
                assert result.status == "exit"
                outs[enabled] = dest.stdout
            assert outs[True] == outs[False]
        finally:
            _set_plans(proc, True)

    def test_structgrid_engages_plans(self):
        source, polls = WORKLOADS["structgrid"]
        proc = _stopped(source, polls, ULTRA5)
        _set_plans(proc, True)
        _, info = collect_state(proc)
        assert info.stats.n_plan_blocks > 0

    def test_hashtable_engages_the_chain_plan(self):
        """``struct entry`` ends in its ``next`` pointer: the chain plan
        is its one plan, so the identity rows above cover its bytes."""
        source, polls = WORKLOADS["hashtable"]
        proc = _stopped(source, polls, ULTRA5)
        plans = {}
        for block in proc.msrlt.heap_blocks():
            info = proc.ti.info_for(block.elem_type)
            plans[info.label] = info.plan
        assert isinstance(plans["struct entry"], ChainPlan)

    def test_attribution_keeps_payload_and_engagement(self):
        """The pointer-free plan runs under attribution too: a traced
        collection writes the same bytes and counts the same flat and
        codec blocks as an untraced one."""
        source, polls = WORKLOADS["structgrid"]
        proc = _stopped(source, polls, DEC5000)
        plain, plain_info = collect_state(proc)
        observation = MigrationObservation(attribution=True)
        with observation.activate():
            traced, traced_info = collect_state(proc)
        assert observation.attribution.summary()["rows"]
        assert traced == plain
        for counter in ("n_flat_blocks", "n_codec_blocks"):
            assert getattr(traced_info.stats, counter) == getattr(
                plain_info.stats, counter
            )
        assert plain_info.stats.n_flat_blocks > 0
        assert plain_info.stats.n_codec_blocks > 0

    def test_n_searches_identical_across_modes(self):
        """E5's complexity counters must not notice the plans: a bulk
        batch charges exactly the searches the scalar walk would."""
        source, polls = WORKLOADS["structgrid"]
        proc = _stopped(source, polls, ULTRA5)
        deltas = {}
        for enabled in (False, True):
            _set_plans(proc, enabled)
            before = proc.msrlt.n_searches
            collect_state(proc)
            deltas[enabled] = proc.msrlt.n_searches - before
        _set_plans(proc, True)
        assert deltas[True] == deltas[False]


# ---------------------------------------------------------------------------
# zero-copy plumbing
# ---------------------------------------------------------------------------


class TestWriteBufferZeroCopy:
    def test_drain_views_survive_later_writes(self):
        buf = WriteBuffer()
        buf.write(bytes(range(100)))
        chunks = buf.drain(64)
        assert [len(c) for c in chunks] == [64]
        assert isinstance(chunks[0], memoryview)
        buf.write(bytes(200))  # would resize live storage if not detached
        assert bytes(chunks[0]) == bytes(range(64))

    def test_drain_flush_reassembles_exactly(self):
        buf = WriteBuffer()
        payload = bytes(range(256)) * 33  # 8448 bytes, not chunk-aligned
        buf.write(payload)
        parts = buf.drain(4096)
        parts.append(buf.flush())
        assert b"".join(bytes(p) for p in parts) == payload
        assert buf.nbytes == len(payload)

    def test_flush_view_is_detached(self):
        buf = WriteBuffer()
        buf.write(b"abc")
        tail = buf.flush()
        buf.write(b"xyz")
        assert bytes(tail) == b"abc"


class TestReadInto:
    def test_monolithic_readinto(self):
        buf = ReadBuffer(b"\x01" + bytes(range(64)))
        assert buf.read_u8() == 1
        dest = bytearray(64)
        buf.readinto(dest)
        assert dest == bytearray(range(64))
        with pytest.raises(EOFError):
            buf.readinto(bytearray(1))

    def test_stream_readinto_spans_chunks(self):
        chunks = [bytes(range(50)), bytes(range(50, 100)), b"TAIL"]
        buf = StreamReadBuffer(iter(chunks))
        assert buf.read_u8() == 0
        dest = bytearray(99)
        buf.readinto(dest)  # crosses both chunk boundaries
        assert dest == bytearray(range(1, 100))
        assert buf.position == 100
        # the leftover chunk tail must still be readable afterwards
        assert bytes(buf.read(4)) == b"TAIL"

    def test_stream_readinto_underrun(self):
        buf = StreamReadBuffer(iter([b"abc"]))
        with pytest.raises(EOFError):
            buf.readinto(bytearray(4))

    def test_stream_bulk_read_joins_once(self):
        """A read far larger than the chunk size must return the exact
        bytes (the single-join refill path)."""
        payload = np.arange(65536, dtype=np.uint8).tobytes()
        chunks = [payload[i : i + 4096] for i in range(0, len(payload), 4096)]
        buf = StreamReadBuffer(iter(chunks))
        assert bytes(buf.read(len(payload))) == payload


class TestSegmentWrite:
    def _memory(self):
        return Memory(SPARC20)

    def test_fresh_window_materializes_from_data(self):
        mem = self._memory()
        base = mem.heap_seg.base
        data = bytes(range(200))
        mem.write_bytes(base + 64, data)
        assert mem.read_bytes(base + 64, 200) == data
        # the gap below the write reads as zeros
        assert mem.read_bytes(base, 64) == bytes(64)

    def test_append_with_gap_zero_fills_the_gap_only(self):
        mem = self._memory()
        base = mem.heap_seg.base
        mem.write_bytes(base, b"A" * 16)
        far = base + 200_000  # beyond the window and its slack
        mem.write_bytes(far, b"B" * 16)
        assert mem.read_bytes(base, 16) == b"A" * 16
        assert mem.read_bytes(far, 16) == b"B" * 16
        assert mem.read_bytes(far - 64, 64) == bytes(64)

    def test_front_extension_preserves_contents(self):
        mem = self._memory()
        sp = mem.stack_seg.limit - 4096
        mem.write_bytes(sp, b"C" * 64)
        lower = sp - 150_000
        mem.write_bytes(lower, b"D" * 64)
        assert mem.read_bytes(sp, 64) == b"C" * 64
        assert mem.read_bytes(lower, 64) == b"D" * 64

    def test_overlapping_write_splices_and_extends(self):
        mem = self._memory()
        base = mem.heap_seg.base
        mem.write_bytes(base, bytes(range(64)))
        we = base + len(mem.heap_seg.buf)  # current window end
        mem.write_bytes(we - 8, b"E" * 16)  # straddles the boundary
        assert mem.read_bytes(we - 8, 16) == b"E" * 16

    def test_out_of_segment_write_faults(self):
        mem = self._memory()
        with pytest.raises(MemoryFault, match="outside"):
            mem.heap_seg.write(mem.heap_seg.limit - 4, bytes(8))

    def test_zero_does_not_materialize(self):
        mem = self._memory()
        base = mem.heap_seg.base
        mem.write_bytes(base, b"F" * 8)
        before = len(mem.heap_seg.buf)
        mem.zero(base + 1_000_000, 4096)  # far beyond the window
        assert len(mem.heap_seg.buf) == before
        # unmaterialized spans still read as zeros once touched
        assert mem.read_bytes(base + 1_000_000, 4096) == bytes(4096)

    def test_zero_wipes_the_materialized_overlap(self):
        mem = self._memory()
        base = mem.heap_seg.base
        mem.write_bytes(base, b"G" * 64)
        mem.zero(base + 16, 16)
        assert mem.read_bytes(base, 64) == b"G" * 16 + bytes(16) + b"G" * 32

    def test_write_view_roundtrip(self):
        mem = self._memory()
        base = mem.heap_seg.base
        dest = mem.write_view(base + 32, 64)
        src = bytes(range(64))
        StreamReadBuffer(iter([src[:40], src[40:]])).readinto(dest)
        assert mem.read_bytes(base + 32, 64) == src
