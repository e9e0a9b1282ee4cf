"""Compiled saving/restoring plans (DESIGN.md §8, §12).

Every :class:`~repro.msr.ti.TypeInfo` carries at most one plan, compiled
once per (type, architecture) by :func:`compile_plan`:

- :class:`PointerFreePlan` — every type without pointer cells.  A block
  converts between a host NumPy dtype (structured, with the real field
  offsets, when the type is not a dense run of one primitive) and its
  packed big-endian wire dtype in one cast; when the two dtypes are
  equal the bytes move with no cast at all (segment window → wire
  buffer storage on collect, wire → segment window on restore).

- :class:`PtrArrayPlan` — for blocks that are dense pointer arrays
  (``cell *hot[64]``): gather every pointer value with one
  ``frombuffer``, classify NULL / REF (visited target) / BLOCK
  (unvisited target) vectorized, and emit whole same-class runs as one
  structured-array write.  Unvisited targets still recurse through the
  reference traversal (they must — their contents follow on the wire).

- :class:`ChainPlan` — for linked-list-shaped structs (tail cell is a
  pointer): on collect, a speculative stride walk discovers the whole
  chain of equally-spaced heap nodes at once, validates eligibility
  against the arena columns, and emits ``m`` records as one structured
  row array; on restore, the row array is parsed back vectorized, the
  nodes are carved with one bulk heap allocation + one bulk MSRLT
  slice-insert, and the contents land with one scatter write.

Both pointer plans look addresses up in a :class:`SortedArena` — the
MSRLT's blocks snapshotted into parallel NumPy columns (starts, ends,
kinds, logical ids, type keys, counts) so *every pointer in a block*
translates to ``(logical id, offset)`` with one ``numpy.searchsorted``
instead of one bisect per pointer.  Stamped with the table's mutation
generation: register/unregister invalidates it and the scalar last-hit
cache by the same rule.

Every plan produces and consumes bytes *identical* to the per-cell
reference loop in the collector and restorer — each decision point
either batches or falls back to the reference functions mid-stream,
never both for the same record — and the per-element eligibility rules
(visited marks, address parity of the destination allocator, padding
ordinals, dangling pointers) are checked *before* any bytes are written
so a decline is always clean.  ``TITable.plans_enabled = False`` sends
every block through the reference loop.  The two pointer plans
(``EMITS_RECORDS``) write records past the per-block hooks, so they are
also off whenever an attribution profiler is active (its per-type byte
partition must stay exact) and in the pre-copy collectors/restorers.
"""

from __future__ import annotations

import struct
from bisect import bisect_right

import numpy as np

from repro.arch import xdr
from repro.msr.msrlt import BlockKind, MSRLTError

__all__ = [
    "SortedArena",
    "PointerFreePlan",
    "PtrArrayPlan",
    "ChainPlan",
    "compile_plan",
]

#: smallest pointer-array block worth the NumPy call overhead (below
#: this the scalar loop is faster; payload bytes are identical either
#: way, so the threshold is purely a performance choice)
MIN_BULK_CELLS = 16
#: smallest chain batch worth the collect-side NumPy round-trip.  The
#: scalar pre-walk in :meth:`ChainPlan.save_tail` must find this many
#: linked nodes before anything is vectorized, so tree-shaped data
#: (whose "chains" are 2-3 coincidentally adjacent allocations) stays
#: on the cheap reference path.
MIN_CHAIN = 4
#: smallest row run worth a batched restore.  Restore rows are
#: self-describing (no speculation), so the overhead floor is lower.
RESTORE_MIN_CHAIN = 2
#: deterministic engagement backoff: after this many *consecutive*
#: declined chain attempts the plan stops even pre-walking for the next
#: CHAIN_BACKOFF_SKIP tail pointers (tree-shaped data declines every
#: time; without backoff the per-tail attempt cost adds up).  Any
#: successful batch resets both counters, so a long list that follows a
#: tree re-engages within ~CHAIN_BACKOFF_SKIP nodes.  Purely a timing
#: choice — the emitted/consumed bytes never depend on engagement.
CHAIN_BACKOFF_MISSES = 8
CHAIN_BACKOFF_SKIP = 512

_TAG_NULL = 0
_TAG_REF = 1
_TAG_BLOCK = 2

#: one wire REF record: tag, logical (kind,a,b), ordinal — 14 bytes
REF_DTYPE = np.dtype(
    [("tag", "u1"), ("lk", "u1"), ("la", ">u4"), ("lb", ">u4"), ("ord", ">u4")]
)

_DANGLING = (
    "pointer {value:#x} does not refer to any live memory block; "
    "the program stored a dangling or fabricated address, which is "
    "migration-unsafe"
)


class SortedArena:
    """Immutable columnar snapshot of an MSRLT's sorted block arrays.

    Built lazily by :meth:`MSRLT.arena` and cached until the table's
    generation moves; ``lookup`` is the vectorized twin of
    ``MSRLT.lookup_addr`` (same start-preference and one-past-end
    semantics — see INTERNALS §14 for the equivalence argument).
    """

    __slots__ = (
        "generation", "blocks", "starts", "ends", "kinds",
        "la", "lb", "tkeys", "counts",
        "starts_l", "kinds_l", "tkeys_l", "counts_l",
    )

    def __init__(self, blocks, generation: int) -> None:
        self.generation = generation
        self.blocks = list(blocks)  # aligned with the columns below
        # plain-list mirrors for the scalar pre-walk: per-call `bisect`
        # on a list beats `np.searchsorted` on one address, and the
        # pre-walk runs once per tail pointer that *might* start a chain
        self.starts_l = [b.addr for b in blocks]
        self.kinds_l = [int(b.logical[0]) for b in blocks]
        #: elem_type identity per block — the MemoryBlock objects in
        #: ``blocks`` keep the type objects alive, so ids cannot recycle
        self.tkeys_l = [id(b.elem_type) for b in blocks]
        self.counts_l = [b.count for b in blocks]
        # the NumPy columns cost ~2µs/block to build; workloads whose
        # chains never pass the scalar pre-walk must not pay for them,
        # so they materialize on the first vectorized lookup
        self.starts = None
        self.ends = None
        self.kinds = None
        self.la = None
        self.lb = None
        self.tkeys = None
        self.counts = None

    def _materialize(self) -> None:
        blocks = self.blocks
        n = len(blocks)
        self.starts = np.array(self.starts_l, np.int64)
        self.ends = self.starts + np.fromiter(
            (b.size for b in blocks), np.int64, count=n
        )
        self.kinds = np.array(self.kinds_l, np.uint8)
        self.la = np.fromiter((b.logical[1] for b in blocks), np.int64, count=n)
        self.lb = np.fromiter((b.logical[2] for b in blocks), np.int64, count=n)
        self.tkeys = np.array(self.tkeys_l, np.uint64)
        self.counts = np.array(self.counts_l, np.int64)

    def __len__(self) -> int:
        return len(self.blocks)

    def lookup(self, addrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized address→block search.

        Returns ``(indexes, offsets)`` into this arena; ``indexes[k] ==
        -1`` where ``addrs[k]`` resolves to no block (the scalar path
        raises there).  ``searchsorted(..., side="right") - 1`` lands on
        the last block whose start is ≤ addr, which — because block
        starts are unique and no block is zero-sized — is exactly the
        block the scalar path's bisect + one-past-end fallback picks:
        an address that is both block *i*'s end and block *j*'s start
        indexes *j* directly (start preference for free).
        """
        if self.starts is None:
            self._materialize()
        if len(self.starts) == 0:
            # empty arena (e.g. bulk lookup after drop_stack_blocks on a
            # heap-free program): nothing resolves
            n = len(addrs)
            return np.full(n, -1, np.intp), np.zeros(n, np.int64)
        idx = np.searchsorted(self.starts, addrs, side="right") - 1
        safe = np.maximum(idx, 0)
        contained = (idx >= 0) & (addrs <= self.ends[safe])
        idx = np.where(contained, idx, -1)
        offs = np.where(contained, addrs - self.starts[safe], 0)
        return idx, offs


def _unique_inverse(a: np.ndarray):
    """``np.unique(a, return_inverse=True)`` with a fast path for the
    overwhelmingly common case of a single distinct value (a whole run
    of pointers into one array) — skips the O(n log n) sort."""
    if bool((a == a[0]).all()):
        return a[:1], np.zeros(a.shape[0], np.intp)
    return np.unique(a, return_inverse=True)


def _unique_rows(trip: np.ndarray) -> np.ndarray:
    """``np.unique(trip, axis=0)`` with the same single-group fast path
    (the axis-0 form sorts void records, which is disproportionately
    slow)."""
    if bool((trip == trip[0]).all()):
        return trip[:1]
    return np.unique(trip, axis=0)


def vec_byte_to_ordinal(info, offs: np.ndarray, count: int):
    """Vectorized ``TypeInfo.byte_to_ordinal`` — ``None`` if any offset
    lands in padding (the scalar path raises ``ValueError`` there; the
    caller falls back per-cell so the reference error surfaces)."""
    total_units = info.units_in(count)
    total_bytes = total_units * info.unit_size
    pastend = offs == total_bytes
    unit_idx = offs // info.unit_size
    within = offs - unit_idx * info.unit_size
    cell_offs = np.fromiter((c.offset for c in info.cells), np.int64,
                            count=info.cell_count)
    pos = np.searchsorted(cell_offs, within)
    safe = np.minimum(pos, info.cell_count - 1)
    ok = (pos < info.cell_count) & (cell_offs[safe] == within)
    if not bool(np.all(ok | pastend)):
        return None
    ords = unit_idx * info.cell_count + pos
    ords[pastend] = info.cells_in(count)
    return ords


def vec_ordinal_to_byte(info, ords: np.ndarray, count: int) -> np.ndarray:
    """Vectorized ``TypeInfo.ordinal_to_byte`` (total, like the scalar)."""
    pastend = ords == info.cells_in(count)
    unit_idx = ords // info.cell_count
    within = ords - unit_idx * info.cell_count
    cell_offs = np.fromiter((c.offset for c in info.cells), np.int64,
                            count=info.cell_count)
    res = unit_idx * info.unit_size + cell_offs[within]
    res[pastend] = info.units_in(count) * info.unit_size
    return res


def _true_prefix(mask: np.ndarray) -> int:
    """Length of the leading all-True run of a boolean array."""
    bad = np.flatnonzero(~mask)
    return int(bad[0]) if bad.size else int(mask.size)


# -- pointer-free blocks ------------------------------------------------------


class PointerFreePlan:
    """The saving/restoring function of every pointer-free type.

    The block's cells are a host NumPy dtype — a plain primitive dtype
    for flat types (``double[n]``, ``struct {int a; int b;}``), else a
    structured dtype with the unit's real field offsets and itemsize, so
    padding is stepped over for free — and the wire image is the packed
    big-endian twin of the same fields.  One cast moves a whole block
    either way, independent of its size.  When the two dtypes are equal
    (big-endian host, wire-sized fields, no padding) no cast is needed
    at all: collection writes the segment window straight into the wire
    buffer and restoration reads the wire straight into the segment.
    """

    EMITS_RECORDS = False
    __slots__ = ("KIND", "host_dtype", "wire_dtype", "per_unit", "same")

    def __init__(self, info, layout) -> None:
        arch = layout.arch
        if info.flat_kind is not None:
            # KIND doubles as the attribution engagement class
            self.KIND = "flat"
            self.host_dtype = xdr.host_np_dtype(info.flat_kind, arch)
            self.wire_dtype = xdr.wire_dtype(info.flat_kind)
            self.per_unit = info.cell_count
        else:
            self.KIND = "codec"
            names = [f"c{i}" for i in range(info.cell_count)]
            self.host_dtype = np.dtype({
                "names": names,
                "formats": [xdr.host_np_dtype(c.kind, arch) for c in info.cells],
                "offsets": [c.offset for c in info.cells],
                "itemsize": info.unit_size,
            })
            self.wire_dtype = np.dtype(
                [(name, xdr.wire_dtype(c.kind)) for name, c in zip(names, info.cells)]
            )
            self.per_unit = 1
        self.same = self.host_dtype == self.wire_dtype

    def save(self, collector, block, info) -> bool:
        n = info.units_in(block.count) * self.per_unit
        raw = collector.memory.view(block.addr, n * self.host_dtype.itemsize)
        if self.same:
            collector.buf.write(raw)
        else:
            # cast straight into the wire buffer's storage: C-style, so
            # narrowing wraps modulo 2^bits and widening sign-extends,
            # exactly like xdr.encode on each cell
            collector.buf.write_ndarray(
                np.frombuffer(raw, self.host_dtype, count=n), self.wire_dtype
            )
        if self.KIND == "flat":
            collector.stats.n_flat_blocks += 1
        else:
            collector.stats.n_codec_blocks += 1
        return True

    def restore(self, restorer, block, info) -> bool:
        n = info.units_in(block.count) * self.per_unit
        dest = restorer.memory.write_view(block.addr, n * self.host_dtype.itemsize)
        if self.same:
            # on a streamed restore each arriving chunk lands directly in
            # the segment window: no intermediate join, one copy total
            restorer.buf.readinto(dest)
            return True
        wire = restorer.buf.read(n * self.wire_dtype.itemsize)
        # field-wise assignment: padding bytes stay as they are, as with
        # the per-cell loop
        np.frombuffer(dest, self.host_dtype, count=n)[:] = np.frombuffer(
            wire, self.wire_dtype, count=n
        )
        return True


# -- pointer arrays -----------------------------------------------------------


class PtrArrayPlan:
    """Run-batched save/restore for dense pointer-array blocks."""

    KIND = "ptr_array"
    EMITS_RECORDS = True
    __slots__ = ("ptr_size",)

    def __init__(self, info, layout) -> None:
        self.ptr_size = layout.arch.ptr_size

    # -- collect --------------------------------------------------------------

    def save(self, collector, block, info) -> bool:
        n = info.cells_in(block.count)
        if n < MIN_BULK_CELLS:
            return False
        memory = collector.memory
        msrlt = collector.msrlt
        host = memory.np_dtype("ptr")
        raw = memory.view(block.addr, n * host.itemsize)
        vals = np.frombuffer(raw, dtype=host, count=n).astype(np.int64)
        del raw
        arena = msrlt.arena()
        idx = np.full(n, -1, np.int64)
        offs = np.zeros(n, np.int64)
        nonnull = vals != 0
        if bool(nonnull.any()):
            i2, o2 = arena.lookup(vals[nonnull])
            if bool(np.any(i2 < 0)):
                # a dangling pointer somewhere in the array: decline the
                # whole block so the reference loop raises the canonical
                # error at the right element (no searches counted here)
                return False
            idx[nonnull] = i2
            offs[nonnull] = o2
        visited = collector._visited
        # classify: 0 = NULL, 1 = REF (target visited), 2 = BLOCK
        cls = np.zeros(n, np.uint8)
        if bool(nonnull.any()):
            uniq, inv = _unique_inverse(idx[nonnull])
            seen = np.fromiter(
                (arena.blocks[i].logical in visited for i in uniq),
                np.bool_, count=len(uniq),
            )
            cls[nonnull] = np.where(seen[inv], 1, 2)
        buf = collector.buf
        stats = collector.stats
        p = 0
        while p < n:
            c = int(cls[p])
            if c == 2:
                blk = arena.blocks[int(idx[p])]
                if blk.logical in visited:
                    # became visited through an earlier element's recursion
                    cls[p] = 1
                    continue
                # unvisited target: the reference traversal must emit the
                # BLOCK record and its contents (counts its own search)
                collector.save_pointer(int(vals[p]))
                p += 1
                continue
            brk = np.flatnonzero(cls[p:] != c)
            q = p + (int(brk[0]) if brk.size else n - p)
            if c == 0:
                buf.write(bytes(q - p))  # a NULL record is one zero byte
                stats.n_nulls += q - p
            else:
                self._emit_ref_run(collector, arena, vals, idx, offs, p, q)
            p = q
        stats.n_plan_blocks += 1
        return True

    def _emit_ref_run(self, collector, arena, vals, idx, offs, p, q) -> None:
        m = q - p
        run_idx = idx[p:q]
        run_off = offs[p:q]
        uniq, inv = _unique_inverse(run_idx)
        ords = np.empty(m, np.int64)
        for j, bi in enumerate(uniq):
            blk = arena.blocks[int(bi)]
            tinfo = collector.ti.info_for(blk.elem_type)
            sel = inv == j
            o = vec_byte_to_ordinal(tinfo, run_off[sel], blk.count)
            if o is None:
                # padding-offset pointer: replay the run through the
                # reference path so its ValueError fires at the exact
                # element (earlier elements emit identical REF bytes)
                for v in vals[p:q]:
                    collector.save_pointer(int(v))
                return
            ords[sel] = o
        rows = np.empty(m, REF_DTYPE)
        rows["tag"] = _TAG_REF
        rows["lk"] = arena.kinds[run_idx]
        rows["la"] = arena.la[run_idx]
        rows["lb"] = arena.lb[run_idx]
        rows["ord"] = ords
        collector.buf.write(rows.tobytes())
        collector.msrlt.n_searches += m  # one search per translated pointer
        collector.stats.n_refs += m

    # -- restore --------------------------------------------------------------

    def restore(self, restorer, block, info) -> bool:
        n = info.cells_in(block.count)
        if n < MIN_BULK_CELLS:
            return False
        buf = restorer.buf
        stats = restorer.stats
        out = np.zeros(n, np.uint64)
        p = 0
        while p < n:
            tag = buf.peek_u8()
            if tag == _TAG_NULL:
                window = buf.buffered()
                v = np.frombuffer(window, np.uint8,
                                  count=min(n - p, len(window)))
                nz = np.flatnonzero(v)
                run = int(nz[0]) if nz.size else len(v)
                buf.read(run)
                stats.n_nulls += run
                p += run
            elif tag == _TAG_REF:
                p = self._restore_ref_run(restorer, out, p, n)
            else:
                # BLOCK (recurse through the reference path) or a bad
                # tag (the reference path raises the canonical error)
                out[p] = restorer.restore_pointer()
                p += 1
        dst = restorer.memory.array_view("ptr", block.addr, n)
        dst[:] = out
        del dst
        return True

    def _restore_ref_run(self, restorer, out, p, n) -> int:
        buf = restorer.buf
        window = buf.buffered()
        k = min(n - p, len(window) // REF_DTYPE.itemsize)
        if k == 0:
            # record straddles a stream chunk boundary: scalar path pulls
            out[p] = restorer.restore_pointer()
            return p + 1
        rows = np.frombuffer(window, REF_DTYPE, count=k)
        m = _true_prefix(rows["tag"] == _TAG_REF)
        dests = np.zeros(m, np.uint64)
        trip = np.stack(
            [
                rows["lk"][:m].astype(np.int64),
                rows["la"][:m].astype(np.int64),
                rows["lb"][:m].astype(np.int64),
            ],
            axis=1,
        )
        for u in _unique_rows(trip):
            key = (int(u[0]), int(u[1]), int(u[2]))
            sel = np.all(trip == u, axis=1)
            tblock = restorer._mapping.get(key)
            if tblock is None:
                # REF to a block this payload never defined: stop the
                # batch before the first offender; the scalar path will
                # raise the canonical RestoreError on it
                m = min(m, int(np.flatnonzero(sel)[0]))
                continue
            tinfo = restorer.ti.info_for(tblock.elem_type)
            byte = vec_ordinal_to_byte(
                tinfo, rows["ord"][: len(sel)][sel].astype(np.int64), tblock.count
            )
            dests[sel] = tblock.addr + byte
        if m == 0:
            out[p] = restorer.restore_pointer()
            return p + 1
        out[p : p + m] = dests[:m]
        buf.read(m * REF_DTYPE.itemsize)
        restorer.stats.n_refs += m
        return p + m


# -- linked chains ------------------------------------------------------------


class ChainPlan:
    """Stride-speculative batching for linked-list-shaped structs.

    Compiled for per-cell unit types whose *last* cell is a pointer
    (``struct probe {cell *target; int strength; probe *next}``).  One
    wire row is the fixed-size image of one chain node's BLOCK record:
    header + flag byte + each non-tail cell (scalars in wire encoding,
    pointers as full REF records).  The tail pointer of node *k* IS the
    record of node *k+1*, so ``m`` nodes serialize as exactly ``m``
    consecutive rows followed by the last node's tail record.
    """

    KIND = "chain"
    EMITS_RECORDS = True
    __slots__ = (
        "info", "tail_off", "ptr_size", "row_dtype", "row_size",
        "cols", "n_ptr_cols", "host_dtype_cache", "host_fields", "size",
        "_hdr", "_ptr_tag_offs",
    )

    def __init__(self, info, layout) -> None:
        arch = layout.arch
        self.info = info
        self.size = info.size
        self.tail_off = info.cells[-1].offset
        self.ptr_size = arch.ptr_size
        fields = [
            ("tag", "u1"), ("lk", "u1"), ("la", ">u4"), ("lb", ">u4"),
            ("tid", ">u4"), ("cnt", ">u4"), ("ord", ">u4"), ("flag", "u1"),
        ]
        #: ("ptr"|"scalar", cell, wire field name(s) prefix)
        self.cols = []
        for j, c in enumerate(info.cells[:-1]):
            if c.kind == "ptr":
                fields += [
                    (f"p{j}t", "u1"), (f"p{j}k", "u1"),
                    (f"p{j}a", ">u4"), (f"p{j}b", ">u4"), (f"p{j}o", ">u4"),
                ]
                self.cols.append(("ptr", c, f"p{j}"))
            else:
                fields.append((f"c{j}", xdr.wire_dtype(c.kind)))
                self.cols.append(("scalar", c, f"c{j}"))
        self.row_dtype = np.dtype(fields)
        self.row_size = self.row_dtype.itemsize
        self.n_ptr_cols = sum(1 for k, _, _ in self.cols if k == "ptr")
        # scalar mirrors of the vectorized row validation, for the
        # cheap pre-check in try_restore: the fixed header prefix
        # (tag, logical kind/a/b, type id, count, ordinal, flag) plus
        # the byte offset of every REF column's tag
        self._hdr = struct.Struct(">BBIIIIIB")
        self._ptr_tag_offs = tuple(
            self.row_dtype.fields[f"{name}t"][1]
            for k, _, name in self.cols
            if k == "ptr"
        )
        #: host structured dtypes (all cells at their real offsets, one
        #: field per cell plus the tail) keyed by element stride
        self.host_dtype_cache: dict[int, np.dtype] = {}
        self.host_fields = tuple(
            (f"h{j}", xdr.host_np_dtype(c.kind, arch), c.offset)
            for j, c in enumerate(info.cells)
        )

    def _host_dtype(self, stride: int) -> np.dtype:
        dt = self.host_dtype_cache.get(stride)
        if dt is None:
            dt = np.dtype({
                "names": [f[0] for f in self.host_fields],
                "formats": [f[1] for f in self.host_fields],
                "offsets": [f[2] for f in self.host_fields],
                "itemsize": stride,
            })
            self.host_dtype_cache[stride] = dt
        return dt

    # -- collect --------------------------------------------------------------

    def save_tail(self, collector, value: int) -> None:
        """Handle the tail-pointer record of the current element —
        batched continuation when a stride chain is found, the reference
        path otherwise.  Always emits exactly what ``save_pointer``
        would."""
        if value == 0:
            collector.save_pointer(0)
            return
        if collector._chain_skip:
            collector._chain_skip -= 1
            collector.save_pointer(value)
            return
        if self._save_tail(collector, value):
            collector._chain_misses = 0
        else:
            misses = collector._chain_misses + 1
            if misses >= CHAIN_BACKOFF_MISSES:
                collector._chain_misses = 0
                collector._chain_skip = CHAIN_BACKOFF_SKIP
            else:
                collector._chain_misses = misses

    def _save_tail(self, collector, value: int) -> bool:
        """One chain attempt; emits the record either way and returns
        whether a batch engaged (feeds the backoff accounting)."""
        msrlt = collector.msrlt
        try:
            block, off = msrlt.lookup_addr(value)
        except MSRLTError:
            raise MSRLTError(_DANGLING.format(value=value)) from None
        info = self.info
        if (
            off != 0
            or block.count != 1
            or block.logical[0] != BlockKind.HEAP
            or block.logical in collector._visited
            or collector.ti.info_for(block.elem_type) is not info
        ):
            collector._save_target(block, off)
            return False
        memory = collector.memory
        a0 = block.addr
        t0 = memory.load("ptr", a0 + self.tail_off)
        stride = t0 - a0
        if t0 == 0 or stride == 0 or abs(stride) < self.size:
            collector._save_target(block, 0)
            return False
        arena = msrlt.heap_arena()
        tkey = id(block.elem_type)
        # cheap scalar pre-walk: vectorize only when at least MIN_CHAIN
        # equally-spaced eligible nodes actually link up.  Tree-shaped
        # data (where a "chain" is 2-3 coincidentally adjacent
        # allocations) fails here in a few list bisects instead of a
        # NumPy round-trip per node.  ``a0``'s own tail IS ``t0``, so
        # the link load is skipped for the first hop.
        starts_l = arena.starts_l
        kinds_l = arena.kinds_l
        tkeys_l = arena.tkeys_l
        counts_l = arena.counts_l
        heap_kind = int(BlockKind.HEAP)
        visited = collector._visited
        tail_off = self.tail_off
        addr = a0
        nxt = t0
        linked = 1
        while True:
            i = bisect_right(starts_l, nxt) - 1
            if (
                i < 0
                or starts_l[i] != nxt
                or kinds_l[i] != heap_kind
                or tkeys_l[i] != tkey
                or counts_l[i] != 1
                or arena.blocks[i].logical in visited
            ):
                break
            linked += 1
            if linked >= MIN_CHAIN:
                break
            addr = nxt
            nxt = addr + stride
            if memory.load("ptr", addr + tail_off) != nxt:
                break
        if linked < MIN_CHAIN:
            collector._save_target(block, 0)
            return False
        seg = memory.heap_seg
        lo = seg.window_start
        hi = lo + len(seg.buf)
        astride = abs(stride)
        # candidates a0 + stride·k must leave the strided gather fully
        # inside the materialized heap window (registered blocks always
        # are; the |stride|-sized element windows need checking)
        if stride > 0:
            kmax = (hi - a0) // stride
        else:
            kmax = (a0 - lo) // astride + 1
            if a0 + astride > hi:
                kmax = 0  # topmost element's stride window would overrun
        m, hostarr, serials = self._walk(
            arena, seg, a0, stride, kmax, tkey, collector._visited
        )
        if m < MIN_CHAIN:
            collector._save_target(block, 0)
            return False
        # row emission translates the non-tail pointer columns, whose
        # targets may be stack or global blocks — that needs the FULL
        # arena (built at most once per generation, and only on passes
        # where a chain actually engaged)
        rows, m = self._build_rows(collector, msrlt.arena(), hostarr, serials, m)
        if m < MIN_CHAIN:
            collector._save_target(block, 0)
            return False
        for s in serials[:m].tolist():
            collector._visited.add((BlockKind.HEAP, s, 0))
        collector.buf.write(rows[:m].tobytes())
        stats = collector.stats
        stats.n_blocks += m
        stats.data_bytes += m * self.size
        stats.n_refs += m * self.n_ptr_cols
        # discovery of elements 1..m-1 plus one translate per REF col
        msrlt.n_searches += (m - 1) + m * self.n_ptr_cols
        # the last node's tail is the next record — reference traversal
        # continues there (may well start another batch)
        tail_name = self.host_fields[-1][0]
        collector.save_pointer(int(hostarr[tail_name][m - 1]))
        return True

    def _walk(self, arena, seg, a0, stride, kmax, tkey, visited):
        """Speculative stride walk: the longest prefix of candidates
        ``a0 + stride·k`` that are eligible chain nodes linked by their
        tail pointers.  Geometric growth keeps failed speculation O(1).
        Returns ``(m, host record array for m elements, serial array)``."""
        cap = 32
        astride = abs(stride)
        host_dt = self._host_dtype(astride)
        tail_name = self.host_fields[-1][0]
        while True:
            k = min(cap, kmax)
            if k <= 0:
                return 0, None, None
            addrs = a0 + stride * np.arange(k, dtype=np.int64)
            idx, offs = arena.lookup(addrs)
            safe = np.maximum(idx, 0)
            ok = (
                (idx >= 0)
                & (offs == 0)
                & (arena.kinds[safe] == BlockKind.HEAP)
                & (arena.tkeys[safe] == tkey)
                & (arena.counts[safe] == 1)
            )
            p = _true_prefix(ok)
            if p == 0:
                return 0, None, None
            # already-visited nodes end the batch (they must arrive as REFs)
            for j in range(1, p):
                if (BlockKind.HEAP, int(arena.la[idx[j]]), 0) in visited:
                    p = j
                    break
            # gather host records for the prefix in one strided view
            base_min = int(addrs[0] if stride > 0 else addrs[p - 1])
            off0 = base_min - seg.window_start
            hostarr = np.frombuffer(seg.buf, host_dt, count=p, offset=off0)
            if stride < 0:
                hostarr = hostarr[::-1]
            tails = hostarr[tail_name].astype(np.int64)
            linked = tails[: p - 1] == addrs[1:p]
            mbrk = np.flatnonzero(~linked)
            m = (int(mbrk[0]) + 1) if mbrk.size else p
            if m == k == cap and cap < kmax:
                cap *= 4
                continue
            return m, hostarr[:m], arena.la[idx[:m]]

    def _build_rows(self, collector, arena, hostarr, serials, m):
        """Vectorized row emission for *m* walked nodes; may shrink *m*
        when a non-tail pointer cell disqualifies an element (NULL, a
        not-yet-visited target, a padding ordinal — all cases the
        reference path must handle itself)."""
        info = self.info
        rows = np.zeros(m, self.row_dtype)
        rows["tag"] = _TAG_BLOCK
        rows["lk"] = BlockKind.HEAP
        rows["la"] = serials
        rows["tid"] = info.type_id
        rows["cnt"] = 1
        # ord/flag/lb stay zero
        visited = collector._visited
        for j, (kind, cell, name) in enumerate(self.cols):
            hname = f"h{j}"
            if kind == "scalar":
                rows[name][:m] = hostarr[hname][:m]
                continue
            pvals = hostarr[hname][:m].astype(np.int64)
            nz = pvals != 0
            if not bool(nz.all()):
                m = min(m, _true_prefix(nz))
                if m < MIN_CHAIN:
                    return rows, m
                pvals = pvals[:m]
            idx, offs = arena.lookup(pvals)
            ok = idx >= 0
            if not bool(ok.all()):
                m = min(m, _true_prefix(ok))
                if m < MIN_CHAIN:
                    return rows, m
                idx, offs = idx[:m], offs[:m]
            # targets must already be visited (they arrive as REFs); an
            # unvisited or batch-internal-forward target needs the
            # reference recursion, so it ends the batch
            uniq, inv = _unique_inverse(idx)
            seen = np.fromiter(
                (arena.blocks[int(i)].logical in visited for i in uniq),
                np.bool_, count=len(uniq),
            )
            okv = seen[inv]
            if not bool(okv.all()):
                m = min(m, _true_prefix(okv))
                if m < MIN_CHAIN:
                    return rows, m
                idx, offs = idx[:m], offs[:m]
                uniq, inv = _unique_inverse(idx)
            ords = np.empty(m, np.int64)
            bad = None
            for u_j in range(len(uniq)):
                blk = arena.blocks[int(uniq[u_j])]
                tinfo = collector.ti.info_for(blk.elem_type)
                sel = inv == u_j
                o = vec_byte_to_ordinal(tinfo, offs[sel], blk.count)
                if o is None:
                    first = int(np.flatnonzero(sel)[0])
                    bad = first if bad is None else min(bad, first)
                    continue
                ords[sel] = o
            if bad is not None:
                m = min(m, bad)
                if m < MIN_CHAIN:
                    return rows, m
                idx, ords = idx[:m], ords[:m]
            rows[f"{name}t"][:m] = _TAG_REF
            rows[f"{name}k"][:m] = arena.kinds[idx]
            rows[f"{name}a"][:m] = arena.la[idx]
            rows[f"{name}b"][:m] = arena.lb[idx]
            rows[f"{name}o"][:m] = ords
        return rows, m

    # -- restore --------------------------------------------------------------

    def try_restore(self, restorer, info):
        """Attempt a batched chain restore at a tail-pointer cell.

        Returns the destination address for the tail (the first batched
        node) or ``None`` to let the reference path consume the record.
        Never consumes bytes unless it commits a batch."""
        if restorer._chain_skip:
            restorer._chain_skip -= 1
            return None
        addr = self._try_restore(restorer, info)
        if addr is None:
            misses = restorer._chain_misses + 1
            if misses >= CHAIN_BACKOFF_MISSES:
                restorer._chain_misses = 0
                restorer._chain_skip = CHAIN_BACKOFF_SKIP
            else:
                restorer._chain_misses = misses
        else:
            restorer._chain_misses = 0
        return addr

    def _try_restore(self, restorer, info):
        buf = restorer.buf
        try:
            tag = buf.peek_u8()
        except EOFError:
            return None
        if tag != _TAG_BLOCK:
            return None
        # scalar pre-check: the batch only engages when the first
        # RESTORE_MIN_CHAIN records already look like chain rows, so a
        # lone BLOCK record (tree-shaped data arrives as one per tail)
        # declines in two struct unpacks instead of a vectorized parse
        window = buf.buffered()
        row_size = self.row_size
        if len(window) < RESTORE_MIN_CHAIN * row_size:
            return None
        tid = info.type_id
        for off in range(0, RESTORE_MIN_CHAIN * row_size, row_size):
            rtag, lk, _la, lb, rtid, cnt, order, flag = self._hdr.unpack_from(
                window, off
            )
            if (
                rtag != _TAG_BLOCK
                or lk != BlockKind.HEAP
                or lb != 0
                or rtid != tid
                or cnt != 1
                or order != 0
                or flag != 0
            ):
                return None
            for po in self._ptr_tag_offs:
                if window[off + po] != _TAG_REF:
                    return None
        memory = restorer.memory
        cap = 64
        while True:
            window = buf.buffered()
            k = min(cap, len(window) // self.row_size)
            if k < RESTORE_MIN_CHAIN:
                return None
            rows = np.frombuffer(window, self.row_dtype, count=k)
            valid = (
                (rows["tag"] == _TAG_BLOCK)
                & (rows["lk"] == BlockKind.HEAP)
                & (rows["lb"] == 0)
                & (rows["tid"] == info.type_id)
                & (rows["cnt"] == 1)
                & (rows["ord"] == 0)
                & (rows["flag"] == 0)
            )
            for kind, _cell, name in self.cols:
                if kind == "ptr":
                    valid &= rows[f"{name}t"] == _TAG_REF
            m = _true_prefix(valid)
            if m == k == cap and len(window) // self.row_size > k:
                cap *= 4
                continue
            break
        if m < RESTORE_MIN_CHAIN:
            return None
        # serials must be new to this payload (a duplicate BLOCK record
        # is corrupt; the reference path raises on it)
        serials = rows["la"][:m].astype(np.int64)
        mapping = restorer._mapping
        seen_local = set()
        for j, s in enumerate(serials.tolist()):
            if (BlockKind.HEAP, s, 0) in mapping or s in seen_local:
                m = j
                break
            seen_local.add(s)
        if m < RESTORE_MIN_CHAIN:
            return None
        # resolve every REF column target against already-restored blocks
        dest_cols = {}
        for kind, _cell, name in self.cols:
            if kind != "ptr":
                continue
            trip = np.stack(
                [
                    rows[f"{name}k"][:m].astype(np.int64),
                    rows[f"{name}a"][:m].astype(np.int64),
                    rows[f"{name}b"][:m].astype(np.int64),
                ],
                axis=1,
            )
            dests = np.zeros(len(trip), np.uint64)
            for u in _unique_rows(trip):
                key = (int(u[0]), int(u[1]), int(u[2]))
                sel = np.all(trip == u, axis=1)
                tblock = mapping.get(key)
                if tblock is None:
                    m = min(m, int(np.flatnonzero(sel)[0]))
                    continue
                tinfo = restorer.ti.info_for(tblock.elem_type)
                byte = vec_ordinal_to_byte(
                    tinfo, rows[f"{name}o"][: len(sel)][sel].astype(np.int64),
                    tblock.count,
                )
                dests[sel] = tblock.addr + byte
            if m < RESTORE_MIN_CHAIN:
                return None
            dest_cols[name] = dests
        serials = serials[:m]
        # one bulk carve + one bulk register — declined when the free
        # list would change which addresses the reference path assigns
        alloc = memory.heap_alloc_bulk(self.size, m)
        if alloc is None:
            return None
        base, stride = alloc
        blocks = restorer.msrlt.register_heap_bulk(
            base, stride, info.ctype, 1, serials.tolist()
        )
        for b in blocks:
            mapping[b.logical] = b
        addrs = base + stride * np.arange(m, dtype=np.int64)
        host_dt = self._host_dtype(stride)
        out = np.zeros(m, host_dt)
        for j, (kind, _cell, name) in enumerate(self.cols):
            hname = f"h{j}"
            if kind == "scalar":
                out[hname] = rows[name][:m]
            else:
                out[hname] = dest_cols[name][:m]
        tail_h = self.host_fields[-1][0]
        out[tail_h][: m - 1] = addrs[1:]
        memory.write_bytes(base, out.tobytes())
        buf.read(m * self.row_size)
        stats = restorer.stats
        stats.n_blocks += m
        stats.n_heap_allocs += m
        stats.n_refs += m * self.n_ptr_cols
        stats.data_bytes += m * self.size
        # the record after the batch is the last node's tail (may chain
        # into another batch, a REF, a NULL — the reference path decides)
        tail_val = restorer.restore_pointer()
        memory.store("ptr", int(addrs[-1]) + self.tail_off, tail_val)
        return int(base)


# -- compilation --------------------------------------------------------------


def compile_plan(info, layout):
    """The saving/restoring plan of one (TypeInfo, architecture): the
    pointer-free plan, a pointer-array plan, a chain plan, or ``None``
    when the per-cell loop is the right tool."""
    cells = info.cells
    if not cells:
        return None
    if not info.has_pointers:
        return PointerFreePlan(info, layout)
    if (
        info.cell_count == 1
        and cells[0].offset == 0
        and info.unit_size == layout.arch.ptr_size
    ):
        return PtrArrayPlan(info, layout)
    if info.repeat == 1 and info.cell_count >= 2 and cells[-1].kind == "ptr":
        return ChainPlan(info, layout)
    return None
