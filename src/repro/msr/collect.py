"""Data collection: ``Save_pointer`` and ``Save_variable``.

Paper §3.1: "Save_pointer initiates a depth-first traversal through
connected components of the MSR graph.  It examines memory blocks that
are referred to by pointers and then invokes type-specific saving
functions to save their contents.  During the traversal, visited memory
blocks are marked so that they are not saved again."

The collector walks live pointers depth-first; the first visit of a
block emits a ``BLOCK`` record (header, machine-independent id, type,
then contents converted by the type's compiled plan or cell by cell),
every later reference emits only a ``REF``.  Pointers inside block contents
recurse, which reproduces exactly the traversal order the paper's §3.2
example walks through (v11 → e8 → v6 → e6 → v10, backtrack …).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.arch import xdr
from repro.arch.buffers import WriteBuffer
from repro.msr.msrlt import MemoryBlock, MSRLTError
from repro.msr.ti import TypeInfo
from repro.msr.wire import FLAG_FLAT, TAG_BLOCK, TAG_NULL, TAG_REF, write_logical
from repro.obs.attribution import block_class_of

__all__ = ["CollectStats", "Collector", "Save_pointer", "Save_variable"]


@dataclass(slots=True)
class CollectStats:
    """Accounting for one collection run (feeds Table 1 / Figure 2)."""

    n_blocks: int = 0
    n_refs: int = 0
    n_nulls: int = 0
    #: blocks saved through the pointer-free plan: flat types here,
    #: every other pointer-free type in n_codec_blocks
    n_flat_blocks: int = 0
    n_codec_blocks: int = 0
    #: blocks saved through the pointer-array plan (chain batches count
    #: into n_blocks directly, not here)
    n_plan_blocks: int = 0
    #: blocks elided as pre-copy cached stubs (TAG_CACHED records)
    n_cached_blocks: int = 0
    data_bytes: int = 0  # Σ Dᵢ over saved blocks (source-arch bytes)
    wire_bytes: int = 0


class Collector:
    """One data-collection pass over a process's live state."""

    #: whether the ptr_array/chain plans may emit records in bulk.  The
    #: pre-copy delta/final collectors override per-record tag decisions
    #: (REF-only, cached stubs), which the bulk emitters would bypass —
    #: they subclass with this set to False.  The pointer-free plan
    #: stays enabled: it carries no pointers at all.
    pointer_plans = True

    def __init__(self, process, buf: WriteBuffer) -> None:
        self.process = process
        self.memory = process.memory
        self.msrlt = process.msrlt
        self.ti = process.ti
        self.buf = buf
        self._visited: set[tuple] = set()
        self.stats = CollectStats()
        # attribution is resolved ONCE per pass; when off (None) every
        # per-block hook below is a single `is not None` test
        self._prof = obs.current_attribution()
        if self._prof is not None:
            self.msrlt.profiler = self._prof
        self._plans = process.ti.plans_enabled
        # the pointer plans emit records past the per-block attribution
        # hooks, so they are bypassed under attribution (DESIGN §12)
        self._pointer_plans = self.pointer_plans and self._prof is None
        # chain-plan engagement backoff state (graphplan.ChainPlan)
        self._chain_misses = 0
        self._chain_skip = 0

    # -- public entry points (paper interface names) --------------------------------

    def save_variable(self, block: MemoryBlock) -> None:
        """``Save_variable(&var)`` — collect the variable's own block."""
        self._save_target(block, byte_off=0)

    def save_pointer(self, value: int) -> None:
        """``Save_pointer(p)`` — collect the target of pointer value *p*."""
        if value == 0:
            self.buf.write_u8(TAG_NULL)
            self.buf.count_tag("NULL")
            self.stats.n_nulls += 1
            return
        try:
            block, off = self.msrlt.lookup_addr(value)
        except MSRLTError:
            raise MSRLTError(
                f"pointer {value:#x} does not refer to any live memory block; "
                "the program stored a dangling or fabricated address, which is "
                "migration-unsafe"
            ) from None
        self._save_target(block, off)

    # -- traversal ---------------------------------------------------------------------

    def _save_target(self, block: MemoryBlock, byte_off: int) -> None:
        info = self.ti.info_for(block.elem_type)
        ordinal = info.byte_to_ordinal(byte_off, block.count)
        if block.logical in self._visited:
            self.buf.write_u8(TAG_REF)
            self.buf.count_tag("REF")
            write_logical(self.buf, block.logical)
            self.buf.write_u32(ordinal)
            self.stats.n_refs += 1
            return

        # mark BEFORE saving contents: cycles degrade to REFs
        self._visited.add(block.logical)
        prof = self._prof
        if prof is not None:
            prof.enter_block(
                "collect", info.label, block_class_of(block.logical),
                self.buf.nbytes,
            )
        self.buf.write_u8(TAG_BLOCK)
        self.buf.count_tag("BLOCK")
        write_logical(self.buf, block.logical)
        self.buf.write_u32(info.type_id)
        self.buf.write_u32(block.count)
        self.buf.write_u32(ordinal)
        self.stats.n_blocks += 1
        self.stats.data_bytes += block.size
        if prof is None:
            self._save_contents(block, info)
        else:
            engagement = "percell"
            try:
                engagement = self._save_contents(block, info)
            finally:
                prof.exit_block(
                    self.buf.nbytes, engagement,
                    cells=info.cells_in(block.count),
                )

    def _save_contents(self, block: MemoryBlock, info: TypeInfo) -> str:
        """Serialize one block's contents: the type's plan when it has
        one, else the per-cell loop — the reference every plan is
        byte-identical to.  Returns which path engaged (``"flat"`` /
        ``"codec"`` / ``"percell"``, for attribution)."""
        self.buf.write_u8(FLAG_FLAT if info.flat_kind is not None else 0)
        plan = info.plan
        chain = None
        if (
            plan is not None
            and self._plans
            and (self._pointer_plans or not plan.EMITS_RECORDS)
        ):
            if plan.KIND == "chain":
                # no block-level batch: the chain plan hooks each unit's
                # tail pointer in the loop below (emitting exactly what
                # save_pointer would).  The loop stays inline so a linked
                # block costs no extra frame against the recursion limit
                chain = plan
            elif plan.save(self, block, info):
                return plan.KIND
        memory = self.memory
        buf = self.buf
        addr = block.addr
        stride = info.unit_size
        cells = info.cells
        tail = cells[-1] if chain is not None else None
        for unit in range(info.units_in(block.count)):
            base = addr + unit * stride
            for cell in cells:
                if cell.kind == "ptr":
                    value = memory.load("ptr", base + cell.offset)
                    if cell is tail:
                        # the backoff skip branch is inlined so declined
                        # tails cost one int test over the reference path
                        if self._chain_skip and value != 0:
                            self._chain_skip -= 1
                            self.save_pointer(value)
                        else:
                            chain.save_tail(self, value)
                    else:
                        self.save_pointer(value)
                else:
                    buf.write(xdr.encode(cell.kind, memory.load(cell.kind, base + cell.offset)))
        return "percell"

    # -- bookkeeping --------------------------------------------------------------------

    def finish(self) -> CollectStats:
        """Finalize statistics (call once after all saves)."""
        self.stats.wire_bytes = self.buf.nbytes
        if self._prof is not None:
            self._prof.note_payload(self.buf.nbytes)
            # the pass is over; stop feeding lookup costs to the profiler
            self.msrlt.profiler = None
        return self.stats


# -- paper-style free-function interface --------------------------------------------


def Save_variable(collector: Collector, block: MemoryBlock) -> None:
    """Paper-style alias for :meth:`Collector.save_variable`."""
    collector.save_variable(block)


def Save_pointer(collector: Collector, value: int) -> None:
    """Paper-style alias for :meth:`Collector.save_pointer`."""
    collector.save_pointer(value)
