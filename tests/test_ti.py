"""Tests for the Type Information table."""

from types import SimpleNamespace

import pytest

from repro.arch import ALPHA, DEC5000, SPARC20, X86
from repro.arch.buffers import ReadBuffer, WriteBuffer
from repro.clang.ctypes import (
    ArrayType,
    CHAR,
    DOUBLE,
    INT,
    PointerType,
    StructType,
    TypeLayout,
)
from repro.msr.collect import CollectStats
from repro.msr.ti import TITable, flat_prim_kind
from repro.vm.program import compile_program


class FakeProgram:
    """Minimal program stub exposing the type registry interface."""

    def __init__(self, types):
        from repro.clang.ctypes import type_key

        self.types = list(types)
        self._index = {type_key(t): i for i, t in enumerate(self.types)}

    def type_by_id(self, i):
        return self.types[i]

    def type_id(self, t):
        from repro.clang.ctypes import type_key

        return self._index[type_key(t)]


class TestFlatKind:
    @pytest.fixture
    def layout(self):
        return TypeLayout(SPARC20)

    def test_scalar_is_flat(self, layout):
        assert flat_prim_kind(DOUBLE, layout) == "double"
        assert flat_prim_kind(INT, layout) == "int"

    def test_prim_array_is_flat(self, layout):
        assert flat_prim_kind(ArrayType(DOUBLE, 1000), layout) == "double"

    def test_homogeneous_struct_is_flat(self, layout):
        s = StructType("two_ints", [("a", INT), ("b", INT)])
        assert flat_prim_kind(s, layout) == "int"

    def test_pointer_is_not_flat(self, layout):
        assert flat_prim_kind(PointerType(INT), layout) is None

    def test_mixed_struct_is_not_flat(self, layout):
        s = StructType("mix", [("a", INT), ("b", DOUBLE)])
        assert flat_prim_kind(s, layout) is None

    def test_padded_struct_is_not_flat(self, layout):
        s = StructType("padded", [("c", CHAR), ("i", INT)])
        assert flat_prim_kind(s, layout) is None

    def test_struct_with_pointer_not_flat(self, layout):
        s = StructType("withptr")
        s.define([("v", INT), ("p", PointerType(s))])
        assert flat_prim_kind(s, layout) is None

    def test_flatness_agrees_across_archs(self):
        """The wire writes a flat flag; every arch must agree on it."""
        types = [
            DOUBLE,
            ArrayType(DOUBLE, 10),
            ArrayType(INT, 3),
            StructType("ff", [("a", INT), ("b", INT)]),
            StructType("fm", [("a", CHAR), ("b", DOUBLE)]),
            ArrayType(CHAR, 7),
        ]
        node = StructType("fnode")
        node.define([("v", INT), ("n", PointerType(node))])
        types.append(node)
        for t in types:
            flags = {
                arch.name: flat_prim_kind(t, TypeLayout(arch)) is not None
                for arch in (DEC5000, SPARC20, ALPHA, X86)
            }
            assert len(set(flags.values())) == 1, (t, flags)


class TestTypeInfo:
    def test_ordinal_byte_roundtrip(self):
        node = StructType("tnode")
        node.define([("v", INT), ("l", PointerType(node)), ("r", PointerType(node))])
        prog = FakeProgram([node])
        ti = TITable(prog, TypeLayout(SPARC20))
        info = ti.info(0)
        assert info.cell_count == 3
        for count in (1, 4):
            for ordinal in range(count * info.cell_count + 1):
                byte = info.ordinal_to_byte(ordinal, count)
                assert info.byte_to_ordinal(byte, count) == ordinal

    def test_ordinal_invariant_across_archs(self):
        """Same ordinal, different byte offsets — the portable encoding."""
        node = StructType("onode")
        node.define([("v", INT), ("n", PointerType(node))])
        prog = FakeProgram([node])
        ti32 = TITable(prog, TypeLayout(SPARC20)).info(0)
        ti64 = TITable(prog, TypeLayout(ALPHA)).info(0)
        assert ti32.cell_count == ti64.cell_count == 2
        assert ti32.ordinal_to_byte(1, 1) == 4
        assert ti64.ordinal_to_byte(1, 1) == 8

    def test_padding_offset_rejected(self):
        s = StructType("pnode", [("c", CHAR), ("d", DOUBLE)])
        prog = FakeProgram([s])
        info = TITable(prog, TypeLayout(SPARC20)).info(0)
        with pytest.raises(ValueError, match="padding"):
            info.byte_to_ordinal(3, 1)

    def test_has_pointers_flag(self):
        node = StructType("hnode")
        node.define([("v", INT), ("n", PointerType(node))])
        prog = FakeProgram([node, ArrayType(DOUBLE, 4)])
        ti = TITable(prog, TypeLayout(SPARC20))
        assert ti.info(0).has_pointers is True
        assert ti.info(1).has_pointers is False

    def test_info_cached(self):
        prog = FakeProgram([INT])
        ti = TITable(prog, TypeLayout(SPARC20))
        assert ti.info(0) is ti.info(0)


class TestBulkPath:
    def test_save_restore_flat_cross_endian(self):
        """The flat block's plan: bulk encode on little-endian, bulk
        decode on big-endian."""
        import numpy as np

        from repro.vm.memory import Memory

        prog = FakeProgram([ArrayType(DOUBLE, 64)])
        src_mem = Memory(DEC5000)
        dst_mem = Memory(SPARC20)
        ti_src = TITable(prog, TypeLayout(DEC5000))
        ti_dst = TITable(prog, TypeLayout(SPARC20))

        a = src_mem.heap_alloc(512)
        values = np.linspace(-1.0, 1.0, 64)
        src_mem.write_array("double", a, values)

        collector = SimpleNamespace(
            memory=src_mem, buf=WriteBuffer(), stats=CollectStats()
        )
        info = ti_src.info(0)
        assert info.plan.save(collector, SimpleNamespace(addr=a, count=1), info)
        assert collector.stats.n_flat_blocks == 1
        wire = collector.buf.getvalue()
        assert wire == values.astype(">f8").tobytes()

        b = dst_mem.heap_alloc(512)
        restorer = SimpleNamespace(memory=dst_mem, buf=ReadBuffer(wire))
        info = ti_dst.info(0)
        assert info.plan.restore(restorer, SimpleNamespace(addr=b, count=1), info)
        assert restorer.buf.at_end()

        back = dst_mem.read_array("double", b, 64)
        np.testing.assert_array_equal(back.astype("<f8"), values)
