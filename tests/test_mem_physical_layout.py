"""Tests for physical memory and struct layouts."""

import os

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.mem import Field, MemoryFault, PhysicalMemory, StructLayout
from repro.mem.layout import LayoutError


class TestPhysicalMemory:
    def test_read_back_what_was_written(self):
        mem = PhysicalMemory(1024)
        mem.write(100, b"hello")
        assert mem.read(100, 5) == b"hello"

    def test_zero_initialized(self):
        mem = PhysicalMemory(64)
        assert mem.read(0, 64) == bytes(64)

    def test_out_of_bounds_read_rejected(self):
        mem = PhysicalMemory(64)
        with pytest.raises(MemoryFault):
            mem.read(60, 8)

    def test_out_of_bounds_write_rejected(self):
        mem = PhysicalMemory(64)
        with pytest.raises(MemoryFault):
            mem.write(62, b"abcdef")

    def test_negative_address_rejected(self):
        mem = PhysicalMemory(64)
        with pytest.raises(MemoryFault):
            mem.read(-1, 4)

    def test_negative_length_rejected(self):
        mem = PhysicalMemory(64)
        with pytest.raises(MemoryFault):
            mem.read(0, -4)

    def test_u64_round_trip(self):
        mem = PhysicalMemory(64)
        mem.write_u64(8, 0xDEADBEEF_CAFEBABE)
        assert mem.read_u64(8) == 0xDEADBEEF_CAFEBABE

    def test_invalid_size_rejected(self):
        with pytest.raises(MemoryFault):
            PhysicalMemory(0)


class _BytearrayMemory:
    """The eagerly zero-filled backing ``PhysicalMemory`` replaced, kept
    here as the reference the model-based test compares against."""

    def __init__(self, size: int):
        if size <= 0:
            raise MemoryFault(f"invalid memory size: {size}")
        self.size = size
        self._data = bytearray(size)

    def _check(self, addr: int, length: int) -> None:
        if length < 0:
            raise MemoryFault(f"negative access length: {length}")
        if addr < 0 or addr + length > self.size:
            raise MemoryFault(
                f"access [{addr:#x}, {addr + length:#x}) outside "
                f"[0, {self.size:#x})"
            )

    def read(self, addr: int, length: int) -> bytes:
        self._check(addr, length)
        return bytes(self._data[addr:addr + length])

    def write(self, addr: int, data: bytes) -> None:
        self._check(addr, len(data))
        self._data[addr:addr + len(data)] = data

    def read_u64(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 8), "little")

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, (value & (2**64 - 1)).to_bytes(8, "little"))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except MemoryFault as fault:
        return "fault", str(fault)


PAGE = 4096
#: three pages and a ragged tail, so the last byte is not page-aligned
MODEL_SIZE = 3 * PAGE + 17

#: anywhere (a little outside on both ends), or within 9 bytes of a
#: page boundary so 8-byte accesses straddle it
_addrs = st.one_of(
    st.integers(-16, MODEL_SIZE + 16),
    st.builds(lambda page, off: page * PAGE + off,
              st.integers(0, 4), st.integers(-9, 9)),
    st.integers(MODEL_SIZE - 9, MODEL_SIZE + 1),
)
_lengths = st.one_of(st.integers(-2, 64), st.integers(0, 2 * PAGE + 32))
#: short arbitrary bytes, or a one-byte fill long enough to cross pages
_payloads = st.one_of(
    st.binary(max_size=48),
    st.builds(lambda fill, length: bytes([fill]) * length,
              st.integers(0, 255), st.integers(0, 2 * PAGE + 32)),
)


@settings(max_examples=60, stateful_step_count=30, deadline=None)
class PhysicalMemoryMatchesBytearray(RuleBasedStateMachine):
    """Random accessor sequences against the old backing: results and
    every fault message must agree, including zero-length
    accesses, the last byte, page-straddling ranges and ranges nothing
    has written."""

    def __init__(self):
        super().__init__()
        self.mem = PhysicalMemory(MODEL_SIZE)
        self.model = _BytearrayMemory(MODEL_SIZE)

    @rule(addr=_addrs, length=_lengths)
    def read(self, addr, length):
        got = _outcome(self.mem.read, addr, length)
        assert got == _outcome(self.model.read, addr, length)
        if got[0] == "ok":
            assert type(got[1]) is bytes

    @rule(addr=_addrs, data=_payloads)
    def write(self, addr, data):
        assert (_outcome(self.mem.write, addr, data)
                == _outcome(self.model.write, addr, data))

    @rule(addr=_addrs)
    def read_u64(self, addr):
        assert (_outcome(self.mem.read_u64, addr)
                == _outcome(self.model.read_u64, addr))

    @rule(addr=_addrs, value=st.integers(-2**64, 2**65))
    def write_u64(self, addr, value):
        assert (_outcome(self.mem.write_u64, addr, value)
                == _outcome(self.model.write_u64, addr, value))

    def teardown(self):
        assert (self.mem.read(0, MODEL_SIZE)
                == self.model.read(0, MODEL_SIZE))


TestPhysicalMemoryMatchesBytearray = PhysicalMemoryMatchesBytearray.TestCase


@pytest.mark.parametrize("size", [0, -1, -PAGE])
def test_invalid_size_message_matches_bytearray_backing(size):
    assert (_outcome(PhysicalMemory, size)
            == _outcome(_BytearrayMemory, size)
            == ("fault", f"invalid memory size: {size}"))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_fork_gives_the_child_a_private_copy():
    """Sharded workers are forks of the built rack: a worker sees the
    pre-fork bytes, and STOREs on either side of the fork stay there.
    A ``MAP_SHARED`` mapping (Python's default) fails the middle two."""
    mem = PhysicalMemory(4 * PAGE)
    mem.write(100, b"before")
    child_wrote_r, child_wrote_w = os.pipe()
    parent_wrote_r, parent_wrote_w = os.pipe()
    report_r, report_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            inherited = mem.read(100, 6)
            mem.write(100, b"child!")
            mem.write_u64(PAGE, 0xC0FFEE)
            os.write(child_wrote_w, b"c")
            os.read(parent_wrote_r, 1)
            os.write(report_w, inherited + mem.read(100, 6)
                     + mem.read(2 * PAGE, 8))
        finally:
            os._exit(0)
    try:
        assert os.read(child_wrote_r, 1) == b"c"
        assert mem.read(100, 6) == b"before"
        assert mem.read_u64(PAGE) == 0
        mem.write_u64(2 * PAGE, 0xDAD)
        mem.write(100, b"parent")
    finally:
        # here, not after the asserts: the child is released and reaped
        # even when one of them fired
        os.write(parent_wrote_w, b"p")
        os.waitpid(pid, 0)
        os.close(report_w)
        report = os.read(report_r, 64)
        for fd in (child_wrote_r, child_wrote_w, parent_wrote_r,
                   parent_wrote_w, report_r):
            os.close(fd)
    assert report[:6] == b"before"
    assert report[6:12] == b"child!"
    assert report[12:] == bytes(8)


class TestStructLayout:
    def _node_layout(self):
        return StructLayout("node", [
            Field("key", "u64"),
            Field("value", "bytes", size=16),
            Field("next", "ptr"),
        ])

    def test_offsets_are_packed(self):
        layout = self._node_layout()
        assert layout.offset("key") == 0
        assert layout.offset("value") == 8
        assert layout.offset("next") == 24
        assert layout.size == 32

    def test_pack_unpack_round_trip(self):
        layout = self._node_layout()
        raw = layout.pack(key=42, value=b"hi", next=0xABC)
        out = layout.unpack(raw)
        assert out["key"] == 42
        assert out["value"][:2] == b"hi"
        assert out["next"] == 0xABC

    def test_missing_fields_default_to_zero(self):
        layout = self._node_layout()
        out = layout.unpack(layout.pack(key=7))
        assert out["next"] == 0
        assert out["value"] == bytes(16)

    def test_array_field(self):
        layout = StructLayout("btree", [
            Field("num_keys", "u32"),
            Field("keys", "u64", count=4),
        ])
        assert layout.offset("keys", 2) == 4 + 16
        raw = layout.pack(num_keys=3, keys=[10, 20, 30])
        assert layout.unpack_field(raw, "keys") == [10, 20, 30, 0]

    def test_signed_and_float_codecs(self):
        layout = StructLayout("rec", [
            Field("delta", "i64"),
            Field("ratio", "f64"),
        ])
        raw = layout.pack(delta=-5, ratio=2.5)
        assert layout.unpack_field(raw, "delta") == -5
        assert layout.unpack_field(raw, "ratio") == 2.5

    def test_duplicate_field_rejected(self):
        with pytest.raises(LayoutError):
            StructLayout("bad", [Field("x", "u64"), Field("x", "u32")])

    def test_empty_layout_rejected(self):
        with pytest.raises(LayoutError):
            StructLayout("empty", [])

    def test_unknown_kind_rejected(self):
        with pytest.raises(LayoutError):
            StructLayout("bad", [Field("x", "u128")]).size

    def test_unknown_field_access_rejected(self):
        layout = self._node_layout()
        with pytest.raises(LayoutError):
            layout.offset("nope")

    def test_value_too_large_for_bytes_field(self):
        layout = self._node_layout()
        with pytest.raises(LayoutError):
            layout.pack(value=b"x" * 17)

    def test_array_index_out_of_range(self):
        layout = StructLayout("a", [Field("keys", "u64", count=2)])
        with pytest.raises(LayoutError):
            layout.offset("keys", 2)

    def test_field_size(self):
        layout = self._node_layout()
        assert layout.field_size("key") == 8
        assert layout.field_size("value") == 16
