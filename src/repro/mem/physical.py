"""Byte-addressable physical memory for one memory node."""

from __future__ import annotations


class MemoryFault(Exception):
    """Out-of-bounds or malformed physical memory access."""


class PhysicalMemory:
    """A flat, bounds-checked DRAM array.

    Addresses here are *physical* (node-local, starting at zero); virtual
    addresses are resolved through :class:`~repro.mem.translation.
    RangeTranslationTable` before reaching this layer.  Byte counters feed
    the memory-bandwidth utilization numbers in Fig 6.
    """

    def __init__(self, size: int):
        if size <= 0:
            raise MemoryFault(f"invalid memory size: {size}")
        self.size = size
        self._data = bytearray(size)
        self.bytes_read = 0
        self.bytes_written = 0

    def _check(self, addr: int, length: int) -> None:
        if length < 0:
            raise MemoryFault(f"negative access length: {length}")
        if addr < 0 or addr + length > self.size:
            raise MemoryFault(
                f"access [{addr:#x}, {addr + length:#x}) outside "
                f"[0, {self.size:#x})"
            )

    def read(self, addr: int, length: int) -> bytes:
        """Read ``length`` bytes at physical ``addr``."""
        self._check(addr, length)
        self.bytes_read += length
        return bytes(self._data[addr:addr + length])

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` at physical ``addr``."""
        self._check(addr, len(data))
        self.bytes_written += len(data)
        self._data[addr:addr + len(data)] = data

    def read_u64(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 8), "little")

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, (value & (2**64 - 1)).to_bytes(8, "little"))

    def reset_counters(self) -> None:
        self.bytes_read = 0
        self.bytes_written = 0
