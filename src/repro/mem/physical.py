"""Byte-addressable physical memory for one memory node."""

from __future__ import annotations

import mmap


class MemoryFault(Exception):
    """Out-of-bounds or malformed physical memory access."""


class PhysicalMemory:
    """A flat, bounds-checked DRAM array.

    Addresses here are *physical* (node-local, starting at zero); virtual
    addresses are resolved through :class:`~repro.mem.translation.
    RangeTranslationTable` before reaching this layer.  It counts no
    traffic: the bytes a node serves in a measured window are the
    registry counter ``<node>.<served_bytes>`` its server publishes
    (``Rack.served_bytes``), since functional reads and writes -- a
    structure being built, a test peeking -- are not modeled traffic.

    The backing is a private, anonymous, demand-zero mapping: ``size``
    reserves address space, not pages.  A range nothing has written reads
    as zeros and costs no resident memory; the host pays one page the
    first time a byte in it is written, so a node's RSS and construction
    time follow what structures stored there, not its capacity.

    The mapping is ``MAP_PRIVATE`` because sharded execution forks the
    built rack: each worker must see the pre-fork bytes and keep its own
    STOREs to itself (copy-on-write), exactly as a forked ``bytearray``
    did.  Python's default for ``mmap.mmap(-1, n)`` is ``MAP_SHARED``,
    under which a worker's writes would land in the coordinator's copy.

    There is no ``close``: the mapping is released when the last
    reference to this object goes, so memory stays readable after
    ``PulseCluster.shutdown()`` for as long as the caller holds the rack.

    ``mapping`` is the node's bytes; the accelerator's lane-step slices
    it directly once it has checked the range against ``size``.
    """

    def __init__(self, size: int):
        if size <= 0:
            raise MemoryFault(f"invalid memory size: {size}")
        self.size = size
        self.mapping = mmap.mmap(
            -1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)

    def _check(self, addr: int, length: int) -> None:
        if length < 0:
            raise MemoryFault(f"negative access length: {length}")
        if addr < 0 or addr + length > self.size:
            raise MemoryFault(
                f"access [{addr:#x}, {addr + length:#x}) outside "
                f"[0, {self.size:#x})"
            )

    def read(self, addr: int, length: int) -> bytes:
        """Read ``length`` bytes at physical ``addr``.

        The result is an immutable snapshot (the mapping's slice is
        already ``bytes``), never a view a later write shows through.
        """
        self._check(addr, length)
        return self.mapping[addr:addr + length]

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` at physical ``addr``."""
        self._check(addr, len(data))
        self.mapping[addr:addr + len(data)] = data

    def read_u64(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 8), "little")

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, (value & (2**64 - 1)).to_bytes(8, "little"))
