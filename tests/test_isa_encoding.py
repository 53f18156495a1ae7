"""Tests for the binary wire encoding of pulse programs."""

import pytest

from repro.isa import IteratorMachine, assemble
from repro.isa.encoding import (
    EncodingError,
    MAX_DIRECT_OFFSET,
    encode,
)
from repro.mem import GlobalMemory
from repro.structures import HashTable, BPlusTree

from tests.helpers import decode


def roundtrip(program):
    again = decode(encode(program))
    assert again.name == program.name
    assert again.scratch_bytes == program.scratch_bytes
    assert len(again) == len(program)
    assert again.instructions == program.instructions
    return again


class TestRoundTrip:
    def test_simple_program(self):
        program = assemble("""
            .scratch 16
            .name tiny
            .scratch 24
            LOAD 0 24
            COMPARE sp[0] data[0]
            JUMP_EQ done
            MOVE cur_ptr data[16]
            NEXT_ITER
        done:
            MOVE sp[8] #404
            RETURN
        """)
        roundtrip(program)

    def test_every_shipped_kernel_round_trips(self):
        gm = GlobalMemory(1, 1 << 20)
        table = HashTable(gm, buckets=2)
        tree = BPlusTree(gm, fanout=12)
        programs = [
            table.find_iterator().program,
            table.update_iterator().program,
            tree.lookup_iterator().program,
            tree.scan_count_iterator(limit=8).program,
            tree.scan_collect_iterator(limit=8).program,
        ]
        for program in programs:
            roundtrip(program)

    def test_decoded_program_executes_identically(self):
        gm = GlobalMemory(1, 1 << 20)
        table = HashTable(gm, buckets=2, value_bytes=8)
        for key in range(30):
            table.insert(key, (key * 5).to_bytes(8, "little"))
        finder = table.find_iterator()
        decoded = decode(encode(finder.program))
        for key in (0, 13, 29, 99):
            original = IteratorMachine(finder.program)
            cur, scratch = finder.init(key)
            original.reset(cur, scratch)
            out_a = original.run(gm.read)
            clone = IteratorMachine(decoded)
            clone.reset(cur, scratch)
            out_b = clone.run(gm.read)
            assert out_a == out_b

    def test_immediates_use_constant_pool(self):
        program = assemble("""
            LOAD 0 8
            MOVE sp[0] #-123456789012345
            MOVE sp[8] #9007199254740993
            RETURN
        """)
        again = roundtrip(program)
        assert again.instructions[1].a.value == -123456789012345
        assert again.instructions[2].a.value == 9007199254740993

    def test_operand_widths_and_signs_preserved(self):
        program = assemble(
            "LOAD 0 16\nMOVE sp[0]:4u data[4]:2\nRETURN")
        again = roundtrip(program)
        move = again.instructions[1]
        assert move.dst.width == 4 and not move.dst.signed
        assert move.a.width == 2 and move.a.signed


class TestEncodingLimits:
    def test_far_direct_offset_rejected(self):
        program = assemble(
            f".scratch 4096\nLOAD 0 8\nMOVE sp[{MAX_DIRECT_OFFSET + 1}] #1\nRETURN")
        with pytest.raises(EncodingError, match="10-bit"):
            encode(program)

    def test_wire_bytes_matches_encoding(self):
        program = assemble("LOAD 0 8\nMOVE sp[0] #7\nRETURN")
        assert program.wire_bytes() == len(encode(program))

    def test_wire_bytes_memoized(self):
        program = assemble("LOAD 0 8\nRETURN")
        first = program.wire_bytes()
        assert program.wire_bytes() == first
        assert program._wire_bytes == first


class TestDecodeValidation:
    def test_bad_magic_rejected(self):
        with pytest.raises(EncodingError, match="magic"):
            decode(b"XX" + bytes(30))

    def test_truncated_payload_rejected(self):
        program = assemble("LOAD 0 8\nRETURN")
        data = encode(program)
        with pytest.raises(EncodingError, match="truncated"):
            decode(data[:-4])

    def test_bad_version_rejected(self):
        program = assemble("LOAD 0 8\nRETURN")
        data = bytearray(encode(program))
        data[2] = 99
        with pytest.raises(EncodingError, match="version"):
            decode(bytes(data))

    def test_decode_revalidates_structure(self):
        # Corrupt the first instruction's opcode to RETURN: the decoded
        # program no longer starts with LOAD and must be rejected.
        program = assemble("LOAD 0 8\nRETURN")
        data = bytearray(encode(program))
        name_pad = 8  # ".name" defaults to 'program': 7 bytes + pad
        header = 16 + ((7 + 7) // 8) * 8
        from repro.isa.encoding import _OPCODE_INDEX
        from repro.isa import Opcode
        data[header] = _OPCODE_INDEX[Opcode.RETURN]
        with pytest.raises(EncodingError, match="invalid"):
            decode(bytes(data))
