"""Property-based tests (hypothesis) for core data structures and
invariants: layouts, address spaces, allocation, translation, the ISA
interpreter, and the data structures versus Python references."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.isa import IteratorMachine
from repro.mem import (
    AddressSpace,
    DisaggregatedAllocator,
    Field,
    GlobalMemory,
    PlacementPolicy,
    RangeTranslationTable,
    StructLayout,
)
from repro.mem.translation import RangeEntry
from repro.sim import Environment
from repro.structures import BPlusTree, HashTable, LinkedList, SkipList
from tests.helpers import btree_items, find_reference, run_functional

COMMON = settings(max_examples=40,
                  suppress_health_check=[HealthCheck.too_slow],
                  deadline=None)

u63 = st.integers(min_value=0, max_value=(1 << 63) - 1)
i64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)


class TestLayoutProperties:
    @COMMON
    @given(values=st.lists(
        st.tuples(u63, i64), min_size=1, max_size=8))
    def test_pack_unpack_round_trip(self, values):
        fields = []
        expected = {}
        for i, (uval, ival) in enumerate(values):
            fields.append(Field(f"u{i}", "u64"))
            fields.append(Field(f"i{i}", "i64"))
            expected[f"u{i}"] = uval
            expected[f"i{i}"] = ival
        layout = StructLayout("rec", fields)
        raw = layout.pack(**expected)
        assert layout.unpack(raw) == expected

    @COMMON
    @given(blob=st.binary(min_size=1, max_size=64), tail=u63)
    def test_bytes_field_round_trip(self, blob, tail):
        layout = StructLayout("rec", [
            Field("blob", "bytes", size=64),
            Field("tail", "u64"),
        ])
        raw = layout.pack(blob=blob, tail=tail)
        out = layout.unpack(raw)
        assert out["blob"][:len(blob)] == blob
        assert out["tail"] == tail

    @COMMON
    @given(sizes=st.lists(st.sampled_from(["u8", "u16", "u32", "u64",
                                           "i32", "i64", "f64", "ptr"]),
                          min_size=1, max_size=10))
    def test_offsets_are_packed_and_monotonic(self, sizes):
        fields = [Field(f"f{i}", kind) for i, kind in enumerate(sizes)]
        layout = StructLayout("rec", fields)
        offset = 0
        for i, f in enumerate(fields):
            assert layout.offset(f.name) == offset
            offset += f.byte_size()
        assert layout.size == offset


class TestAddressSpaceProperties:
    @COMMON
    @given(nodes=st.integers(1, 16),
           capacity=st.integers(64, 1 << 20),
           offset=st.integers(0, (1 << 20) - 1))
    def test_node_of_inverts_range_of(self, nodes, capacity, offset):
        space = AddressSpace(nodes, capacity)
        offset = offset % capacity
        for node in range(nodes):
            start, end = space.range_of(node)
            assert space.node_of(start + offset) == node
            assert start + offset < end

    @COMMON
    @given(nodes=st.integers(1, 8), capacity=st.integers(64, 4096))
    def test_ranges_tile_without_gaps(self, nodes, capacity):
        space = AddressSpace(nodes, capacity)
        previous_end = None
        for node in range(nodes):
            start, end = space.range_of(node)
            if previous_end is not None:
                assert start == previous_end
            previous_end = end


class TestAllocatorProperties:
    @COMMON
    @given(requests=st.lists(st.integers(1, 512), min_size=1,
                             max_size=60),
           policy=st.sampled_from(list(PlacementPolicy)))
    def test_allocations_never_overlap(self, requests, policy):
        space = AddressSpace(4, 1 << 16)
        tables = [RangeTranslationTable(capacity=4096) for _ in range(4)]
        alloc = DisaggregatedAllocator(space, tables, policy)
        spans = []
        for size in requests:
            addr = alloc.alloc(size)
            spans.append((addr, addr + size))
        spans.sort()
        for (a_start, a_end), (b_start, _b_end) in zip(spans, spans[1:]):
            assert a_end <= b_start

    @COMMON
    @given(sizes=st.lists(st.integers(8, 256), min_size=1, max_size=30))
    def test_free_then_realloc_reuses_exactly(self, sizes):
        space = AddressSpace(1, 1 << 20)
        tables = [RangeTranslationTable(capacity=4096)]
        alloc = DisaggregatedAllocator(space, tables)
        aligned = [(s + 7) & ~7 for s in sizes]
        addrs = [alloc.alloc(s) for s in sizes]
        for addr in addrs:
            alloc.free(addr)
        again = [alloc.alloc(s) for s in sizes]
        # Same byte budget is reused: no growth of the bump pointer.
        assert set(again) <= set(addrs)
        assert alloc.allocated_bytes(0) == sum(aligned)

    @COMMON
    @given(sizes=st.lists(st.integers(1, 128), min_size=2, max_size=40))
    def test_uniform_policy_balances(self, sizes):
        space = AddressSpace(2, 1 << 20)
        tables = [RangeTranslationTable(capacity=4096) for _ in range(2)]
        alloc = DisaggregatedAllocator(space, tables,
                                       PlacementPolicy.UNIFORM)
        for size in sizes:
            alloc.alloc(size)
        a, b = alloc.allocated_bytes(0), alloc.allocated_bytes(1)
        assert abs(a - b) <= max((s + 7) & ~7 for s in sizes)


class TestTranslationProperties:
    @COMMON
    @given(data=st.data())
    def test_translate_is_consistent_with_entries(self, data):
        table = RangeTranslationTable(capacity=128)
        cursor_virt, cursor_phys = 0x10_000, 0
        entries = []
        for _ in range(data.draw(st.integers(1, 10))):
            size = data.draw(st.integers(8, 4096))
            gap = data.draw(st.integers(0, 512))
            entry = RangeEntry(cursor_virt + gap,
                               cursor_virt + gap + size, cursor_phys)
            table.insert(entry)
            entries.append((cursor_virt + gap, size, cursor_phys))
            cursor_virt += gap + size
            cursor_phys += size
        for virt, size, phys in entries:
            inner = data.draw(st.integers(0, size - 1))
            assert table.translate(virt + inner, 1) == phys + inner

    @COMMON
    @given(chunks=st.lists(st.integers(8, 256), min_size=2, max_size=20))
    def test_contiguous_inserts_coalesce_to_one_entry(self, chunks):
        table = RangeTranslationTable(capacity=4)
        virt, phys = 0x1000, 0
        for size in chunks:
            table.insert(RangeEntry(virt, virt + size, phys))
            virt += size
            phys += size
        assert len(table) == 1
        assert table.translate(0x1000 + sum(chunks) - 1) == \
            sum(chunks) - 1


class TestKernelProperties:
    @COMMON
    @given(pairs=st.lists(st.tuples(u63, i64), min_size=1, max_size=60,
                          unique_by=lambda kv: kv[0]),
           probe=u63)
    def test_list_find_matches_reference(self, pairs, probe):
        gm = GlobalMemory(1, 1 << 20)
        lst = LinkedList(gm)
        lst.extend(pairs)
        finder = lst.find_iterator()
        keys = [k for k, _ in pairs]
        target = probe if probe % 2 else keys[probe % len(keys)]
        result = run_functional(finder, gm.read, target)
        assert result.value == find_reference(lst, target)

    @COMMON
    @given(values=st.lists(i64 .filter(lambda v: abs(v) < 1 << 40),
                           min_size=1, max_size=50))
    def test_list_sum_matches_python_sum(self, values):
        gm = GlobalMemory(1, 1 << 20)
        lst = LinkedList(gm)
        lst.extend(enumerate(values))
        total, count = run_functional(lst.sum_iterator(), gm.read).value
        assert total == sum(values)
        assert count == len(values)


class TestStructureProperties:
    @COMMON
    @given(keys=st.lists(u63, min_size=1, max_size=120, unique=True),
           probes=st.lists(u63, min_size=1, max_size=10))
    def test_hash_table_matches_dict(self, keys, probes):
        gm = GlobalMemory(1, 1 << 22)
        table = HashTable(gm, buckets=8, value_bytes=8)
        reference = {}
        for key in keys:
            value = (key * 7 + 1) % (1 << 64)
            table.insert(key, value.to_bytes(8, "little"))
            reference[key] = value
        finder = table.find_iterator()
        for probe in probes + keys[:5]:
            got = run_functional(finder, gm.read, probe).value
            want = reference.get(probe)
            if want is None:
                assert got is None
            else:
                assert int.from_bytes(got, "little") == want

    @COMMON
    @given(keys=st.lists(st.integers(0, 100_000), min_size=1,
                         max_size=150, unique=True),
           probes=st.lists(st.integers(0, 100_000), min_size=1,
                           max_size=10))
    def test_btree_bulk_load_matches_dict(self, keys, probes):
        gm = GlobalMemory(1, 1 << 22)
        tree = BPlusTree(gm, fanout=5)
        pairs = sorted((k, k ^ 0xABCD) for k in keys)
        tree.bulk_load(pairs)
        lookup = tree.lookup_iterator()
        reference = dict(pairs)
        for probe in probes + keys[:5]:
            got = run_functional(lookup, gm.read, probe).value
            assert got == reference.get(probe)

    @COMMON
    @given(keys=st.lists(st.integers(0, 50_000), min_size=1,
                         max_size=100, unique=True))
    def test_btree_insert_matches_bulk_load_order(self, keys):
        gm = GlobalMemory(1, 1 << 22)
        tree = BPlusTree(gm, fanout=4)
        for key in keys:
            tree.insert(key, key + 1)
        items = btree_items(tree)
        assert items == sorted((k, k + 1) for k in keys)

    @COMMON
    @given(keys=st.lists(st.integers(0, 50_000), min_size=2,
                         max_size=100, unique=True),
           start_index=st.integers(0, 10),
           limit=st.integers(1, 30))
    def test_btree_scan_is_sorted_slice(self, keys, start_index, limit):
        gm = GlobalMemory(1, 1 << 22)
        tree = BPlusTree(gm, fanout=6)
        pairs = sorted((k, 0) for k in keys)
        tree.bulk_load(pairs)
        ordered = [k for k, _ in pairs]
        start_key = ordered[start_index % len(ordered)]
        scan = tree.scan_collect_iterator(limit=limit)
        got = run_functional(scan, gm.read, start_key).value
        expected = [k for k in ordered if k >= start_key][:limit]
        assert got == expected

    @COMMON
    @given(keys=st.lists(u63, min_size=1, max_size=100, unique=True),
           seed=st.integers(0, 1000))
    def test_skiplist_matches_dict(self, keys, seed):
        gm = GlobalMemory(1, 1 << 22)
        sl = SkipList(gm, seed=seed)
        for key in keys:
            sl.insert(key, key % 997)
        finder = sl.find_iterator()
        for key in keys[:10]:
            assert run_functional(finder, gm.read, key).value == key % 997
        absent = max(keys) - 1
        if absent not in keys and absent >= 0:
            assert (run_functional(finder, gm.read, absent).value
                    == find_reference(sl, absent))


class TestSimProperties:
    @COMMON
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                     allow_nan=False),
                           min_size=1, max_size=30))
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        env = Environment()
        fired = []

        def waiter(delay):
            yield env.timeout(delay)
            fired.append(env.now)

        for delay in delays:
            env.process(waiter(delay))
        env.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @COMMON
    @given(holds=st.lists(st.floats(min_value=1.0, max_value=100.0,
                                    allow_nan=False),
                          min_size=1, max_size=20),
           capacity=st.integers(1, 4))
    def test_resource_never_exceeds_capacity(self, holds, capacity):
        from repro.sim import Resource
        env = Environment()
        resource = Resource(env, capacity=capacity)
        concurrent = {"now": 0, "max": 0}

        def holder(hold):
            req = resource.request()
            yield req
            concurrent["now"] += 1
            concurrent["max"] = max(concurrent["max"],
                                    concurrent["now"])
            yield env.timeout(hold)
            concurrent["now"] -= 1
            resource.release(req)

        for hold in holds:
            env.process(holder(hold))
        env.run()
        assert concurrent["max"] <= capacity
        assert concurrent["now"] == 0


class TestInterpreterWrapAround:
    """64-bit two's-complement semantics of the modeled ALU."""

    @COMMON
    @given(a=i64, b=i64,
           op=st.sampled_from(["ADD", "SUB", "MUL", "AND", "OR"]))
    def test_alu_wraps_like_hardware(self, a, b, op):
        from repro.isa import IteratorMachine, assemble

        program = assemble(f"""
            .scratch 24
            LOAD 0 16
            {op} r0 sp[0] sp[8]
            MOVE sp[16] r0
            RETURN
        """)
        gm = GlobalMemory(1, 1 << 12)
        addr = gm.alloc(16)
        machine = IteratorMachine(program)
        scratch = (a.to_bytes(8, "little", signed=True)
                   + b.to_bytes(8, "little", signed=True))
        machine.reset(addr, scratch)
        out = machine.run(gm.read)
        got = int.from_bytes(out[16:24], "little", signed=True)

        python_ops = {"ADD": a + b, "SUB": a - b, "MUL": a * b,
                      "AND": a & b, "OR": a | b}
        expected = python_ops[op]
        # Hardware wraps to 64 bits, two's complement.
        wrapped = expected & (2**64 - 1)
        if wrapped >= 2**63:
            wrapped -= 2**64
        assert got == wrapped

    @COMMON
    @given(a=i64, b=i64 .filter(lambda v: v != 0))
    def test_div_truncates_toward_zero(self, a, b):
        from repro.isa import IteratorMachine, assemble

        program = assemble("""
            .scratch 24
            LOAD 0 16
            DIV r0 sp[0] sp[8]
            MOVE sp[16] r0
            RETURN
        """)
        gm = GlobalMemory(1, 1 << 12)
        addr = gm.alloc(16)
        machine = IteratorMachine(program)
        scratch = (a.to_bytes(8, "little", signed=True)
                   + b.to_bytes(8, "little", signed=True))
        machine.reset(addr, scratch)
        out = machine.run(gm.read)
        got = int.from_bytes(out[16:24], "little", signed=True)
        expected = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            expected = -expected
        wrapped = expected & (2**64 - 1)
        if wrapped >= 2**63:
            wrapped -= 2**64
        assert got == wrapped

    @COMMON
    @given(a=i64, b=i64)
    def test_compare_is_signed(self, a, b):
        from repro.isa import IteratorMachine, assemble

        program = assemble("""
            .scratch 24
            LOAD 0 16
            COMPARE sp[0] sp[8]
            JUMP_LT less
            MOVE sp[16] #0
            RETURN
        less:
            MOVE sp[16] #1
            RETURN
        """)
        gm = GlobalMemory(1, 1 << 12)
        addr = gm.alloc(16)
        machine = IteratorMachine(program)
        scratch = (a.to_bytes(8, "little", signed=True)
                   + b.to_bytes(8, "little", signed=True))
        machine.reset(addr, scratch)
        out = machine.run(gm.read)
        got = int.from_bytes(out[16:24], "little")
        assert got == (1 if a < b else 0)
