"""Property-based tests for the Python-to-ISA compiler: generated
arithmetic kernels must compute exactly what Python computes."""

import linecache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.frontend import RETURN, compile_kernel
from repro.isa import IteratorMachine
from repro.mem import Field, GlobalMemory, StructLayout

REC = StructLayout("rec", [
    Field("a", "i64"),
    Field("b", "i64"),
    Field("c", "i64"),
])

SP = StructLayout("sp", [
    Field("out", "i64"),
    Field("aux", "i64"),
])

COMMON = settings(max_examples=30, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])

#: operators the frontend supports, with Python semantics matched to the
#: ISA (// is C-style truncation in the ISA, so divisors stay positive
#: and dividends non-negative in generated programs)
_OPS = ["+", "-", "*", "&", "|"]

small_int = st.integers(min_value=0, max_value=1_000)


@st.composite
def arithmetic_expression(draw, depth=0):
    """A random expression string over node fields and constants."""
    if depth >= 2 or draw(st.booleans()):
        return draw(st.sampled_from(
            ["node.a", "node.b", "node.c",
             str(draw(small_int))]))
    op = draw(st.sampled_from(_OPS))
    left = draw(arithmetic_expression(depth=depth + 1))
    right = draw(arithmetic_expression(depth=depth + 1))
    return f"({left} {op} {right})"


class TestCompiledArithmetic:
    @COMMON
    @given(expression=arithmetic_expression(),
           a=small_int, b=small_int, c=small_int)
    def test_matches_python_semantics(self, expression, a, b, c):
        source = (
            "def kernel(node, sp):\n"
            f"    sp.out = {expression}\n"
            # Pure-constant expressions touch no data, which the builder
            # rightly rejects (nothing to traverse); anchor one access.
            "    sp.aux = node.a\n"
            "    return RETURN\n"
        )
        # Registered with linecache, exec'd source is what
        # inspect.getsource (and so compile_kernel) reads back.
        linecache.cache["<generated>"] = (len(source), None,
                                          source.splitlines(True),
                                          "<generated>")
        namespace = {"RETURN": RETURN}
        exec(compile(source, "<generated>", "exec"), namespace)
        program = compile_kernel(namespace["kernel"], REC, SP)

        gm = GlobalMemory(1, 1 << 16)
        addr = gm.alloc(REC.size)
        gm.write(addr, REC.pack(a=a, b=b, c=c))
        machine = IteratorMachine(program)
        machine.reset(addr, bytes(SP.size))
        out = SP.unpack(machine.run(gm.read))["out"]

        class _Node:
            pass

        node = _Node()
        node.a, node.b, node.c = a, b, c
        expected = eval(expression, {"node": node})
        # The ISA wraps at 64 bits; generated inputs stay far inside.
        assert out == expected, expression

    @COMMON
    @given(values=st.lists(st.tuples(small_int, small_int), min_size=1,
                           max_size=6),
           threshold=small_int)
    def test_compiled_conditional_matches_python(self, values, threshold):
        chain = StructLayout("n", [
            Field("key", "u64"), Field("value", "i64"),
            Field("next", "ptr"),
        ])

        def pick(node, sp):
            if node.key >= sp.aux:
                sp.out += node.value
            if node.next == 0:
                return RETURN
            return NEXT(node.next)

        from repro.core.frontend import NEXT  # noqa: F401 (used above)
        program = compile_kernel(pick, chain, SP)

        gm = GlobalMemory(1, 1 << 18)
        addrs = [gm.alloc(chain.size) for _ in values]
        for i, (key, value) in enumerate(values):
            nxt = addrs[i + 1] if i + 1 < len(addrs) else 0
            gm.write(addrs[i], chain.pack(key=key, value=value,
                                          next=nxt))
        machine = IteratorMachine(program)
        machine.reset(addrs[0], SP.pack(aux=threshold))
        out = SP.unpack(machine.run(gm.read))["out"]
        assert out == sum(v for k, v in values if k >= threshold)
