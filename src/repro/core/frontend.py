"""A Python frontend for pulse kernels.

The paper's developers write their ``next()``/``end()`` in C++ and a
compiler lowers it to the pulse ISA ("ADPDM does not innovate on the
compilation step itself: the offload engine generates ADPDM ISA
instructions using widely known compiler techniques", §4.1).  This
module is that compiler for a restricted Python subset, so a data
structure port reads like the paper's Listing 3 rather than hand-built
ISA::

    NODE = StructLayout("node", [Field("key", "u64"),
                                 Field("value", "i64"),
                                 Field("next", "ptr")])
    SCRATCH = StructLayout("sp", [Field("key", "u64"),
                                  Field("value", "i64"),
                                  Field("status", "u64")])

    def find(node, sp):
        if sp.key == node.key:
            sp.value = node.value
            sp.status = 1
            return RETURN
        if node.next == 0:
            sp.status = 0
            return RETURN
        return NEXT(node.next)

    program = compile_kernel(find, NODE, SCRATCH)

Supported subset (everything else raises :class:`FrontendError` with a
pointer at the offending line):

* ``if / elif / else`` with a single comparison test
  (``== != < > <= >=``);
* assignments and augmented assignments (``+= -= *= //= &= |=``) to
  scratch fields;
* expressions over node fields, scratch fields, integer constants, and
  the arithmetic/bitwise operators ``+ - * // & |`` and unary ``~``;
* ``for i in range(K)`` with a *constant* K -- unrolled, with ``i``
  usable as an array index (``node.keys[i]``) or constant; ``break``
  jumps past the loop (forward-only, as the ISA requires);
* ``return RETURN`` (end traversal), ``return NEXT(expr)`` (set cur_ptr
  and start the next iteration).

The offload engine's aggregated-LOAD inference, label resolution, and
program validation all come from :class:`~repro.core.kernel.
KernelBuilder` underneath.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Dict, Optional

from repro.core.kernel import KernelBuilder
from repro.isa.instructions import Operand
from repro.isa.program import Program
from repro.mem.layout import StructLayout

#: sentinels for the return forms (referenced by name inside kernels)
RETURN = object()


def NEXT(_pointer):  # pragma: no cover -- never actually called
    """Marker for 'advance to this pointer'; only meaningful compiled."""
    raise RuntimeError("NEXT() is a compile-time marker, not a function")


class FrontendError(Exception):
    """Unsupported construct or malformed kernel function."""


_BINOPS = {
    ast.Add: "add",
    ast.Sub: "sub",
    ast.Mult: "mul",
    ast.FloorDiv: "div",
    ast.BitAnd: "bit_and",
    ast.BitOr: "bit_or",
}

_COMPARE_JUMPS = {
    ast.Eq: ("jump_eq", "jump_neq"),
    ast.NotEq: ("jump_neq", "jump_eq"),
    ast.Lt: ("jump_lt", "jump_ge"),
    ast.Gt: ("jump_gt", "jump_le"),
    ast.LtE: ("jump_le", "jump_gt"),
    ast.GtE: ("jump_ge", "jump_lt"),
}


class _Compiler:
    def __init__(self, node_layout: StructLayout,
                 scratch_layout: StructLayout, name: str):
        self.node_layout = node_layout
        self.scratch_layout = scratch_layout
        scratch_bytes = scratch_layout.size
        self.builder = KernelBuilder(name, scratch_bytes=scratch_bytes)
        self.node_param: Optional[str] = None
        self.sp_param: Optional[str] = None
        self._label_counter = 0
        self._loop_bindings: Dict[str, int] = {}
        self._temp_reg = 0
        #: where ``break`` jumps: the innermost loop's end label
        self._break_label: Optional[str] = None

    # -- entry ----------------------------------------------------------------
    def compile(self, fn) -> Program:
        try:
            source = inspect.getsource(fn)
        except (OSError, TypeError) as exc:
            raise FrontendError(
                f"cannot read source of {fn!r} ({exc}); define the kernel "
                "where inspect.getsource can find it")
        tree = ast.parse(textwrap.dedent(source))
        func = tree.body[0]
        if not isinstance(func, ast.FunctionDef):
            raise FrontendError("expected a plain function definition")
        args = [a.arg for a in func.args.args]
        if len(args) != 2:
            raise FrontendError(
                "kernel functions take exactly (node, scratch) "
                f"parameters; got {args}")
        self.node_param, self.sp_param = args
        self._block(func.body)
        # Unterminated fall-through is caught by Program validation with
        # a clear message; add context first.
        try:
            return self.builder.build()
        except Exception as exc:
            raise FrontendError(f"in kernel {func.name!r}: {exc}")

    # -- statements ------------------------------------------------------------
    def _block(self, statements) -> None:
        for statement in statements:
            self._statement(statement)

    def _statement(self, node) -> None:
        self._temp_reg = 0
        if isinstance(node, ast.Return):
            self._return(node)
        elif isinstance(node, ast.If):
            self._if(node)
        elif isinstance(node, ast.Assign):
            self._assign(node)
        elif isinstance(node, ast.AugAssign):
            self._aug_assign(node)
        elif isinstance(node, ast.For):
            self._for(node)
        elif isinstance(node, ast.Break):
            self._break(node)
        elif isinstance(node, ast.Pass):
            return
        elif isinstance(node, ast.Expr) and isinstance(
                node.value, ast.Constant):
            return  # docstring
        else:
            self._unsupported(node, "statement")

    def _return(self, node: ast.Return) -> None:
        value = node.value
        if isinstance(value, ast.Name) and value.id == "RETURN":
            self.builder.ret()
            return
        if (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "NEXT"):
            if len(value.args) != 1:
                self._unsupported(node, "NEXT takes one pointer")
            pointer = self._expression(value.args[0])
            self.builder.move(self.builder.cur_ptr(), pointer)
            self.builder.next_iter()
            return
        self._unsupported(
            node, "return must be 'return RETURN' or 'return NEXT(...)'")

    def _if(self, node: ast.If) -> None:
        else_label = self._fresh("else")
        end_label = self._fresh("endif")
        self._condition(node.test, jump_if_false=else_label)
        self._block(node.body)
        body_terminates = self._always_terminates(node.body)
        if node.orelse:
            if not body_terminates:
                self.builder.compare(self.builder.imm(0),
                                     self.builder.imm(0))
                self.builder.jump_eq(end_label)
            self.builder.label(else_label)
            self._block(node.orelse)
            if not body_terminates:
                self.builder.label(end_label)
        else:
            self.builder.label(else_label)

    def _condition(self, test, jump_if_false: str) -> None:
        if not isinstance(test, ast.Compare):
            self._unsupported(test, "condition (must be a comparison)")
        if len(test.ops) != 1 or len(test.comparators) != 1:
            self._unsupported(test, "chained comparison")
        op_type = type(test.ops[0])
        if op_type not in _COMPARE_JUMPS:
            self._unsupported(test, f"comparison {op_type.__name__}")
        left = self._expression(test.left)
        right = self._expression(test.comparators[0])
        self.builder.compare(left, right)
        _taken, inverted = _COMPARE_JUMPS[op_type]
        getattr(self.builder, inverted)(jump_if_false)

    def _assign(self, node: ast.Assign) -> None:
        if len(node.targets) != 1:
            self._unsupported(node, "multiple assignment targets")
        target = self._scratch_target(node.targets[0])
        value = node.value
        if isinstance(value, ast.BinOp):
            op = _BINOPS.get(type(value.op))
            if op is None:
                self._unsupported(value, "operator")
            left = self._expression(value.left)
            right = self._expression(value.right)
            getattr(self.builder, op)(target, left, right)
            return
        if isinstance(value, ast.UnaryOp) and isinstance(
                value.op, ast.Invert):
            self.builder.bit_not(target, self._expression(value.operand))
            return
        self.builder.move(target, self._expression(value))

    def _aug_assign(self, node: ast.AugAssign) -> None:
        op = _BINOPS.get(type(node.op))
        if op is None:
            self._unsupported(node, "augmented operator")
        target = self._scratch_target(node.target)
        getattr(self.builder, op)(target, target,
                                  self._expression(node.value))

    def _for(self, node: ast.For) -> None:
        if node.orelse:
            self._unsupported(node, "for-else")
        if not (isinstance(node.iter, ast.Call)
                and isinstance(node.iter.func, ast.Name)
                and node.iter.func.id == "range"
                and len(node.iter.args) == 1):
            self._unsupported(node, "loop (only 'for i in range(K)')")
        count_node = node.iter.args[0]
        if not (isinstance(count_node, ast.Constant)
                and isinstance(count_node.value, int)):
            self._unsupported(
                node, "loop bound (must be a constant: the ISA forbids "
                      "unbounded loops within an iteration, §3.1)")
        if not isinstance(node.target, ast.Name):
            self._unsupported(node, "loop target")
        var = node.target.id
        end_label = self._fresh("loopend")
        previous = self._loop_bindings.get(var)
        previous_break = self._break_label
        self._break_label = end_label
        for i in range(count_node.value):
            self._loop_bindings[var] = i
            self._block(node.body)
        if previous is None:
            self._loop_bindings.pop(var, None)
        else:
            self._loop_bindings[var] = previous
        self._break_label = previous_break
        self.builder.label(end_label)

    def _break(self, node: ast.Break) -> None:
        label = self._break_label
        if label is None:
            self._unsupported(node, "break outside a loop")
        self.builder.compare(self.builder.imm(0), self.builder.imm(0))
        self.builder.jump_eq(label)

    # -- expressions -----------------------------------------------------------
    def _expression(self, node) -> Operand:
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, int):
                self._unsupported(node, "non-integer constant")
            return self.builder.imm(node.value)
        if isinstance(node, ast.Name):
            if node.id in self._loop_bindings:
                return self.builder.imm(self._loop_bindings[node.id])
            self._unsupported(node, f"name {node.id!r}")
        if isinstance(node, ast.Attribute):
            return self._field_operand(node, index=0)
        if isinstance(node, ast.Subscript):
            return self._subscript_operand(node)
        if isinstance(node, ast.BinOp):
            op = _BINOPS.get(type(node.op))
            if op is None:
                self._unsupported(node, "operator")
            target = self._temp()
            getattr(self.builder, op)(
                target, self._expression(node.left),
                self._expression(node.right))
            return target
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub) and isinstance(
                    node.operand, ast.Constant):
                return self.builder.imm(-node.operand.value)
            if isinstance(node.op, ast.Invert):
                target = self._temp()
                self.builder.bit_not(target,
                                     self._expression(node.operand))
                return target
        self._unsupported(node, "expression")

    def _field_operand(self, node: ast.Attribute, index: int) -> Operand:
        base = node.value
        if not isinstance(base, ast.Name):
            self._unsupported(node, "nested attribute")
        if base.id == self.node_param:
            return self.builder.field(self.node_layout, node.attr, index)
        if base.id == self.sp_param:
            layout = self.scratch_layout
            offset = layout.offset(node.attr, index)
            width = min(8, layout.field_size(node.attr))
            return self.builder.sp(offset, width)
        self._unsupported(node, f"base object {base.id!r}")

    def _subscript_operand(self, node: ast.Subscript) -> Operand:
        if not isinstance(node.value, ast.Attribute):
            self._unsupported(node, "subscript base")
        index_node = node.slice
        if isinstance(index_node, ast.Constant) and isinstance(
                index_node.value, int):
            index = index_node.value
        elif (isinstance(index_node, ast.Name)
              and index_node.id in self._loop_bindings):
            index = self._loop_bindings[index_node.id]
        else:
            self._unsupported(
                node, "subscript index (constant or unrolled loop "
                      "variable only)")
        return self._field_operand(node.value, index=index)

    def _scratch_target(self, node) -> Operand:
        if isinstance(node, ast.Attribute):
            operand = self._field_operand(node, index=0)
        elif isinstance(node, ast.Subscript):
            operand = self._subscript_operand(node)
        else:
            self._unsupported(node, "assignment target")
        if not (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == self.sp_param) and not (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == self.sp_param):
            self._unsupported(
                node, "assignment target (only scratch fields are "
                      "writable; the data vector is read-only)")
        return operand

    # -- helpers -----------------------------------------------------------------
    def _temp(self) -> Operand:
        if self._temp_reg > 7:
            raise FrontendError("expression too deep (8 temporaries)")
        register = self.builder.reg(self._temp_reg)
        self._temp_reg += 1
        return register

    def _fresh(self, prefix: str) -> str:
        self._label_counter += 1
        return f"__{prefix}_{self._label_counter}"

    @staticmethod
    def _always_terminates(statements) -> bool:
        """True if the block always ends in RETURN/NEXT on every path."""
        if not statements:
            return False
        last = statements[-1]
        if isinstance(last, ast.Return):
            return True
        if isinstance(last, ast.If) and last.orelse:
            return (_Compiler._always_terminates(last.body)
                    and _Compiler._always_terminates(last.orelse))
        return False

    def _unsupported(self, node, what: str) -> None:
        line = getattr(node, "lineno", "?")
        raise FrontendError(
            f"unsupported {what} at line {line}: the pulse frontend "
            "compiles only the restricted subset documented in "
            "repro.core.frontend")


def compile_kernel(fn, node_layout: StructLayout,
                   scratch_layout: StructLayout) -> Program:
    """Compile a restricted Python function, named after ``fn``, into a
    pulse program; :func:`inspect.getsource` must find its source."""
    return _Compiler(node_layout, scratch_layout,
                     fn.__name__).compile(fn)
