"""Every name in ``src/`` has a reader outside ``tests/``, and every
``src/`` function runs outside tier-1.

A definition, a keyword parameter, a dataclass field or a ``self.``
attribute that only a test reaches is either a test oracle (it belongs
in ``tests/helpers.py``) or dead (it is deleted).  This file scans the
tree with :mod:`ast` and fails on each ``src/`` name that nothing in
``src/``, ``benchmarks/``, ``examples/`` or ``perfbench/`` uses:

* a function, class or method must be named by a load (a bare name for
  a module-level def, an attribute for any def) outside its own body;
* a field -- a class-body assignment, a ``__slots__`` entry or a
  ``self.x = ...`` store -- must be read as an attribute; a store, an
  augmented assignment or a constructor keyword sets it, and setting
  is not reading;
* a parameter with a default must be passed by some call that names the
  callable and fits its signature, by keyword or by position, directly
  or through a ``**kwargs`` the caller forwards; a callable also handed
  around as a value (a class in a table), or called by no one, counts
  any call's keyword or any string of that name.

A definition, an import and an ``__all__`` entry are not readers.  A
module-level def a package ``__init__`` lists in ``__all__`` is public
API.

The scan goes by name, and names collide: a ``describe`` method is
"read" by any ``describe`` attribute load, a ``name`` property by any
``.name``, and a reader that never runs keeps its callee alive all the
same.  The line gate behind it closes that blind spot.
``tools/linecov.py`` traces the production command set (the examples,
the benches, perfbench and the two CLIs) and tier-1, and writes which
lines of each ``src/`` function each of them reaches to
``BENCH_coverage.json``.  The gate fails when that file's function set
is not the tree's (a def added, renamed or deleted without
regenerating it), and on each function production never enters that
has no ``EXEMPT`` row.  A row names the function (``Class.method``), a
class it is in (``Class``) or its module (``core/frontend.py``).
Only a def added, renamed or deleted forces a rerun of the tool: the
file's ``entered`` column is not re-measured here, so a change that
drops the only production caller of a function passes until the next
regeneration.

``EXEMPT`` holds the names kept on purpose, each with one of
``REASONS``; an error path's row names the test that raises it
(:func:`raised_by`), and the file must record tier-1 entering it.

The same scan finds unused imports (ruff's F401, which CI runs) in
``src/``, ``tests/``, ``benchmarks/`` and ``examples/``, with
pyproject's exemptions: an ``__init__.py`` re-exports, and a line
marked ``# noqa: F401`` is left alone.
"""

import ast
import importlib.util
import json
import os
import sys
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Set

import pytest

ROOT = Path(__file__).resolve().parent.parent
COVERAGE = ROOT / "BENCH_coverage.json"
READERS = ("src", "benchmarks", "examples", "perfbench")
LINTED = ("src", "tests", "benchmarks", "examples")

PAPER = "the paper's model, API or catalog (§3, Supp Listings 7/8, Table 3)"
KERNEL = "the only way to construct a shipped kernel"
DECIDED = "a ROADMAP Decided item"
GETATTR = "a getattr read"
PAYLOAD = "an exception's payload"
STUB = "an abstract stub that raises NotImplementedError"
ERROR = "an error path"
REASONS = (PAPER, KERNEL, DECIDED, GETATTR, PAYLOAD, STUB, ERROR)


def raised_by(test: str) -> str:
    """An error path's reason: ``ERROR`` and the test that raises it
    (``tests/test_x.py::test_y``)."""
    return f"{ERROR}, raised by {test}"


#: name as the scan prints it, or a function, class or module as the
#: line gate names it -> why it stays without a reader or a production run
EXEMPT: Dict[str, str] = {
    "BinarySearchTree.lower_bound_iterator": PAPER,
    "LinkedList.sum_iterator": KERNEL,
    "BPlusTree.scan_collect_iterator": KERNEL,
    "PulseCluster(tcam_capacity=)": DECIDED,
    # the frontend's operator tables name them; getattr calls them
    "KernelBuilder.bit_and": GETATTR,
    "KernelBuilder.bit_or": GETATTR,
    "KernelBuilder.div": GETATTR,
    "KernelBuilder.mul": GETATTR,
    "KernelBuilder.jump_neq": GETATTR,
    "ProtectionFault.requested": PAYLOAD,
    "ProtectionFault.granted": PAYLOAD,
    # where a traversal ran (§3's offload decision); tests read it
    "TraversalResult.offloaded": PAPER,
    # -- the line gate: no production run enters these ----------------
    # the Supp Table 3 catalog, and the frontend that compiles the
    # paper's next() (it lowers ``~`` to bit_not)
    "structures/avltree.py": PAPER,
    "structures/bst.py": PAPER,
    "structures/skiplist.py": PAPER,
    "core/frontend.py": PAPER,
    "KernelBuilder.bit_not": PAPER,
    "ListSum": KERNEL,
    "BTreeScanCollect": KERNEL,
    "Rack.traverse": STUB,
    "Rack.serving_watts": STUB,
    "PulseIterator.init": STUB,
    "PulseIterator.finalize": STUB,
    "PulseIterator.index_key": STUB,
    "PulseIterator.index_window": STUB,
    "PulseIterator.index_locate": STUB,
    "PulseIterator.index_decode": STUB,
    "WorkspacePool._enqueue": STUB,
    "WorkspacePool._dequeue": STUB,
    "WorkspacePool.queue_length": STUB,
    "_Condition._observe": STUB,
    "_Condition._check_finalize": STUB,
    "Event.fail": raised_by(
        "tests/test_sim_engine.py::test_failed_event_raises_in_waiter"),
    "PulseSwitch._fault": raised_by(
        "tests/test_switch_unit.py::TestSwitchRouting::"
        "test_unroutable_pointer_becomes_fault"),
    "ProtectionFault.__init__": raised_by(
        "tests/test_accelerator_internals.py::TestProtectionPath::"
        "test_unreadable_range_faults_on_load"),
    "TranslationFault.__init__": raised_by(
        "tests/test_mem_addressing.py::TestRangeTranslation::"
        "test_miss_raises_translation_fault"),
    # ROADMAP Decided (i): paths no production configuration selects
    "TraversalBatch.__iter__": DECIDED,
    "DurabilityService.on_node_added": DECIDED,
    "PulseSwitch._evict_one": DECIDED,
    "IteratorMachine._indirect_slice": DECIDED,
}


class Finding(NamedTuple):
    where: str
    kind: str
    name: str

    def __str__(self) -> str:
        return f"{self.where}: {self.kind} {self.name}"

    def order(self):
        path, line = self.where.rsplit(":", 1)
        return path, int(line), self.name


def _files(root: Path, dirs) -> List[Path]:
    return [path for name in dirs for path in sorted((root / name).rglob("*.py"))]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _callee(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _Def(NamedTuple):
    kind: str              # "def" or "field"
    qual: str              # "Class.name" or "name"
    node: Optional[ast.AST]
    where: str


class _Signature(NamedTuple):
    qual: str
    callees: Set[str]      # call names that can reach it
    positional: List[str]  # after self/cls
    names: Set[str]        # every keyword it accepts
    star: bool
    dstar: bool
    defaulted: Dict[str, Optional[int]]   # name -> positional index
    where: Dict[str, str]
    node: ast.AST


class _Definitions(ast.NodeVisitor):
    """Every def, field and defaulted parameter of one ``src/`` file."""

    def __init__(self, rel: str):
        self.rel = rel
        self.defs: List[_Def] = []
        self.signatures: List[_Signature] = []
        self.bases: Dict[str, List[str]] = {}
        self.has_init: Dict[str, bool] = {}
        self.classes: List[str] = []

    def _at(self, node) -> str:
        return f"{self.rel}:{node.lineno}"

    def _field(self, name: str, node) -> None:
        if not _dunder(name):
            self.defs.append(_Def("field", ".".join(self.classes + [name]),
                                  None, self._at(node)))

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.defs.append(_Def("def", ".".join(self.classes + [node.name]),
                              node, self._at(node)))
        self.bases[node.name] = [base.id if isinstance(base, ast.Name)
                                 else getattr(base, "attr", "")
                                 for base in node.bases]
        self.has_init[node.name] = any(
            isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
            for stmt in node.body)
        self.classes.append(node.name)
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            elif isinstance(stmt, ast.Assign):
                targets = stmt.targets
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    self._field(target.id, stmt)
                    if target.id == "__slots__":
                        for slot in getattr(stmt.value, "elts", ()):
                            self._field(slot.value, stmt)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        decorators = {getattr(d, "id", getattr(d, "attr", ""))
                      for d in node.decorator_list}
        if not _dunder(node.name) and not decorators & {"setter", "deleter"}:
            self.defs.append(_Def("def", ".".join(self.classes + [node.name]),
                                  node, self._at(node)))
        if node.name == "__init__" or not _dunder(node.name):
            self._signature(node, method=bool(self.classes)
                            and "staticmethod" not in decorators)
        if self.classes:
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"):
                    self._field(sub.attr, sub)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _signature(self, node: ast.FunctionDef, method: bool) -> None:
        args = node.args
        positional = (args.posonlyargs + args.args)[int(method):]
        defaults = ([None] * (len(positional) - len(args.defaults))
                    + list(args.defaults))
        defaulted = {a.arg: i for i, (a, d) in enumerate(zip(positional, defaults))
                     if d is not None}
        defaulted.update({a.arg: None for a, d in
                          zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None})
        if not defaulted:
            return
        if node.name == "__init__":
            qual, callees = ".".join(self.classes), {"__init__"}
        else:
            qual, callees = ".".join(self.classes + [node.name]), {node.name}
        every = positional + args.kwonlyargs
        self.signatures.append(_Signature(
            qual, callees, [a.arg for a in positional],
            {a.arg for a in every}, args.vararg is not None,
            args.kwarg is not None, defaulted,
            {a.arg: f"{self.rel}:{a.lineno}" for a in every}, node))


class _Call(NamedTuple):
    positional: int
    keywords: Set[str]
    star: bool
    forwarded: Optional[str]   # the call name of the def whose **kwargs
                               # this call passes on
    unknown_dstar: bool        # a ** of anything else


class _Uses(ast.NodeVisitor):
    """Every load, attribute load and call of the reader files."""

    def __init__(self):
        self.names: Dict[str, List[frozenset]] = {}
        self.attrs: Dict[str, List[frozenset]] = {}
        self.calls: Dict[str, List[_Call]] = {}
        self.keywords: Dict[str, List[frozenset]] = {}
        self.strings: Set[str] = set()
        self.values: Set[str] = set()    # loaded other than to be called
        self.callees: Set[int] = set()
        self.scope: List[ast.AST] = []

    def _scoped(self, node, parts) -> None:
        for part in parts:
            self.visit(part)
        self.scope.append(node)
        for stmt in node.body:
            self.visit(stmt)
        self.scope.pop()

    def visit_FunctionDef(self, node) -> None:
        self._scoped(node, node.decorator_list + [node.args])
        self._annotation(node.returns)

    def visit_arg(self, node: ast.arg) -> None:
        self._annotation(node.annotation)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._annotation(node.annotation)
        for part in (node.target, node.value):
            if part is not None:
                self.visit(part)

    def _annotation(self, node) -> None:
        # a type named in an annotation is read, not handed around
        if node is not None:
            self.callees.update(id(sub) for sub in ast.walk(node))
            self.visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node) -> None:
        self._scoped(node, node.decorator_list + node.bases + node.keywords)

    def _inside(self):
        return frozenset(id(node) for node in self.scope)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.names.setdefault(node.id, []).append(self._inside())
            if id(node) not in self.callees:
                self.values.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self.attrs.setdefault(node.attr, []).append(self._inside())
            if id(node) not in self.callees:
                self.values.add(node.attr)
        self.visit(node.value)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str):
            self.strings.add(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # ``x.n += 1`` sets ``n``; only the object it is on is read.
        if isinstance(node.target, ast.Attribute):
            self.visit(node.target.value)
        self.visit(node.value)

    def visit_Call(self, node: ast.Call) -> None:
        self.callees.add(id(node.func))
        for keyword in node.keywords:
            if keyword.arg:
                self.keywords.setdefault(keyword.arg, []).append(
                    self._inside())
        name = _callee(node)
        if name == "__init__":
            # super().__init__(...) reaches the bases of the class it is in
            owner = next((s for s in reversed(self.scope)
                          if isinstance(s, ast.ClassDef)), None)
            name = f"__init__@{owner.name if owner else ''}"
        if name is not None:
            enclosing = next((s for s in reversed(self.scope)
                              if isinstance(s, (ast.FunctionDef,
                                                ast.AsyncFunctionDef))), None)
            kwarg = enclosing.args.kwarg if enclosing is not None else None
            dstars = [k.value for k in node.keywords if k.arg is None]
            forwarded = any(isinstance(v, ast.Name) and kwarg is not None
                            and v.id == kwarg.arg for v in dstars)
            if forwarded and enclosing.name == "__init__":
                forwarded = next(s.name for s in reversed(self.scope)
                                 if isinstance(s, ast.ClassDef))
            elif forwarded:
                forwarded = enclosing.name
            self.calls.setdefault(name, []).append(_Call(
                sum(not isinstance(a, ast.Starred) for a in node.args),
                {k.arg for k in node.keywords if k.arg},
                any(isinstance(a, ast.Starred) for a in node.args),
                forwarded or None,
                len(dstars) > int(bool(forwarded))))
        self.generic_visit(node)


def _public(root: Path) -> Set[str]:
    """Every name a package ``__init__`` lists in ``__all__``."""
    names = set()
    for path in (root / "src").rglob("__init__.py"):
        for node in _parse(path).body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__"
                            for t in node.targets)):
                names.update(elt.value for elt in node.value.elts)
    return names


def _fits(sig: _Signature, call: _Call) -> bool:
    """Could ``call`` be a call of ``sig``?"""
    if call.positional > len(sig.positional) and not sig.star:
        return False
    return sig.dstar or call.keywords <= sig.names


def _spelled(sig: _Signature, param: str, uses: _Uses) -> bool:
    """Does some string, or some call outside ``sig``'s own body, spell
    ``param`` as a keyword?"""
    return param in uses.strings or any(
        id(sig.node) not in inside for inside in uses.keywords.get(param, ()))


def _passed_by_keyword(sig: _Signature, param: str, calls, uses: _Uses,
                       seen=frozenset()) -> bool:
    """Does one of ``calls`` pass ``param=``, or pass on a ``**`` that
    may hold it (a caller's own ``**kwargs``: then ask its callers)?"""
    for call in calls:
        if param in call.keywords:
            return True
        if call.unknown_dstar and _spelled(sig, param, uses):
            return True
        if call.forwarded and call.forwarded not in seen and \
                _passed_by_keyword(sig, param,
                                   uses.calls.get(call.forwarded, ()), uses,
                                   seen | {call.forwarded}):
            return True
    return False


def _never_set(sig: _Signature, param: str, uses: _Uses) -> bool:
    """Does no call of ``sig`` pass ``param``?  A callable that is also
    handed around as a value (a table of classes, a factory), or that
    no call reaches, has ``param`` set too when any call passes a
    keyword of that name or any string spells it."""
    index = sig.defaulted[param]
    calls = [call for callee in sig.callees
             for call in uses.calls.get(callee, ()) if _fits(sig, call)]
    if (sig.callees & uses.values or not calls) and _spelled(sig, param,
                                                              uses):
        return False
    if any(call.star or (index is not None and call.positional > index)
           for call in calls):
        return False
    return not _passed_by_keyword(sig, param, calls, uses)


def _constructors(cls: str, bases, has_init) -> Set[str]:
    """The call names that reach ``cls.__init__``: the class, a subclass
    without its own ``__init__``, and ``super().__init__`` in a subclass."""
    names = {cls}
    for sub, parents in bases.items():
        if cls in parents:
            names.add(f"__init__@{sub}")
            if not has_init.get(sub):
                names |= _constructors(sub, bases, has_init)
    return names


def dead_surface(root: Path = ROOT, exempt=EXEMPT) -> List[Finding]:
    """Each ``src/`` def, field and defaulted parameter nothing uses."""
    trees = {path: _parse(path) for path in _files(root, READERS)}
    uses = _Uses()
    for tree in trees.values():
        uses.visit(tree)
    definitions = []
    for path in _files(root, ("src",)):
        found = _Definitions(str(path.relative_to(root)))
        found.visit(trees[path])
        definitions.append(found)
    bases = {k: v for d in definitions for k, v in d.bases.items()}
    has_init = {k: v for d in definitions for k, v in d.has_init.items()}
    public = _public(root)

    findings, seen = [], set()
    for found in definitions:
        for kind, qual, node, where in found.defs:
            if qual in seen or qual in exempt:
                continue
            seen.add(qual)
            name = qual.rsplit(".", 1)[-1]
            member = "." in qual
            if not member and name in public:
                continue
            loads = uses.attrs.get(name, [])
            if not member:
                loads = loads + uses.names.get(name, [])
            if not any(node is None or id(node) not in inside
                       for inside in loads):
                findings.append(Finding(where, kind, qual))

    for sig in (s for d in definitions for s in d.signatures):
        if sig.callees == {"__init__"}:
            cls = sig.qual.rsplit(".", 1)[-1]
            sig.callees.clear()
            sig.callees.update(_constructors(cls, bases, has_init))
        for param in sig.defaulted:
            name = f"{sig.qual}({param}=)"
            if name not in exempt and _never_set(sig, param, uses):
                findings.append(Finding(sig.where[param], "keyword", name))
    return sorted(findings, key=Finding.order)


def _bound(alias: ast.alias) -> str:
    return alias.asname or alias.name.split(".")[0]


def unused_imports(root: Path = ROOT) -> List[Finding]:
    """Each import nothing in its module uses (ruff F401)."""
    findings = []
    for path in _files(root, LINTED):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text, str(path))
        nodes = list(ast.walk(tree))
        # a name, or a string spelling one (an __all__ entry, a quoted
        # annotation), uses the import
        used = ({n.id for n in nodes if isinstance(n, ast.Name)}
                | {n.value for n in nodes if isinstance(n, ast.Constant)
                   and isinstance(n.value, str)})
        for node in nodes:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if (isinstance(node, ast.ImportFrom)
                    and node.module == "__future__"):
                continue
            span = lines[node.lineno - 1:node.end_lineno]
            if any("noqa" in line and ("F401" in line or "noqa:" not in line)
                   for line in span):
                continue
            for alias in node.names:
                if alias.name != "*" and _bound(alias) not in used:
                    findings.append(Finding(
                        f"{path.relative_to(root)}:{node.lineno}", "import",
                        alias.asname or alias.name))
    return findings


def test_every_src_name_has_a_reader_outside_tests():
    found = dead_surface()
    assert not found, "\n".join(map(str, found))


def test_no_unused_import():
    found = unused_imports()
    assert not found, "\n".join(map(str, found))


def _linecov():
    spec = importlib.util.spec_from_file_location(
        "linecov", ROOT / "tools" / "linecov.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rows_covering(key: str, exempt=EXEMPT) -> List[str]:
    """The ``exempt`` rows naming the function ``key``
    (``src/repro/x.py::Class.method``): its qualname, a class it is in,
    or its module path below the package (``core/frontend.py``)."""
    path, qual = key.split("::")
    parts = qual.split(".")
    names = [".".join(parts[:i]) for i in range(len(parts), 0, -1)]
    names.append(path.split("/", 2)[2])
    return [name for name in names if name in exempt]


def never_entered(recorded: dict, exempt=EXEMPT) -> List[str]:
    """Each function of ``recorded`` (``BENCH_coverage.json``'s
    ``functions``) production never enters and no row covers."""
    return [key for key, row in recorded.items()
            if row["entered"] != "production"
            and not rows_covering(key, exempt)]


@lru_cache(maxsize=None)
def _recorded() -> dict:
    return json.loads(COVERAGE.read_text())["functions"]


def test_every_src_function_runs_outside_tier1_or_has_a_row():
    recorded = set(_recorded())
    tree = set(_linecov().functions(ROOT)[0])
    assert recorded == tree, (
        "BENCH_coverage.json is stale; regenerate it with "
        "python tools/linecov.py\n  only in the tree: "
        f"{sorted(tree - recorded)}\n  only in the file: "
        f"{sorted(recorded - tree)}")
    missing = never_entered(_recorded())
    assert not missing, "production never enters:\n" + "\n".join(missing)


@lru_cache(maxsize=None)
def _unexempted() -> frozenset:
    covering = {name for key, row in _recorded().items()
                if row["entered"] != "production"
                for name in rows_covering(key)}
    return frozenset(f.name for f in dead_surface(exempt={})) | covering


def _reason_holds(name: str, reason: str) -> bool:
    """One of ``REASONS``.  An error path's names a test that exists,
    and tier-1 enters every function its row covers."""
    if reason.startswith(raised_by("")):
        test = reason[len(raised_by("")):]
        path = ROOT / test.split("::")[0]
        entered = {row["entered"] for key, row in _recorded().items()
                   if rows_covering(key, {name: reason})}
        return path.is_file() and entered == {"tier-1"} and \
            f"def {test.rsplit('::', 1)[1]}(" in path.read_text()
    return reason in REASONS and reason != ERROR


@pytest.mark.parametrize("name", EXEMPT)
def test_an_exemption_names_a_live_finding_and_a_reason(name):
    assert _reason_holds(name, EXEMPT[name]), EXEMPT[name]
    assert name in _unexempted(), (
        f"{name} has a reader now, runs in production (or is gone); "
        "drop its exemption")


BROKEN_TREE = {
    "src/pkg/__init__.py": '__all__ = ["Widget"]\n',
    "src/pkg/widget.py": (
        "import os\n"
        "\n"
        "\n"
        "class Widget:\n"
        "    def __init__(self, size, color=None):\n"
        "        self.size = size\n"
        "        self.spare = 0\n"
        "\n"
        "    def area(self):\n"
        "        return self.size * self.size\n"
        "\n"
        "    def unused(self):\n"
        "        return self.unused()\n"),
    "examples/use.py": (
        "from pkg.widget import Widget\n"
        "\n"
        "print(Widget(3).area())\n"),
    "tests/test_widget.py": (
        "from pkg.widget import Widget\n"
        "\n"
        "\n"
        "def test_spare():\n"
        "    assert Widget(1, color=2).unused() is None\n"
        "    assert Widget(1).spare == 0\n"),
}


def test_the_gate_names_each_kind_of_dead_surface(tmp_path):
    """A tree holding one of each: a def only its own body and a test
    call, a keyword only a test sets, a field nothing reads and an
    unused import -- each is named, and nothing else."""
    for name, text in BROKEN_TREE.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "perfbench").mkdir()
    assert [str(f) for f in dead_surface(tmp_path, exempt={})] == [
        "src/pkg/widget.py:5: keyword Widget(color=)",
        "src/pkg/widget.py:7: field Widget.spare",
        "src/pkg/widget.py:12: def Widget.unused",
    ]
    assert [str(f) for f in unused_imports(tmp_path)] == [
        "src/pkg/widget.py:1: import os"]
    assert dead_surface(tmp_path, exempt={"Widget.unused": PAPER,
                                          "Widget(color=)": PAPER,
                                          "Widget.spare": PAPER}) == []


TRACED_TREE = {
    "src/pkg/__init__.py": "",
    "src/pkg/mod.py": (
        "import os\n"
        "\n"
        "\n"
        "def entered():\n"
        "    return 1\n"
        "\n"
        "\n"
        "def never():\n"
        "    return 2\n"
        "\n"
        "\n"
        "def in_child():\n"
        "    return 3\n"
        "\n"
        "\n"
        "def fork_child():\n"
        "    pid = os.fork()\n"
        "    if pid == 0:\n"
        "        in_child()\n"
        "        os._exit(0)\n"
        "    os.waitpid(pid, 0)\n"),
    "examples/run.py": (
        "from pkg.mod import entered, fork_child\n"
        "\n"
        "entered()\n"
        "fork_child()\n"),
}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_the_tracer_sees_forked_children_and_names_the_never_entered(
        tmp_path):
    """One entered def, one never-entered def, and a def only a forked
    child runs before it leaves through ``os._exit``: the tracer keeps
    the child's hits, and the gate names exactly the never-entered def."""
    for name, text in TRACED_TREE.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    report = _linecov().measure(tmp_path, groups={
        "examples": [([sys.executable, "examples/run.py"], {})]})
    rows = report["functions"]
    assert {key: row["entered"] for key, row in rows.items()} == {
        "src/pkg/mod.py::entered": "production",
        "src/pkg/mod.py::never": "none",
        "src/pkg/mod.py::in_child": "production",
        "src/pkg/mod.py::fork_child": "production",
    }
    assert rows["src/pkg/mod.py::in_child"]["production"] == [13]
    assert rows["src/pkg/mod.py::never"]["neither"] == [9]
    assert never_entered(rows, exempt={}) == ["src/pkg/mod.py::never"]
    assert never_entered(rows, exempt={"mod.py": PAPER}) == []
