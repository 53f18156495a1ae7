"""Which ``src/`` lines production runs reach, and which only tier-1 reaches.

    python tools/linecov.py

runs the production command set and tier-1 under one line tracer and
writes ``BENCH_coverage.json``.  For each ``src/`` function -- a
``def`` at module or class level, its closures, lambdas and
comprehensions folded in, a property's getter and setter one entry --
the file gives the body lines production reaches, the lines only tier-1
reaches, the lines neither reaches, and which of the two enters it
first (``"production"``, ``"tier-1"`` or ``"none"``).
``tests/test_surface.py`` reads it: its function set must be the
tree's, and every function production never enters needs an ``EXEMPT``
row.  A body line is a line of the function's code other than its
``def`` (or first decorator) line; module and class bodies are left
out.

The production command set (``commands``):

* every ``examples/*.py``;
* every ``benchmarks/`` test file but ``test_counts.py`` and
  ``test_wallclock.py``, at ``REPRO_BENCH_SCALE=0.25`` with
  ``--benchmark-disable`` (pytest-benchmark pauses ``sys.settrace``
  around each timed call);
* ``perfbench/run.py --seed 1 --quick``;
* the two CLIs as the verify skill and README.md run them:
  ``python -m repro.bench list``, README's ``compare`` and ``cell``
  lines, and ``python -m repro.bench.report benchmarks/results``.

Tier-1 is ``python -m pytest -q`` over ``tests/``, less the two
``tests/test_surface.py`` tests that read the file this run rewrites
(``READS_REPORT``), so a def added or deleted since the last run does
not stop the run that brings the file up to date.  A failing bench
assert does not stop the run: its lines count all the same.  Any other
non-zero exit -- an example, perfbench, a CLI or a tier-1 test --
stops it before it writes the file.

Each command group runs on its own copy of the tree in a temporary
directory, because the benches rewrite ``benchmarks/results/`` and the
root ``BENCH_*.json``, which the CLIs and tier-1 read.  The groups run
side by side, one per CPU.

The tracer has to reach every Python process the commands start.  Two
workarounds make it do so:

* The tracer is installed by a ``usercustomize`` module under a
  temporary ``PYTHONUSERBASE``, which ``site`` imports at every
  interpreter's start-up.  perfbench's ``_child_env`` replaces
  ``PYTHONPATH`` and drops only ``PULSE_*``, so ``PYTHONUSERBASE`` and
  the ``LINECOV_*`` variables reach its measurement children.
* A forked process inherits the tracer.  A forked shard worker,
  however, leaves through ``os._exit``, which runs no ``atexit``
  handler, so the tracer wraps ``os._exit`` to write the worker's hits
  first.

At a normal exit the hook collects garbage before it writes: objects
left in reference cycles are otherwise finalized after every ``atexit``
handler, so whether a ``__del__`` counted depended on whether an
automatic collection had caught its object before the exit.

Each process writes its hits to its own JSON file; the files of one
group are merged.  Loading this module in a traced process imports no
``hashlib`` (``tests/test_static_analysis.py`` checks that a traversal
loads none).

Wall readings on 2 CPUs (two groups at a time, 7-13 min in all):
examples 50-95 s, perfbench ``--quick`` 55-125 s, the CLIs 10-20 s,
benches 410-680 s, tier-1 225-525 s.  The benches fork their cells over
every CPU, so the group running beside them slows down.
"""

import atexit
import dis
import gc
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

OUT_VAR = "LINECOV_OUT"      # the directory a traced process writes to
SRC_VAR = "LINECOV_SRC"      # the src/ directory whose frames it traces
TOOL_VAR = "LINECOV_TOOL"    # this file, for the usercustomize hook

#: code objects folded into the function that holds them
FOLDED = ("<lambda>", "<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")

#: a function-like code object, as opposed to a module or class body
_CO_NEWLOCALS = 0x2

HOOK = """\
import os
if os.environ.get({out!r}):
    import importlib.util
    _spec = importlib.util.spec_from_file_location(
        "_linecov", os.environ[{tool!r}])
    _module = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
    _module.install()
""".format(out=OUT_VAR, tool=TOOL_VAR)


def install() -> None:
    """Trace every frame of ``$LINECOV_SRC`` in this process and its
    forks; write the hits to ``$LINECOV_OUT`` at exit."""
    out, src = os.environ[OUT_VAR], os.environ[SRC_VAR]
    hits = {}       # (filename, first line, name) -> lines reached
    tracers = {}    # code -> its local tracer, or None outside src

    def tracer_for(code):
        if not code.co_filename.startswith(src):
            return None
        add = hits.setdefault((code.co_filename, code.co_firstlineno,
                               code.co_name), set()).add

        def local(frame, event, arg):
            add(frame.f_lineno)
            return local
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        try:
            return tracers[code]
        except KeyError:
            local = tracers[code] = tracer_for(code)
            return local

    def dump():
        sys.settrace(None)
        rows = [[*key, sorted(n for n in lines if n is not None)]
                for key, lines in hits.items()]
        path = os.path.join(out, f"{os.getpid()}-{os.urandom(4).hex()}.json")
        with open(path, "w") as handle:
            json.dump(rows, handle)

    def collect_and_dump():
        gc.collect()    # finalize cyclic garbage while traced (see above)
        dump()

    real_exit = os._exit

    def exit_after_dump(status):
        dump()
        real_exit(status)

    os._exit = exit_after_dump
    atexit.register(collect_and_dump)
    threading.settrace(trace)
    sys.settrace(trace)


# -- the tree's functions ------------------------------------------------------
def _code_lines(code) -> set:
    return {line for _, line in dis.findlinestarts(code) if line is not None}


def functions(root) -> tuple:
    """Every ``src/`` function of the tree at ``root``: ``(body lines by
    function key, (function key, own) by code key)``.  A function key is
    ``path::qualname``; a code key is ``(path, first line, name)``, one
    per code object folded into the function, its own included (``own``
    true).  The qualname is built from the names of the enclosing class
    bodies (``co_qualname`` is 3.11+)."""
    root = Path(root)
    lines, owners = {}, {}

    def visit(code, rel, prefix, owner):
        for const in code.co_consts:
            if not hasattr(const, "co_code"):
                continue
            qualname = prefix + const.co_name
            own = False
            if owner is not None:
                here = owner
                lines[here].update(_code_lines(const))
            elif (const.co_flags & _CO_NEWLOCALS
                  and const.co_name not in FOLDED):
                here, own = f"{rel}::{qualname}", True
                lines.setdefault(here, set()).update(
                    _code_lines(const) - {const.co_firstlineno})
            else:       # a class body, or a lambda at module level
                here = None
            if here is not None:
                owners[(rel, const.co_firstlineno, const.co_name)] = \
                    (here, own)
            visit(const, rel, qualname + ".", here)

    for path in sorted((root / "src").rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        visit(compile(path.read_text(encoding="utf-8"), rel, "exec"),
              rel, "", None)
    return lines, owners


# -- running ---------------------------------------------------------------------
#: the tier-1 tests that read the committed ``BENCH_coverage.json``, the
#: file this run rewrites: after a def is added or deleted they fail
#: until it is rewritten, so the tier-1 group leaves them out (tier-1
#: proper still runs them, against the file this tool wrote)
READS_REPORT = ("test_every_src_function_runs_outside_tier1_or_has_a_row",
                "test_an_exemption_names_a_live_finding_and_a_reason")


def commands(root) -> dict:
    """group -> the commands it runs, each ``(argv, extra env)``."""
    root = Path(root)
    python = sys.executable
    benches = [str(p.relative_to(root)) for p in
               sorted((root / "benchmarks").glob("test_*.py"))
               if p.name not in ("test_counts.py", "test_wallclock.py")]
    return {
        "examples": [([python, str(p.relative_to(root))], {}) for p in
                     sorted((root / "examples").glob("*.py"))],
        "benchmarks": [([python, "-m", "pytest", "-q", "-p",
                         "no:cacheprovider", "--benchmark-disable",
                         *benches], {"REPRO_BENCH_SCALE": "0.25"})],
        "perfbench": [([python, "perfbench/run.py", "--seed", "1",
                        "--quick", "--out", "perfbench/results/quick.json"],
                       {})],
        "cli": [([python, "-m", "repro.bench", "list"], {}),
                ([python, "-m", "repro.bench", "compare", "--workload",
                  "TC", "--nodes", "2", "--systems", "pulse,rpc,cache"], {}),
                ([python, "-m", "repro.bench", "cell", "--system", "pulse",
                  "--workload", "TSV-7.5s", "--nodes", "2"], {}),
                ([python, "-m", "repro.bench.report",
                  "benchmarks/results"], {})],
        "tier-1": [([python, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                     *(f"--deselect=tests/test_surface.py::{name}"
                       for name in READS_REPORT)], {})],
    }


#: the exit status a group may end with besides 0: pytest's "a test
#: failed", since some bench asserts fail at scale 0.25 (and at the
#: parent alike) and their lines count all the same.  Any other non-zero
#: exit stops the run before it writes a report.
MAY_FAIL = {"benchmarks": 1}

#: what is not copied into a group's tree
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".benchmarks")


def _run_group(root, scratch, group, argvs, env) -> tuple:
    """Run one group's commands traced, in its own copy of ``root``
    under ``scratch`` (the benches rewrite ``benchmarks/results/`` and
    the root ``BENCH_*.json`` that the CLIs and tier-1 read); return
    (hits by ``(path, first line, name)``, wall s, failures)."""
    copy, out = scratch / group / "tree", scratch / group / "hits"
    shutil.copytree(root, copy, ignore=IGNORED)
    out.mkdir()
    env = dict(env, **{SRC_VAR: str(copy / "src") + os.sep,
                       OUT_VAR: str(out), "PYTHONPATH": str(copy / "src")})
    started, failures = time.monotonic(), []
    for argv, extra in argvs:
        done = subprocess.run(argv, cwd=copy, env=dict(env, **extra),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode not in (0, MAY_FAIL.get(group, 0)):
            tail = "\n    ".join(done.stdout.splitlines()[-20:])
            failures.append(f"{group}: {' '.join(argv[1:])} -> "
                            f"{done.returncode}\n    {tail}")
    wall = time.monotonic() - started
    hits = {}
    for name in os.listdir(out):
        with open(out / name) as handle:
            for filename, first, code_name, lines in json.load(handle):
                rel = Path(filename).relative_to(copy).as_posix()
                hits.setdefault((rel, first, code_name), set()).update(lines)
    return hits, wall, failures


#: the groups whose runs are production; the rest is tier-1
PRODUCTION = ("examples", "benchmarks", "perfbench", "cli")


def measure(root, groups=None) -> dict:
    """Trace ``groups`` (by default :func:`commands`), each on its own
    copy of ``root``; the report.  Raises ``RuntimeError`` when a
    command exits non-zero beyond :data:`MAY_FAIL`."""
    root = Path(root).resolve()
    scratch = Path(tempfile.mkdtemp(prefix="linecov-")).resolve()
    site = scratch / "userbase" / "lib" / \
        f"python{sys.version_info[0]}.{sys.version_info[1]}" / "site-packages"
    site.mkdir(parents=True)
    (site / "usercustomize.py").write_text(HOOK)
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("PULSE_", "LINECOV_", "REPRO_"))}
    env.update({"PYTHONUSERBASE": str(scratch / "userbase"),
                TOOL_VAR: str(Path(__file__).resolve())})
    env.pop("PYTHONNOUSERSITE", None)
    groups = commands(root) if groups is None else groups
    tree, owners = functions(root)
    try:
        with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
            runs = dict(zip(groups, pool.map(
                lambda group: _run_group(root, scratch, group,
                                         groups[group], env),
                groups)))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for group, (_, wall, _) in runs.items():
        print(f"linecov: {group}: {wall:.0f} s", file=sys.stderr)
    failures = [f for _, _, group_failures in runs.values()
                for f in group_failures]
    if failures:
        raise RuntimeError("linecov: a command failed:\n"
                           + "\n".join(failures))

    def reached(names):
        by_function, entered = {}, set()
        for group in set(names) & set(runs):
            for code, lines in runs[group][0].items():
                key, own = owners.get(code, (None, False))
                if key is None:
                    continue
                by_function.setdefault(key, set()).update(lines)
                if own:
                    entered.add(key)
        return by_function, entered

    production, prod_entered = reached(PRODUCTION)
    tier1, tier1_entered = reached(set(runs) - set(PRODUCTION))
    rows = {}
    for key, lines in sorted(tree.items()):
        prod = lines & production.get(key, set())
        only = (lines & tier1.get(key, set())) - prod
        rows[key] = {
            "entered": ("production" if key in prod_entered else
                        "tier-1" if key in tier1_entered else "none"),
            "production": sorted(prod), "tier1_only": sorted(only),
            "neither": sorted(lines - prod - only)}
    return {"commands": {
                group: [" ".join([*(f"{k}={v}" for k, v in extra.items()),
                                  *argv[1:]]) for argv, extra in argvs]
                for group, argvs in groups.items()},
            "totals": totals(rows), "functions": rows}


def totals(rows: dict) -> dict:
    def count(column):
        return sum(len(row[column]) for row in rows.values())
    unentered = [row for row in rows.values() if row["entered"] != "production"]
    return {
        "functions": len(rows),
        "lines": sum(count(c) for c in ("production", "tier1_only", "neither")),
        "production": count("production"),
        "tier1_only": count("tier1_only"),
        "neither": count("neither"),
        "never_entered_by_production": {
            "functions": len(unentered),
            "lines": sum(len(row["tier1_only"]) + len(row["neither"])
                         for row in unentered),
            "entered_by_tier1": sum(row["entered"] == "tier-1"
                                    for row in unentered)},
    }


def render(report: dict) -> str:
    """JSON with one function per line, so a regeneration diffs by row."""
    head = {key: value for key, value in report.items() if key != "functions"}
    body = ",\n".join(f"  {json.dumps(key)}: {json.dumps(row)}"
                      for key, row in report["functions"].items())
    text = json.dumps(head, indent=1)
    return text[:-2] + ',\n "functions": {\n' + body + "\n }\n}\n"


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    report = measure(root)
    (root / "BENCH_coverage.json").write_text(render(report))
    print(json.dumps(report["totals"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
