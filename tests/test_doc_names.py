"""Every code name the prose cites still exists.

The docs, the README and the verify skill cite code in backticks.  Each
backticked ``repro.…`` dotted name must import (the longest importable
module prefix, then ``getattr`` for the rest), each backticked
``XxxParams.field`` must be a field of that ``repro.params`` dataclass,
and each backticked ``src/…`` path must exist.  A name deleted from the
code then cannot survive in prose.
"""

import dataclasses
import importlib
import re
from pathlib import Path

import pytest

import repro.params

ROOT = Path(__file__).resolve().parent.parent
DOCS = (sorted((ROOT / "docs").glob("*.md"))
        + [ROOT / "README.md", ROOT / ".claude/skills/verify/SKILL.md"])

DOTTED = re.compile(r"(?<![\w/.])repro(?:\.\w+)+")
PARAMS_FIELD = re.compile(r"(?<![\w.])(\w+Params)\.(\w+)")


FENCE = re.compile(r"^\s*```.*?^\s*```", re.M | re.S)


def _spans(path: Path):
    """(line, text) of every fenced block and every inline backtick
    span (which may wrap lines)."""
    text = path.read_text(encoding="utf-8")
    for match in FENCE.finditer(text):
        yield text.count("\n", 0, match.start()) + 1, match.group(0)
    # Blank the fences out (keeping line numbers) so their backticks
    # do not pair with the inline ones.
    text = FENCE.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    for match in re.finditer(r"`([^`]+)`", text):
        yield (text.count("\n", 0, match.start()) + 1,
               re.sub(r"\s*\n\s*", "", match.group(1)))


def _resolves(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _is_params_field(cls_name: str, field: str) -> bool:
    cls = getattr(repro.params, cls_name, None)
    if not dataclasses.is_dataclass(cls):
        return False
    return (field in {f.name for f in dataclasses.fields(cls)}
            or hasattr(cls, field))


def stale_names(path: Path):
    """Every cited name in ``path`` that no longer exists."""
    stale = []
    for line, span in _spans(path):
        for name in DOTTED.findall(span):
            if not _resolves(name):
                stale.append(f"{line}: {name}")
        for cls_name, field in PARAMS_FIELD.findall(span):
            if not _is_params_field(cls_name, field):
                stale.append(f"{line}: {cls_name}.{field}")
        if span.startswith("src/"):
            target = re.split(r"[:\s(]", span)[0]
            if not (ROOT / target).exists():
                stale.append(f"{line}: {target}")
    return stale


@pytest.mark.parametrize("path", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_cited_name_exists(path):
    assert path.exists()
    assert stale_names(path) == []


def test_a_stale_name_is_reported(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("```\nfrom repro.gone import x\n```\n"
                   "`repro.core.cluster.Rack` and\n`repro.core.cluster.Gone`,"
                   " `AcceleratorParams.batch_lanes`,\n`src/repro/gone.py`\n")
    assert stale_names(doc) == [
        "1: repro.gone", "5: repro.core.cluster.Gone",
        "5: AcceleratorParams.batch_lanes", "6: src/repro/gone.py"]
