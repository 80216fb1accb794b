"""The package surface stays lean: every export resolves, and no public code is test-only.

The second check scans ``src/kuroda`` with ``ast``: each public top-level
function or class must be referenced somewhere other than its own
definition and ``kuroda/__init__``.  A reference is an identifier (a name or
an attribute) in ``src/kuroda``, ``demos/`` or ``perfbench/*.py``, or a
string constant equal to the name in ``perfbench/*.py``, which rebinds
kuroda's functions by name to time them.  ``tests/`` does not count: code
that only the tests reach belongs in ``tests/reference.py``.
"""

import ast
from pathlib import Path

import kuroda

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kuroda"

# Public names kept without another reference, each with its reason.
ALLOWED_UNREFERENCED = {
    "ring_generator_census": "the ring census has no subcommand yet (ROADMAP item 1)",
}


def test_every_export_resolves():
    for name in kuroda.__all__:
        assert getattr(kuroda, name) is not None, name
    assert len(set(kuroda.__all__)) == len(kuroda.__all__)


def _identifiers(node) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _strings(node) -> set[str]:
    return {
        sub.value for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
    }


def _public_definitions() -> dict[str, str]:
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = path.name
    return defined


def _references() -> set[str]:
    refs = set()
    sources = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "demos").glob("*.py"))
    perfbench = sorted((ROOT / "perfbench").glob("*.py"))
    for path in sources + perfbench:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            names = _identifiers(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)  # a definition does not reference itself
            refs |= names
            if path in perfbench:
                refs |= _strings(node)
    return refs


def test_public_code_is_referenced_outside_tests():
    defined = _public_definitions()
    refs = _references()
    unreferenced = sorted(
        f"{module}:{name}" for name, module in defined.items()
        if name not in refs and name not in ALLOWED_UNREFERENCED
    )
    assert not unreferenced, unreferenced
    # an allow-list entry that is referenced after all, or no longer defined, is stale
    stale = [name for name in ALLOWED_UNREFERENCED if name in refs or name not in defined]
    assert not stale, stale
