"""The package surface stays lean: every export resolves, and no public code is test-only.

The second check scans ``src/kuroda`` with ``ast``: each public top-level
function or class must be referenced somewhere other than its own
definition and ``kuroda/__init__``.  A reference is an identifier (a name or
an attribute) in ``src/kuroda``, ``demos/`` or ``perfbench/*.py``, or a
string constant equal to the name in ``perfbench/*.py``, which rebinds
kuroda's functions by name to time them.  ``tests/`` does not count: code
that only the tests reach belongs in ``tests/reference.py``.

The third check does the same for parameters: each defaulted parameter of a
public top-level function or of a public method of a public class must be
set by some call in those files, by keyword, by position, or through
``*args`` or ``**kwargs``.  A call matches by the name it calls (a name or
an attribute).  A parameter that only the tests set is a knob nobody turns;
it becomes a constant.

The last check reads the benchmark's coupling to ``src`` names with ``ast``,
without importing ``perfbench``: each ``spans.TARGETS`` entry and each
``from kuroda... import`` in ``perfbench/*.py`` must resolve.
"""

import ast
from pathlib import Path

import kuroda

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kuroda"

# Public names kept without another reference, each with its reason.
ALLOWED_UNREFERENCED = {
    "ring_generator_census": "the ring census has no subcommand yet "
    "(the ROADMAP item `kuroda ringgens`)",
}

# Defaulted parameters kept without a call that sets them, each with its reason.
ALLOWED_UNSET_DEFAULTS = {
    "regions.in_s(tolerance)": "the per-point form of sandwich --tolerance, which "
    "sandwich_check applies to its whole batch",
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


def _sources() -> list[Path]:
    sources = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    return sources + sorted((ROOT / "demos").glob("*.py"))


def _references() -> set[str]:
    refs = set()
    perfbench = sorted((ROOT / "perfbench").glob("*.py"))
    for path in _sources() + perfbench:
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


def _defaulted_parameters() -> dict[str, tuple[str, str, int | None]]:
    """``"module.qualname(param)"`` -> (called name, param, position in a call or None).

    The position counts the arguments a call passes, so a method's ``self``
    or ``cls`` is not counted; a keyword-only parameter has none.
    """
    found = {}

    def scan(fn: ast.FunctionDef, qualname: str, skip: int) -> None:
        positional = fn.args.posonlyargs + fn.args.args
        first_default = len(positional) - len(fn.args.defaults)
        for index, arg in enumerate(positional[first_default:], first_default):
            found[f"{qualname}({arg.arg})"] = (fn.name, arg.arg, index - skip)
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                found[f"{qualname}({arg.arg})"] = (fn.name, arg.arg, None)

    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                scan(node, f"{module}.{node.name}", 0)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                        static = any(
                            isinstance(d, ast.Name) and d.id == "staticmethod"
                            for d in method.decorator_list
                        )
                        scan(method, f"{module}.{node.name}.{method.name}", 0 if static else 1)
    return found


def _calls() -> dict[str, list[ast.Call]]:
    calls: dict[str, list[ast.Call]] = {}
    for path in _sources() + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _sets(call: ast.Call, param: str, position: int | None) -> bool:
    if any(kw.arg in (param, None) for kw in call.keywords):  # by keyword or **kwargs
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):  # through *args
        return True
    return position is not None and len(call.args) > position


def test_defaulted_parameters_are_set_outside_tests():
    calls = _calls()
    unset = sorted(
        key for key, (name, param, position) in _defaulted_parameters().items()
        if not any(_sets(call, param, position) for call in calls.get(name, ()))
    )
    assert unset == sorted(ALLOWED_UNSET_DEFAULTS), unset


def _span_targets() -> list[tuple[str, str]]:
    """(module, attribute) of each entry of ``perfbench/spans.py``'s ``TARGETS``, read with ``ast``."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("perfbench/spans.py has no TARGETS")


def _perfbench_imports() -> list[tuple[str, str]]:
    """(module, name) of each ``from kuroda... import name`` in ``perfbench/*.py``, at any depth."""
    found = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kuroda":
                found += [(node.module, alias.name) for alias in node.names]
    return found


def test_benchmark_names_resolve():
    """Every ``src`` name the benchmark rebinds, wraps or imports exists.

    The traced benchmark run rebinds these names from outside the program,
    and a renamed one fails only there, with an ``AttributeError``.
    """
    import importlib

    import numpy as np

    from kuroda.cli import build_parser
    from kuroda.config import KurodaConfig, RegionKind
    from kuroda.regions import RegionSpec, _StarSampler

    targets, imports = _span_targets(), _perfbench_imports()
    assert targets and imports
    missing = [
        f"{module}.{name}" for module, name in targets + imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, missing
    assert callable(build_parser) and callable(_StarSampler.batch)
    config = KurodaConfig.from_signed([[-1, 3, 3, 0], [3, -1, 3, 0], [3, 3, -1, 0]], 1)
    sampler = _StarSampler(
        config, RegionSpec(RegionKind.S_PRIME4), 50.0, np.random.default_rng(1)
    )
    for stratum in ("box", "core", "ray"):
        assert set(sampler.stats[stratum]) == {"candidates", "accepted"}, stratum
