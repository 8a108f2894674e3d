"""Every name src/repro defines is used by code that ships.

Each module under src/repro is parsed for its top-level functions,
classes and module constants and the non-dunder methods of its
top-level classes. Every such name must be read somewhere under
``src/``, ``benchmarks/``, ``examples/`` or ``perfbench/`` (but not
``perfbench/tests/``): as a loaded name, an attribute, an import outside
an ``__init__`` module, or an identifier inside a string that is not a
docstring (perfbench names the callables it wraps in dotted strings).
A docstring mention, an ``__all__`` entry, an ``__init__`` re-export or
an assignment target is not a use, and tests are not callers: a name
only its own tests run is dead code.

``ALLOWED`` keeps the few names that are called from outside the
scanned code; an entry the scan no longer reports is stale and fails.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench")
NOT_CALLERS = ROOT / "perfbench" / "tests"

ALLOWED = {
    "_Handler.do_GET": "http.server dispatches GET requests to it by name",
    "_Handler.log_message": "http.server calls it; the override sends the "
                            "request log to logger.debug",
    "ZipfSampler.access_fraction_of_top": "the analytic CDF the sampler's "
                                          "tests compare draws against",
    "render_result_delta": "writes the failure text of the bit-equivalence "
                           "tests (fleet sweep, probe fan-out, telemetry, "
                           "vectorized precise)",
    "JsonlTracer": "docs/OBSERVABILITY.md shows users recording with it",
    "read_jsonl_events": "docs/OBSERVABILITY.md shows users reading a "
                         "JSONL trace with it",
    "residency_from_events": "docs/OBSERVABILITY.md shows users rebuilding "
                             "residency from a trace with it",
    "validate_chrome_trace": "docs/OBSERVABILITY.md shows users checking an "
                             "export with it; two CI trace steps call it",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _assigned(node: ast.AST) -> list[str]:
    """Names an assignment statement binds; empty for anything else."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return []
    return [target.id for target in targets if isinstance(target, ast.Name)]


def definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of each def ``source`` makes that callers could use.

    Methods are named ``Class.method``; everything else by its own name.
    """
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.ClassDef):
            found.append((node.lineno, node.name))
            found.extend(
                (item.lineno, f"{node.name}.{item.name}")
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not _is_dunder(item.name))
        else:
            found.extend((node.lineno, name) for name in _assigned(node)
                         if not _is_dunder(name))
    return found


def references(source: str, is_init: bool = False) -> set[str]:
    """Every name ``source`` reads: loaded names, attributes, names a
    ``from`` import binds (unless ``is_init``) and identifiers in strings
    that are not docstrings or ``__all__`` entries."""
    tree = ast.parse(source)
    skipped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            skipped.add(id(node.value))  # docstrings and bare strings
        elif "__all__" in _assigned(node):
            skipped.update(id(item) for item in ast.walk(node))
    used: set[str] = set()
    for node in ast.walk(tree):
        loaded = isinstance(getattr(node, "ctx", None), ast.Load)
        if isinstance(node, ast.Name) and loaded:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and loaded:
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not is_init:
            used.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skipped):
            used.update(_IDENTIFIER.findall(node.value))
    return used


def unreferenced(modules: dict[str, str],
                 callers: dict[str, str]) -> list[str]:
    """``path:line: name`` of each def in ``modules`` no caller reads.

    Both map a path to its source; a caller path ending in
    ``__init__.py`` re-exports rather than uses. A method counts as
    used when its own name is read.
    """
    used: set[str] = set()
    for path, source in callers.items():
        used |= references(source, is_init=path.endswith("__init__.py"))
    return [f"{path}:{line}: {name}"
            for path, source in sorted(modules.items())
            for line, name in definitions(source)
            if name.rpartition(".")[2] not in used]


def problems(found: list[str], allowed: dict[str, str]) -> list[str]:
    """Unallowed entries of ``found``, then stale entries of ``allowed``."""
    names = {entry.rpartition(": ")[2] for entry in found}
    return ([entry for entry in found
             if entry.rpartition(": ")[2] not in allowed]
            + [f"stale allowlist entry: {name}"
               for name in sorted(allowed) if name not in names])


def _sources(*roots: Path) -> dict[str, str]:
    return {path.relative_to(ROOT).as_posix(): path.read_text("utf-8")
            for root in roots
            for path in sorted(root.rglob("*.py"))
            if NOT_CALLERS not in path.parents}


def test_scanner_sees_uses_and_ignores_non_uses():
    module = (
        '"""Mentions dead_doc and DEAD_CONST in its docstring."""\n'
        "LIVE_CONST = 1\n"
        "DEAD_CONST = 2\n"
        "def live_local():\n"
        "    return LIVE_CONST\n"
        "def dead_doc():\n"
        "    '''dead_doc is only named here.'''\n"
        "    return live_local()\n"
        "def dead_reexported(): pass\n"
        "def dead_assigned(): pass\n"
        "class FluidChip:\n"
        "    def observe(self): pass\n"
        "    def dead_method(self): pass\n"
        "    def __repr__(self): return ''\n"
        "__all__ = ['dead_doc', 'dead_reexported']\n"
    )
    init = "from repro.mod import dead_reexported, dead_assigned\n"
    caller = (
        "from repro import mod\n"
        "dead_assigned = None\n"
        "WRAPPED = ('FluidChip.observe',)\n"
    )
    found = unreferenced(
        {"src/repro/mod.py": module},
        {"src/repro/mod.py": module, "src/repro/__init__.py": init,
         "perfbench/layers.py": caller})
    assert found == [
        "src/repro/mod.py:3: DEAD_CONST",
        "src/repro/mod.py:6: dead_doc",
        "src/repro/mod.py:9: dead_reexported",
        "src/repro/mod.py:10: dead_assigned",
        "src/repro/mod.py:13: FluidChip.dead_method",
    ]
    assert problems(found, {"FluidChip.dead_method": "kept",
                            "gone": "stale"}) == found[:4] + [
        "stale allowlist entry: gone"]


def test_every_def_under_src_has_a_caller():
    found = unreferenced(_sources(SRC),
                         _sources(*(ROOT / name for name in CALLER_DIRS)))
    bad = problems(found, ALLOWED)
    assert bad == [], ("defs nothing outside tests uses (delete them, or "
                       "allowlist them with a reason):\n" + "\n".join(bad))
