"""Source hygiene: every name a package module imports is used in it, every
module-level private function or class is read somewhere in it, every
module-level public function or class is named somewhere in the package,
its tests or the benchmark, and importing the package loads no SciPy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "mpodyn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
CORPUS = sorted(p for root in ("src", "tests", "perfbench") for p in (REPO / root).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no other expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def unused_private_helpers(source: str) -> list[str]:
    """Module-level ``_name`` functions and classes that the module never reads."""
    tree = ast.parse(source)
    defined = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in defined if name not in read]


def names_read(source: str) -> set[str]:
    """Names, attributes and whole-string constants (``getattr`` lookups) a source reads.

    Import statements do not count: a re-export alone is not a use.
    """
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def unnamed_public_definitions(source: str, read: set[str]) -> list[str]:
    """Module-level public functions and classes that no name in ``read`` matches."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read
    ]


def test_detects_unused_import():
    src = "import itertools\nimport numpy as np\nfrom .x import A, B\nprint(np.pi, A)\n"
    assert unused_imports(src) == ["itertools", "B"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str) -> set[str]:
    """Modules a source imports from, relative ones as their bare name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:
                found |= {a.name for a in node.names}
            else:
                found.add(node.module)
    return found


def test_detects_imported_modules():
    src = "import numpy as np\nfrom .models import BondGate\nfrom . import operator_space\n"
    assert imported_modules(src) == {"numpy", "models", "operator_space"}


def test_gate_kernel_knows_no_conservation_mode():
    # one kernel for every mode: mps_core must not see how modes label sites
    imports = imported_modules((SRC / "mps_core.py").read_text())
    assert not {"models", "operator_space", "mpodyn.models", "mpodyn.operator_space"} & imports


def method_names(source: str, cls: str, method: str) -> set[str]:
    """What :func:`names_read` finds in the body of method ``cls.method`` of a source."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == method:
                    return names_read(ast.unparse(item))
    raise LookupError(f"no method {cls}.{method}")


def test_detects_names_in_method():
    src = (
        "class A:\n"
        "    def f(self, t):\n        return scale_axis(t.blocks, inverse=True)\n"
        "    def g(self):\n        return _cut\n"
    )
    assert {"scale_axis", "blocks", "t"} <= method_names(src, "A", "f")
    assert "_cut" not in method_names(src, "A", "f")
    with pytest.raises(LookupError):
        method_names(src, "A", "h")


def kernel_names(source: str, roots: list[tuple[str, str]]) -> set[str]:
    """What :func:`names_read` finds in methods ``roots`` (class, method) of a source
    and in every module-level function or class they name, transitively."""
    defs = {
        node.name: node
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    names = set().union(*(method_names(source, cls, method) for cls, method in roots))
    seen: set[str] = set()
    while todo := (names & defs.keys()) - seen:
        for name in todo:
            names |= names_read(ast.unparse(defs[name]))
        seen |= todo
    return names


def test_detects_names_in_kernel_helpers():
    src = (
        "class A:\n    def f(self, t):\n        return _plan(t)\n"
        "def _plan(t):\n    return _Layout(t)\n"
        "class _Layout:\n    def __init__(self, t):\n        self.v = t.tensor()\n"
        "def _unrelated():\n    return scale_axis\n"
    )
    names = kernel_names(src, [("A", "f")])
    assert {"_plan", "_Layout", "tensor"} <= names
    assert "scale_axis" not in names


# the kernel, its plan lookup and everything they reach in mps_core: the plan
# builder (``_GatePlan``), ``_factor_site`` and their helpers
KERNEL_ROOTS = [("CanonicalMps", "apply_two_site_gate"), ("CanonicalMps", "_gate_plan")]


def test_gate_kernel_works_on_sector_matrices_only():
    # the per-block path (block tensors, per-block restore, per-block cut) stays out
    # of the kernel: it stacks, cuts and restores whole sector matrices, and never
    # converts between them and block tensors, neither per gate nor in a plan
    names = kernel_names((SRC / "mps_core.py").read_text(), KERNEL_ROOTS)
    assert {"_GatePlan", "_factor_site"} <= names
    assert not {"SymmetricTensor", "scale_axis", "_cut", "from_tensor", "tensor"} & names


def test_detects_unused_private_helper():
    src = (
        "def _used():\n    return 1\n"
        "def _dead():\n    return _used()\n"
        "class _Gone:\n    pass\n"
        "def public():\n    def _inner():\n        pass\n    return _used\n"
    )
    assert unused_private_helpers(src) == ["_dead", "_Gone"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_private_helpers(path):
    assert unused_private_helpers(path.read_text()) == []


def test_detects_unnamed_public_definition():
    src = (
        "def used():\n    return 1\n"
        "def dead():\n    return used()\n"
        "class Gone:\n    pass\n"
        "class Looked:\n    pass\n"
        "def _private():\n    pass\n"
    )
    other = "from pkg import dead, Gone\nimport pkg\npkg.used()\ngetattr(pkg, 'Looked')\n"
    read = names_read(src) | names_read(other)
    assert unnamed_public_definitions(src, read) == ["dead", "Gone"]


@pytest.fixture(scope="module")
def corpus_names() -> set[str]:
    return set().union(*(names_read(p.read_text()) for p in CORPUS))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unnamed_public_definitions(path, corpus_names):
    assert unnamed_public_definitions(path.read_text(), corpus_names) == []


def test_import_loads_no_scipy():
    # SciPy is imported where it is used (fits, the SVD fallback, the dense oracle)
    code = "import sys, mpodyn; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
