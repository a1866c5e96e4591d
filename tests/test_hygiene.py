"""Static checks over the package sources (stdlib ``ast`` only)."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "obsdecipher"
SOURCES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Module-level name bound by each import -> line number."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations such as "OrderedDict[str, EmbeddingVector]"
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


@pytest.mark.parametrize(
    "path", SOURCES + TESTS, ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}"
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree) | _exported(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _imported_names(tree).items()
        if name not in used
    )
    assert not unused, f"{path.name}: unused imports {unused}"


def test_checker_sees_string_annotations():
    tree = ast.parse(
        "from typing import Dict\nfrom x import Vec\nfrom y import Gone\n"
        "table: 'Dict[str, Vec]' = {}\n"
    )
    used = _used_names(tree)
    assert {"Dict", "Vec"} <= used
    assert "Gone" not in used


def _references(tree: ast.Module) -> set[str]:
    """Names read, attributes accessed and names imported anywhere in ``tree``."""
    refs: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rsplit(".", 1)[-1])
    return refs


def _definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level function, class and constant names, and the methods,
    properties and classmethods of module-level classes -> line number.

    A method is keyed ``Class.method`` and counts as used when any attribute
    of that name is read. Dunder names and click commands (registered by
    their decorator, never called by name) are left out.
    """
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not any(".command(" in ast.unparse(d) for d in node.decorator_list):
                defined[node.name] = node.lineno
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not _is_dunder(member.name):
                        defined[f"{node.name}.{member.name}"] = member.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    return {n: line for n, line in defined.items() if not _is_dunder(n)}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _dead(defined: dict[str, int], referenced: set[str]) -> dict[str, int]:
    """The definitions whose own name (a method's, for ``Class.method``)
    nothing references."""
    return {n: line for n, line in defined.items() if n.rsplit(".", 1)[-1] not in referenced}


def test_no_dead_definitions():
    """Only the package and the benchmark count as users: a definition that
    nothing but the tests reaches belongs in the tests, or nowhere."""
    users = [
        ast.parse(path.read_text(encoding="utf-8"))
        for folder in ("src", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    referenced = set().union(*map(_references, users))
    dead = sorted(
        f"{path.name}: {name} (line {line})"
        for path in SOURCES
        for name, line in _dead(
            _definitions(ast.parse(path.read_text(encoding="utf-8"))), referenced
        ).items()
    )
    assert not dead, f"defined but never referenced from src/ or perfbench/: {dead}"


def test_dead_definition_checker_ignores_the_definition_itself():
    tree = ast.parse(
        "import click\nLIMIT = 3\nUSED = LIMIT\n"
        "def helper():\n    return 1\n"
        "@main.command()\ndef cmd():\n    pass\n"
        "class Gone:\n    pass\n__all__ = []\n"
        "class Kept:\n"
        "    def __len__(self):\n        return 0\n"
        "    def read(self):\n        return self.size\n"
        "    @property\n    def size(self):\n        return 1\n"
        "    @classmethod\n    def build(cls):\n        return cls()\n"
        "Kept().read()\n"
    )
    dead = set(_dead(_definitions(tree), _references(tree)))
    assert dead == {"USED", "helper", "Gone", "Kept.build"}


def _foreign_private_reads(tree: ast.Module) -> list[str]:
    """``x._name`` where ``x`` is not ``self`` or ``cls``, with line numbers."""
    return [
        f"{ast.unparse(node)} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not _is_dunder(node.attr)
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]


def test_no_reads_of_another_objects_private_attributes():
    """Each piece of state has one owner: a module reads another object's
    state through its public attributes."""
    found = sorted(
        f"{path.name}: {read}"
        for path in SOURCES
        for read in _foreign_private_reads(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert not found, f"private attributes read from outside their object: {found}"


def test_private_read_checker_exempts_only_self_and_cls():
    tree = ast.parse("self._a\ncls._b\nmodel._c\nx.__len__\nx.public\nf()._d\n")
    assert _foreign_private_reads(tree) == ["model._c (line 3)", "f()._d (line 6)"]


SETTABLE_VALUES_CAP = 114


def _settable_values(tree: ast.Module) -> tuple[int, int, int]:
    """Click options, defaulted parameters (keyword-only ones included) and
    dataclass fields with a default."""
    options = params = fields = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "click.option":
            options += 1
        elif isinstance(node, ast.arguments):
            params += len(node.defaults) + sum(d is not None for d in node.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
            "dataclass" in ast.unparse(d) for d in node.decorator_list
        ):
            fields += sum(isinstance(m, ast.AnnAssign) and m.value is not None for m in node.body)
    return options, params, fields


def test_settable_values_do_not_grow():
    """Every option, defaulted parameter and defaulted dataclass field is a
    value a caller can set; the package may hold no more than it does now."""
    counts = [_settable_values(ast.parse(path.read_text(encoding="utf-8"))) for path in SOURCES]
    options, params, fields = (sum(column) for column in zip(*counts))
    total = options + params + fields
    assert total <= SETTABLE_VALUES_CAP, (
        f"{total} settable values ({options} click options, {params} defaulted parameters,"
        f" {fields} defaulted dataclass fields), more than {SETTABLE_VALUES_CAP}"
    )


def test_settable_value_counter_counts_each_kind():
    tree = ast.parse(
        "@click.option('--a', default=1)\n@click.option('--b', is_flag=True)\n"
        "def cmd(a, b):\n    pass\n"
        "def f(x, y=1, *, z=2, w):\n    return lambda q=3: q\n"
        "@dataclass(frozen=True)\nclass C:\n    p: int\n    q: int = 0\n"
        "    r: list = field(default_factory=list)\n"
        "class Plain:\n    s: int = 0\n"
    )
    assert _settable_values(tree) == (2, 3, 2)


def _third_party_imports(tree: ast.Module) -> set[str]:
    """The top-level names of the modules ``tree`` imports, leaving out the
    standard library, relative imports and the package itself."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "obsdecipher"}


def _declared_dependencies(pyproject: str) -> set[str]:
    """The distribution names in ``[project].dependencies``, read without
    ``tomllib``, which Python 3.10 lacks."""
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", pyproject, re.M | re.S).group(1)
    listed = re.search(r"^dependencies = \[(.*?)\]", project, re.M | re.S).group(1)
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in re.findall(r'"([^"]+)"', listed)}


def test_declared_dependencies_are_the_imported_ones():
    """A package the sources import is declared, and a declared one is
    imported: an undeclared import fails on a clean install, and a declared
    package nothing imports is installed for nothing."""
    imported = set().union(
        *(_third_party_imports(ast.parse(path.read_text(encoding="utf-8"))) for path in SOURCES))
    declared = _declared_dependencies((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert imported == declared


def test_dependency_readers_see_each_kind():
    tree = ast.parse(
        "import os, numpy.linalg\nfrom scipy import optimize\nfrom . import records\n"
        "from obsdecipher.x import y\nfrom __future__ import annotations\n"
        "def f():\n    import http.client\n    import click\n"
    )
    assert _third_party_imports(tree) == {"numpy", "scipy", "click"}
    pyproject = (
        '[build-system]\nrequires = ["setuptools>=68"]\n\n[project]\nname = "x"\n'
        'dependencies = [\n    "numpy>=1.24",\n    "click",\n]\n\n'
        '[project.optional-dependencies]\ntest = [\n    "pytest>=7",\n]\n'
    )
    assert _declared_dependencies(pyproject) == {"numpy", "click"}
