"""Import conformance: the packages of ``repro`` import one way.

Every module of ``repro`` is parsed with :mod:`ast`, and every import
statement counts — module level *and* inside functions, since a lazy
import only hides a cycle from the interpreter, not from the design.
``from pkg import mod`` counts as importing both ``pkg`` (its
``__init__`` runs) and ``pkg.mod``.

Two properties are checked:

* the module graph is acyclic;
* each package imports only from the packages below it in
  :data:`LAYERS` — ``eventloop`` < ``core`` < {``gui``, ``capture``,
  ``obs``} < ``query`` < ``net`` < the top level (``repro`` and
  ``repro.__main__``) — and the paper's application packages
  (:data:`APPLICATIONS`) import only ``eventloop`` and ``core``.
"""

import ast
from pathlib import Path
from typing import Dict, List, Optional, Set

import repro

ROOT = "repro"
SRC_DIR = Path(repro.__file__).parent

#: Bottom to top; a package may import its own layer's package and any
#: package of a lower layer.  Packages sharing a layer are peers and
#: must not import each other.
LAYERS = (
    ("eventloop",),
    ("core",),
    ("gui", "capture", "obs"),
    ("query",),
    ("net",),
    (ROOT,),
)

#: The demo applications the paper scopes: they sit on the library
#: (loop and scopes) and nothing else.
APPLICATIONS = ("tcpsim", "workload", "media", "sched", "control")


def module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC_DIR.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def package_of(module: str) -> str:
    """``repro.<pkg>.*`` → ``<pkg>``; ``repro`` and ``repro.__main__`` → ``repro``."""
    parts = module.split(".")
    if len(parts) == 1 or parts[1] == "__main__":
        return ROOT
    return parts[1]


def imported_modules(
    source: str, modules: Set[str], importer: str = "", is_package: bool = False
) -> Set[str]:
    """The members of ``modules`` that ``source`` imports anywhere."""
    found: Set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            candidates = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                package = importer if is_package else importer.rpartition(".")[0]
                base = package.rsplit(".", node.level - 1)[0]
                if node.module:
                    base = f"{base}.{node.module}"
            else:
                base = node.module or ""
            candidates = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(name for name in candidates if name in modules)
    return found


def import_graph() -> Dict[str, Set[str]]:
    paths = sorted(SRC_DIR.rglob("*.py"))
    modules = {module_name(path) for path in paths}
    graph: Dict[str, Set[str]] = {}
    for path in paths:
        name = module_name(path)
        imported = imported_modules(
            path.read_text(), modules, name, path.name == "__init__.py"
        )
        graph[name] = imported - {name}
    return graph


def package_graph(graph: Dict[str, Set[str]]) -> Dict[str, Set[str]]:
    packages: Dict[str, Set[str]] = {}
    for module, imported in graph.items():
        mine = package_of(module)
        packages.setdefault(mine, set()).update(
            package_of(other) for other in imported
        )
        packages[mine].discard(mine)
    return packages


def allowed_imports(package: str) -> Set[str]:
    """The packages ``package`` may import (its own not included)."""
    if package in APPLICATIONS:
        return {"eventloop", "core"}
    below: Set[str] = set()
    for layer in LAYERS:
        if package in layer:
            return below | set(APPLICATIONS) if package == ROOT else below
        below.update(layer)
    raise AssertionError(f"package {package!r} is in no layer; add it to LAYERS")


def find_cycle(graph: Dict[str, Set[str]]) -> Optional[List[str]]:
    """One import cycle as a closed path, or None when acyclic."""
    done: Set[str] = set()
    path: List[str] = []

    def visit(node: str) -> Optional[List[str]]:
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        path.append(node)
        for child in sorted(graph.get(node, ())):
            cycle = visit(child)
            if cycle:
                return cycle
        path.pop()
        done.add(node)
        return None

    for node in sorted(graph):
        cycle = visit(node)
        if cycle:
            return cycle
    return None


def test_function_level_imports_count():
    source = (
        "from repro.net.shard import HashRing\n"
        "def later():\n"
        "    from repro.net.worker import WorkerHandle\n"
        "    import repro.net.protocol\n"
    )
    modules = {"repro.net.shard", "repro.net.worker", "repro.net.protocol"}
    assert imported_modules(source, modules) == modules


def test_relative_and_package_imports_resolve():
    modules = {"repro.core", "repro.core.native", "repro.query.kernels"}
    source = "from repro.core import native\nfrom . import kernels\n"
    found = imported_modules(source, modules, "repro.query.ops")
    assert found == {"repro.core", "repro.core.native", "repro.query.kernels"}


def test_cycle_finder_reports_a_hidden_cycle():
    graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}
    assert find_cycle(graph) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) is None


def test_module_graph_is_acyclic():
    graph = import_graph()
    assert "repro.net.worker" in graph["repro.net.router"]
    cycle = find_cycle(graph)
    assert cycle is None, " -> ".join(cycle)


def test_package_graph_is_acyclic():
    cycle = find_cycle(package_graph(import_graph()))
    assert cycle is None, " -> ".join(cycle)


def test_packages_import_only_lower_layers():
    graph = import_graph()
    violations = sorted(
        f"{module} -> {other}"
        for module, imported in graph.items()
        for other in imported
        if package_of(other) != package_of(module)
        and package_of(other) not in allowed_imports(package_of(module))
    )
    assert not violations, "\n".join(violations)


def test_every_package_has_a_layer():
    for package in package_graph(import_graph()):
        allowed_imports(package)
