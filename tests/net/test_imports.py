"""Import conformance: the modules of ``repro.net`` import one way.

Every module of the package is parsed with :mod:`ast`, and every import
statement counts — module level *and* inside functions, since a lazy
import only hides a cycle from the interpreter, not from the design.
The graph of intra-package imports must be acyclic.
"""

import ast
from pathlib import Path
from typing import Dict, List, Optional, Set

import repro.net

PACKAGE = "repro.net"
NET_DIR = Path(repro.net.__file__).parent


def module_name(path: Path) -> str:
    return PACKAGE if path.name == "__init__.py" else f"{PACKAGE}.{path.stem}"


def imported_modules(source: str, modules: Set[str]) -> Set[str]:
    """The members of ``modules`` that ``source`` imports anywhere."""
    found: Set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            candidates = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Every module of the package sits directly in it.
                base = PACKAGE.rsplit(".", node.level - 1)[0]
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
    paths = sorted(NET_DIR.glob("*.py"))
    modules = {module_name(path) for path in paths}
    return {
        module_name(path): imported_modules(path.read_text(), modules)
        - {module_name(path)}
        for path in paths
    }


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


def test_cycle_finder_reports_a_hidden_cycle():
    graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}
    assert find_cycle(graph) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) is None


def test_net_module_graph_is_acyclic():
    graph = import_graph()
    assert f"{PACKAGE}.router" in graph
    assert f"{PACKAGE}.worker" in graph[f"{PACKAGE}.router"]
    cycle = find_cycle(graph)
    assert cycle is None, " -> ".join(cycle)
