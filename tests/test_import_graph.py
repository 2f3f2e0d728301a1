"""The package's modules import one another without a cycle.

A cycle forces function-local imports or an import order that happens to
work; this test parses each module, function-local imports included, so a
new one fails here rather than at some caller's first import.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "phonoblock"


def _import_graph(package: Path = PACKAGE) -> dict[str, set[str]]:
    """Module name -> the package modules it imports anywhere in its source;
    ``from . import name`` names ``__init__`` unless ``name`` is a module."""
    modules = {path.stem for path in package.glob("*.py")}
    graph = {}
    for name in modules:
        imported = set()
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1 and node.module is None:
                imported |= {a.name if a.name in modules else "__init__" for a in node.names}
            elif node.level == 1 or (node.module or "").startswith("phonoblock."):
                imported.add(node.module.split(".")[-1])
        graph[name] = imported & modules
    return graph


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a path that returns to its start, or None."""
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> list[str] | None:
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return None
        for target in sorted(graph[module]):
            if cycle := visit(target, path + [module]):
                return cycle
        done.add(module)
        return None

    return next((c for m in sorted(graph) if (c := visit(m, [])) is not None), None)


def test_graph_reads_module_level_and_function_local_imports(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import f\n")
    (tmp_path / "a.py").write_text("from . import __version__\ndef f():\n    from .b import g\n")
    (tmp_path / "b.py").write_text("from .a import f\nimport numpy\n")
    graph = _import_graph(tmp_path)
    assert graph == {"__init__": {"a"}, "a": {"__init__", "b"}, "b": {"a"}}
    assert _cycle(graph) == ["__init__", "a", "__init__"]
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None


def test_package_import_graph_has_no_cycle():
    graph = _import_graph()
    assert len(graph) == 9 and "model" in graph["analytics"]
    assert _cycle(graph) is None, _cycle(graph)
