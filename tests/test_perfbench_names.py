"""The names the benchmark reaches in negsum exist.

`perfbench/tracing.py` wraps every `(module, function)` of its `TRACED`
table, and `Tracer.install` looks each one up with `getattr`; the
workloads in `perfbench/workloads.py` call negsum through the package
namespace as `ns.<name>`. Both files are parsed by path, not imported or
run, so deleting or renaming a function they name fails here rather than
only in a traced benchmark run (`perfbench/run.py --trace 1`).
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import negsum
import negsum.cli  # noqa: F401  (the workloads read ns.cli)

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def parse(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"), filename=name)


def constant_keys(node: ast.expr) -> list[str]:
    """The function names of one `TRACED` entry: the keys of a dict
    literal, or the names a dict comprehension iterates over."""
    if isinstance(node, ast.Dict):
        return [ast.literal_eval(k) for k in node.keys]
    assert isinstance(node, ast.DictComp), ast.dump(node)
    (generator,) = node.generators
    return list(ast.literal_eval(generator.iter))


def traced() -> list[tuple[str, str]]:
    """Every (module, function) of `TRACED` in `perfbench/tracing.py`."""
    for stmt in parse("tracing.py").body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "TRACED" for t in targets):
            table = stmt.value
            assert isinstance(table, ast.Dict)
            return [
                (ast.literal_eval(module), function)
                for module, functions in zip(table.keys, table.values)
                for function in constant_keys(functions)
            ]
    raise AssertionError("perfbench/tracing.py defines no TRACED table")


def namespace_reads() -> set[tuple[str, ...]]:
    """Every dotted name rooted at `ns` that `perfbench/workloads.py`
    reads, as the path of attributes after `ns`."""
    reads = set()
    for node in ast.walk(parse("workloads.py")):
        path = []
        while isinstance(node, ast.Attribute):
            path.append(node.attr)
            node = node.value
        if path and isinstance(node, ast.Name) and node.id == "ns":
            reads.add(tuple(reversed(path)))
    return reads


def test_every_traced_function_exists():
    names = traced()
    assert ("negsum.rules", "reducible_outcomes") in names
    assert ("negsum.strategies", "run_general") in names
    missing = [
        (module, function)
        for module, function in names
        if not callable(getattr(importlib.import_module(module), function, None))
    ]
    assert not missing


def test_every_name_the_workloads_read_exists():
    reads = namespace_reads()
    assert ("run_auto",) in reads and ("cli", "main") in reads
    missing = []
    for path in reads:
        value = negsum
        for attr in path:
            value = getattr(value, attr, None)
        if value is None:
            missing.append(".".join(path))
    assert not missing
