"""Module layering: imports sit at module level, form no cycle and leave
out scipy, no private helper outlives its last caller, plans are made in
one dispatch, and only model.py decides an array's memory order."""

import ast
from collections import Counter
from pathlib import Path

import fuselab

SOURCES = sorted(Path(fuselab.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_no_import_inside_a_function():
    found = []
    for path in SOURCES:
        for fn in ast.walk(_tree(path)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append((path.stem, fn.name))
    assert found == []


def test_no_module_imports_scipy():
    # scipy is a test-only dependency: the tests solve with it as a reference
    found = []
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.stem, n) for n in names if n.split(".")[0] == "scipy"]
    assert found == []


def _imports(path):
    """The fuselab modules that path imports, wherever the import sits."""
    names = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                names.update(a.name for a in node.names)
            else:
                names.add(node.module.split(".")[0])
    return names


def test_module_imports_form_no_cycle():
    graph = {path.stem: _imports(path) for path in SOURCES}
    done, walking = set(), []

    def visit(name):
        assert name not in walking, f"import cycle: {walking + [name]}"
        if name in done:
            return
        walking.append(name)
        for other in sorted(graph.get(name, ())):
            visit(other)
        walking.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)


def test_every_private_function_is_used():
    # a module-level _helper that no name or attribute in the package reads
    # is dead; an import alone does not count as a use
    trees = [_tree(path) for path in SOURCES]
    defined = [
        node.name for tree in trees for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    ]
    used = Counter()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used[node.id] += 1
            elif isinstance(node, ast.Attribute):
                used[node.attr] += 1
    assert defined
    assert [name for name in defined if not used[name]] == []


def test_plans_are_made_in_one_dispatch():
    # merge._align turns a pair's statistics into a plan; cca_plan and
    # permute_plan are the one-pair public entry points
    makers = {"plan_from_solutions", "_plan_from_correlations"}
    found = set()
    for path in SOURCES:
        for top in _tree(path).body:
            where = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                # a Name's id or an Attribute's attr; an import is neither
                if getattr(node, "id", getattr(node, "attr", None)) in makers:
                    found.add(f"{path.stem}.{where}")
    assert found == {"merge._align", "cca.cca_plan", "matching.permute_plan"}


def test_only_model_reads_memory_order():
    # the values model.py makes keep C-order copies (a LayerTransform its
    # input's order), so no other module has a layout to branch on
    found = []
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("c_contiguous", "f_contiguous")
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "flags"):
                found.append(path.stem)
    assert set(found) <= {"model"}
