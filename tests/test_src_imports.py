"""Every top-level import under ``src/repro`` is used by its module.

A name a module imports and never reads is dead weight that no lint
step catches.  The scan reads each module's top-level ``import`` and
``from ... import`` statements and requires every name they bind to be
read somewhere in the module: as a name, inside a quoted annotation, or
in ``__all__``.  Two statement forms are imports by intent and pass:

* in a package's ``__init__.py``, a statement marked ``# noqa: F401``
  re-exports names as the package's API;
* a plain ``import pkg.mod`` with a comment on its line is kept for its
  side effect, which the comment says.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _read_names(tree):
    """Every name the module reads, quoted annotations and ``__all__``
    included."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            annotations.append(node.returns)
            annotations += [
                arg.annotation
                for arg in arguments.posonlyargs
                + arguments.args
                + arguments.kwonlyargs
                + [arguments.vararg, arguments.kwarg]
                if arg is not None
            ]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    quoted = ast.parse(sub.value, mode="eval")
                    names |= {
                        n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)
                    }
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names |= {
                e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)
            }
    return names


def _by_intent(path, node, lines):
    """A re-export of a package ``__init__`` or a commented side-effect
    import."""
    text = "".join(lines[node.lineno - 1 : node.end_lineno])
    if path.name == "__init__.py" and "# noqa: F401" in text:
        return True
    return isinstance(node, ast.Import) and "#" in text


def unused_imports(path, root=SRC):
    """``file:name`` (relative to ``root``) of every imported name
    ``path`` never reads."""
    source = path.read_text()
    tree = ast.parse(source, str(path))
    lines = source.splitlines(keepends=True)
    read = _read_names(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if _by_intent(path, node, lines):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read:
                unused.append(f"{path.relative_to(root)}:{bound}")
    return unused


def test_every_top_level_import_is_read():
    unused = [
        entry
        for path in sorted(SRC.rglob("*.py"))
        for entry in unused_imports(path)
    ]
    assert unused == []


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from typing import Dict, List\n"
        "import os.path  # kept for its side effect\n"
        "import json\n"
        "def f(x: 'List[int]'): return x\n"
    )
    assert unused_imports(module, tmp_path) == ["m.py:Dict", "m.py:json"]
