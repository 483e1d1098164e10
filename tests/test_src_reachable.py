"""``src/`` ships only what an entry point runs.

Every module under ``src/repro`` must be reachable by imports from the
package itself, the ``[project.scripts]`` entry points in
``pyproject.toml`` and ``python -m repro.fuzzing``.  The walk reads the
import statements of each module (top-level and function-local,
absolute and relative); importing ``a.b.c`` implies ``a`` and ``a.b``.
A module nothing reaches belongs with the tests or examples it serves,
or nowhere.
"""

import ast
import pathlib
import tomllib

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def entry_modules():
    """The package, each console script's module, and the ``-m``
    entry point."""
    with open(REPO / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    roots = {"repro", "repro.fuzzing.__main__"}
    roots.update(target.split(":")[0] for target in scripts.values())
    return sorted(roots)


def package_modules(src, package):
    """Dotted name -> (path, is_package) of every module of ``package``."""
    modules = {}
    for path in sorted((src / package).rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        modules[".".join(parts)] = (path, is_package)
    return modules


def imported_names(name, path, is_package):
    """Every dotted name an import statement of the module names,
    including ``from m import x`` as ``m.x`` (``x`` may be a module)."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                base = name if is_package else name.rpartition(".")[0]
                for _ in range(node.level - 1):
                    base = base.rpartition(".")[0]
                module = f"{base}.{module}" if module else base
            yield module
            for alias in node.names:
                yield f"{module}.{alias.name}"


def unreached_modules(src, package, roots):
    modules = package_modules(src, package)
    seen = set()
    pending = list(roots)
    while pending:
        parts = pending.pop().split(".")
        for end in range(1, len(parts) + 1):
            prefix = ".".join(parts[:end])
            if prefix in modules and prefix not in seen:
                seen.add(prefix)
                pending.extend(imported_names(prefix, *modules[prefix]))
    return sorted(set(modules) - seen)


def test_every_src_module_is_reached_from_an_entry_point():
    unreached = unreached_modules(SRC, "repro", entry_modules())
    assert not unreached, (
        "modules under src/repro that no entry point imports: "
        + ", ".join(unreached)
    )


def test_the_walk_names_a_module_nothing_imports(tmp_path):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text("from .sub import used\n")
    (package / "sub" / "__init__.py").write_text("")
    (package / "sub" / "used.py").write_text(
        "def f():\n    from ..late import g\n"
    )
    (package / "late.py").write_text("import pkg.sub.deep.leaf\n")
    (package / "sub" / "deep").mkdir()
    (package / "sub" / "deep" / "__init__.py").write_text("")
    (package / "sub" / "deep" / "leaf.py").write_text("")
    (package / "orphan.py").write_text("from . import late\n")
    assert unreached_modules(tmp_path, "pkg", ["pkg"]) == ["pkg.orphan"]
