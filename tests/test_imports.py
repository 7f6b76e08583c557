"""Every import in the package, the tests and the scripts is used.

No linter ships with the test dependencies, so this walks each module's
syntax tree: a name bound by a top-level import must be referenced somewhere
in the module, or be listed in its __all__, and a name bound by an import in
a function body must be referenced in that function.  `from __future__`
imports are compiler directives and are skipped.  Importing the package also
stays cheap: the thread pool, and the logging it pulls in, load only when a
pass splits over k > 1 threads, and only `operators._in_order` imports it.
"""

import ast
import os
import subprocess
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_DIRS = ("src/laplab", "tests", "scripts")


def _modules():
    for d in _DIRS:
        for name in sorted(os.listdir(os.path.join(_ROOT, d))):
            if name.endswith(".py"):
                yield f"{d}/{name}"


def _exported(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def _unused(scope, exported=frozenset()) -> list:
    """(line, name) of each name the imports in scope's body bind that scope
    never references and exported does not hold."""
    bound = {}
    for node in scope.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`, where every attribute chain starts
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)} | exported
    return [(line, name) for name, line in bound.items() if name not in used]


def unused_imports(source: str) -> list:
    """Names bound by imports of `source`, at module level or in a function
    body, that the module or that function never references."""
    tree = ast.parse(source)
    found = _unused(tree, _exported(tree))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _unused(node)
    return sorted(found)


def import_sites(source: str, module: str) -> list:
    """Name of the innermost function around each import of module (or of a
    submodule of it) in source; None for an import outside every function."""
    tree = ast.parse(source)
    around = {}
    for node in ast.walk(tree):  # outer functions first, so inner ones overwrite
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            around.update((child, node.name) for child in ast.walk(node) if child is not node)
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == module or name.startswith(module + ".") for name in names):
            sites.append(around.get(node))
    return sites


def test_checker_finds_every_import_site():
    src = ("import concurrent.futures\n"
           "def f():\n    from concurrent import futures\n"
           "    def g():\n        from concurrent.futures import Future\n"
           "def h():\n    import concurrent\n    from . import futures\n")
    assert import_sites(src, "concurrent.futures") == [None, "f", "g"]


def test_the_thread_pool_is_imported_in_one_function():
    sites = []
    for path in _modules():
        if path.startswith("src/laplab/"):
            with open(os.path.join(_ROOT, path)) as fh:
                module = os.path.basename(path)[:-3]
                sites += [f"{module}.{name}" for name in import_sites(fh.read(), "concurrent.futures")]
    assert sites == ["operators._in_order"]


def test_checker_flags_an_unused_import():
    src = "from __future__ import annotations\nimport os, sys\nfrom a import b as c\nsys.exit()\n"
    assert unused_imports(src) == [(2, "os"), (3, "c")]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    src = "import os\ndef f():\n    import os, re\n    def g():\n        return re\n\nos.sep\n"
    assert unused_imports(src) == [(3, "os")]


@pytest.mark.parametrize("path", list(_modules()))
def test_no_unused_module_imports(path):
    with open(os.path.join(_ROOT, path)) as fh:
        assert unused_imports(fh.read()) == []


def _pool_modules_loaded(code: str, cwd=None) -> str:
    """Which of concurrent.futures and logging a fresh interpreter has loaded
    after running code, as the list it prints."""
    path = os.pathsep.join(filter(None, (os.path.join(_ROOT, "src"), os.environ.get("PYTHONPATH"))))
    code += "\nprint([m for m in ('concurrent.futures', 'logging') if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_importing_the_package_loads_no_thread_pool_or_logging():
    assert _pool_modules_loaded("import sys, laplab, laplab.cli") == "[]"


def test_passes_on_one_thread_load_no_thread_pool_or_logging(tmp_path):
    # grid 32 (n = 1024) and below take k = 1 whatever the CPU count: an
    # assembly, an externalized distance stream and an embedded report
    code = """import sys
from laplab.cli import main
for argv in (["assemble", "--grid", "32", "--out", "a.llop"],
             ["recover", "--operator", "a.llop", "--out", "a.json", "--externalize", "mx"],
             ["assemble", "--grid", "16", "--out", "b.llop"],
             ["recover", "--operator", "b.llop", "--out", "b.json"]):
    assert main(argv) == 0, argv"""
    assert _pool_modules_loaded(code, cwd=tmp_path) == "[]"
    assert sorted(os.listdir(tmp_path / "mx")) == ["recovery_distance.llmx", "recovery_kernel.llmx"]
    assert '"distance": [' in (tmp_path / "b.json").read_text()
