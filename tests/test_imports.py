"""Every import in the package, the tests and the scripts is used.

No linter ships with the test dependencies, so this walks each module's
syntax tree: a name bound by a top-level import must be referenced somewhere
in the module, or be listed in its __all__, and a name bound by an import in
a function body must be referenced in that function.  `from __future__`
imports are compiler directives and are skipped.  Importing the package also
stays cheap: the thread pool of dense assembly, and the logging it pulls in,
load only when an operator is assembled.
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


def test_importing_the_package_loads_no_thread_pool_or_logging():
    path = os.pathsep.join(filter(None, (os.path.join(_ROOT, "src"), os.environ.get("PYTHONPATH"))))
    code = ("import sys, laplab, laplab.cli; "
            "print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
