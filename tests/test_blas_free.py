"""No value that reaches an artifact's bytes comes from a BLAS or LAPACK call.

BLAS and LAPACK round as the kernel the CPU selects does, so the package
computes what it writes with numpy's elementwise operations and its own
reductions.  This walks the syntax tree of every package module and lists
each matrix product, dot product and linear-algebra call; the only ones
allowed are those that decide no written byte, or, for the --refine solve,
only the bytes of --refine reports.
"""

import ast
import os

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src", "laplab")

# functions whose results a BLAS or LAPACK call computes, by attribute name
_CALLS = {"dot", "vdot", "inner", "tensordot", "einsum", "matmul", "polyfit"}

# (module, enclosing function, site) -> why it may stay
_ALLOWED = {
    ("identify.py", "extract_weighted_kernel", "e[r] @ ones"):
        "the row-sum check compares these sums with a tolerance and writes none",
    ("identify.py", "metric_field_from_distance", "np.linalg.eigvalsh"):
        "the positivity check reads only the sign of the smallest eigenvalue",
    ("identify.py", "recover_mass", "np.linalg.solve"):
        "--refine's mass solve: its reports are the only bytes a LAPACK call decides",
}


class _Sites(ast.NodeVisitor):
    """(enclosing function, source text) of every product and linear-algebra call."""

    def __init__(self):
        self.scope, self.found = ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _add(self, node):
        self.found.append((self.scope[-1], ast.unparse(node)))

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.MatMult):
            self._add(node)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if isinstance(node.op, ast.MatMult):
            self._add(node)
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Attribute) and node.value.attr == "linalg":
            self._add(node)  # np.linalg.solve, one site with the np.linalg in it
            self.visit(node.value.value)
            return
        if node.attr in _CALLS or node.attr == "linalg":
            self._add(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if (node.module or "").split(".")[0] == "numpy":
            self._add(node)


def _package_sites() -> set:
    found = set()
    for name in sorted(os.listdir(_SRC)):
        if name.endswith(".py"):
            with open(os.path.join(_SRC, name)) as fh:
                sites = _Sites()
                sites.visit(ast.parse(fh.read()))
            found.update((name, scope, text) for scope, text in sites.found)
    return found


def test_only_the_allowed_blas_and_lapack_sites_remain():
    assert _package_sites() == set(_ALLOWED)


def test_the_walk_finds_each_kind_of_site():
    source = """
from numpy.linalg import det
def f(a, b):
    a @= b
    return a @ b, np.dot(a, b), a.dot(b), np.linalg.det(a), np.polyfit(a, b, 1)
def g(a):
    inner = a  # a local name, not numpy's inner
    la = np.linalg
    return np.einsum("ij,jk", a, a), np.inner(a, a), np.vdot(a, a), np.tensordot(a, a)
"""
    sites = _Sites()
    sites.visit(ast.parse(source))
    assert [text for _, text in sites.found] == [
        "from numpy.linalg import det", "a @= b", "a @ b", "np.dot", "a.dot", "np.linalg.det",
        "np.polyfit", "np.linalg", "np.einsum", "np.inner", "np.vdot", "np.tensordot"]
    assert {scope for scope, _ in sites.found} == {"<module>", "f", "g"}
