"""Rules read off the syntax tree of every package module.

No ``assert``: a check raises one of the package's errors, and ``python -O``
would drop an assert.  Every cache has a bound: ``functools.lru_cache``
takes an integer ``maxsize``, and the unbounded ``functools.cache`` sits
only on functions without parameters, which hold one entry.  The lift
makes no contraction that numpy may hand to BLAS, whose kernels round each
their own way: its bits must not depend on the host.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fbmchaos"
MODULES = sorted(SRC.glob("*.py"))


def _dotted(node):
    """'functools.lru_cache' for that attribute, the id of a bare name."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else None


def _int_maxsize(call):
    given = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args
    return (len(given) == 1 and isinstance(given[0], ast.Constant)
            and type(given[0].value) is int)


def _violations(source):
    """(line, rule) for each broken rule in ``source``."""
    tree = ast.parse(source)
    caches = {"functools.lru_cache": "lru_cache", "functools.cache": "cache"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            caches.update({a.asname or a.name: a.name for a in node.names
                           if a.name in ("lru_cache", "cache")})
    parent = {child: node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            out.append((node.lineno, "assert"))
        kind = caches.get(_dotted(node))
        up = parent.get(node)
        if kind == "lru_cache" and not (isinstance(up, ast.Call)
                                        and up.func is node
                                        and _int_maxsize(up)):
            out.append((node.lineno, "lru_cache without an integer maxsize"))
        if kind == "cache" and not (isinstance(up, ast.FunctionDef)
                                    and node in up.decorator_list
                                    and not ast.unparse(up.args)):
            out.append((node.lineno, "functools.cache on a function with "
                                     "parameters, or not as a decorator"))
    return sorted(out)


BLAS_CALLS = {f"{mod}.{name}" for mod in ("np", "numpy") for name in
              ("dot", "matmul", "tensordot", "einsum", "inner", "vdot",
               "linalg")}


def _blas_contractions(source):
    """(line, what) for each ``@``, np.dot, np.matmul, np.tensordot,
    np.einsum, np.inner, np.vdot or np.linalg use in ``source``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)):
            out.append((node.lineno, "@"))
        if isinstance(node, ast.Attribute) and _dotted(node) in BLAS_CALLS:
            out.append((node.lineno, _dotted(node)))
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_keeps_the_source_rules(path):
    assert _violations(path.read_text()) == []


def test_lift_makes_no_blas_contraction():
    assert _blas_contractions((SRC / "lift.py").read_text()) == []


def test_rules_catch_their_breaches():
    good = """
import functools
from functools import cache, lru_cache as lru

@functools.lru_cache(maxsize=16)
def a(x): return x

@lru(8)
def b(x): return x

@cache
def c(): return 1
"""
    assert _violations(good) == []
    bad = """
import functools
from functools import cache

@functools.lru_cache
def a(x): return x

@functools.lru_cache(maxsize=None)
def b(x): return x

@cache
def c(x): return x

d = functools.cache(len)

def e(x):
    assert x
"""
    assert [line for line, _ in _violations(bad)] == [5, 8, 11, 14, 17]
    assert _blas_contractions(good) == []
    elementwise = """
import numpy as np

a = np.multiply(b[:, None], c[None]).sum(axis=0) + np.linalg_free(b)
"""
    assert _blas_contractions(elementwise) == []
    blas = """
import numpy
import numpy as np

a = b @ c
a @= c
d = np.dot(a, b) + np.einsum("ij,jk", a, b) + numpy.vdot(a, b)
e = np.linalg.solve(a, b) + np.tensordot(a, b, 1)
f = np.inner(a, b) + np.matmul(a, b)
"""
    assert [line for line, _ in _blas_contractions(blas)] == [
        5, 6, 7, 7, 7, 8, 8, 9, 9]
