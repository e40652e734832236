"""Every name a module exports must exist: a deleted function left in an
``__all__`` breaks ``from gtbsplines import *`` and the documentation of the
public API, but no call in the library or the tests."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import gtbsplines

MODULES = ["gtbsplines"] + [
    f"gtbsplines.{info.name}" for info in pkgutil.iter_modules(gtbsplines.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"


# The paper's objects and the entry points a spline code calls.
PUBLIC = set(
    """
    AdmissibilityWarning BasisNonexistenceError BernsteinBasis ConditioningWarning
    ConfigError DomainError EctViolationError ExponentialFamily ExtractionMatrix GTBError
    GTSplineSpace GeneralizedPolynomialFamily InsertionError InvalidFamilyError KnotVectors
    OracleUnsupportedError OrderError Partition PolynomialFamily SectionSpace SpaceConfig
    SplineCurve TrigonometricFamily build_knot_vectors build_space
    conic_profile_demo_config eval_basis eval_curve insert_knot jump_vector
    mixed_family_demo_config unit_integral_scaling
    """.split()
)
# The cascade's per-constraint and per-point kernels, by their modules.  They
# keep their names there: the bench tracer wraps some of them by name.
KERNELS = {
    "apply_factor": "gtbsplines.extraction",
    "build_constraints": "gtbsplines.extraction",
    "extraction_operator": "gtbsplines.extraction",
    "jump_rows": "gtbsplines.extraction",
    "nullspace_step": "gtbsplines.extraction",
    "build_bernstein": "gtbsplines.bernstein",
    "normalized_pair": "gtbsplines.sections",
}


def test_public_api_is_the_papers_objects():
    assert len(PUBLIC) == 32
    assert set(gtbsplines.__all__) == PUBLIC
    assert gtbsplines.extraction.__all__ == ["KnotVectors", "build_knot_vectors", "ExtractionMatrix"]
    assert gtbsplines.bernstein.__all__ == ["BernsteinBasis", "build_bases"]


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernels_are_module_internals(name):
    module = importlib.import_module(KERNELS[name])
    assert not hasattr(gtbsplines, name)
    assert name not in module.__all__
    assert callable(getattr(module, name))


FAMILIES = (
    gtbsplines.PolynomialFamily,
    gtbsplines.TrigonometricFamily,
    gtbsplines.ExponentialFamily,
    gtbsplines.GeneralizedPolynomialFamily,
)
SOURCES = sorted(Path(gtbsplines.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", ["bernstein", "quadrature", "space", "cli"])
def test_family_classes_stay_out_of_the_kind_readers(name):
    # these modules read ``SectionSpace._kind``; none holds a family class
    module = importlib.import_module(f"gtbsplines.{name}")
    held = [attr for attr, value in vars(module).items() if any(value is f for f in FAMILIES)]
    assert held == []


def _class_tests(tree) -> list[str]:
    """The functions of ``tree`` that call ``isinstance`` against a family
    class by name (``SectionFamily`` included) or ``type`` of a ``.family``."""
    names = {f.__name__ for f in FAMILIES} | {"SectionFamily"}
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(func):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)):
                continue
            args = call.args
            if call.func.id == "isinstance" and len(args) == 2:
                tested = {n.id for n in ast.walk(args[1]) if isinstance(n, ast.Name)}
                found += [func.name] if tested & names else []
            elif call.func.id == "type" and len(args) == 1:
                found += [func.name] if getattr(args[0], "attr", None) == "family" else []
    return found


def test_family_classes_are_tested_in_one_place():
    # ``sections._family_kind`` tests a family against ``_KINDS``; the only
    # other test of a family's class is ``config._family``'s input check
    found = {(path.stem, f) for path in SOURCES for f in _class_tests(ast.parse(path.read_text()))}
    assert found == {("config", "_family")}


def _module_level(body):
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try)):
            yield from _module_level(node.body + node.orelse)


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports at module level (``__future__`` aside)
    that it neither uses, nor lists in its ``__all__``, nor imports on a
    line marked ``# noqa: F401`` followed by the reason."""
    tree, lines = ast.parse(source), source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if [getattr(t, "id", None) for t in getattr(node, "targets", [])] == ["__all__"]:
            exported = set(ast.literal_eval(node.value))
    stale = []
    for node in _module_level(tree.body):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            marked = re.search(r"#\s*noqa: F401\s+\S", lines[alias.lineno - 1])
            if name not in used and name not in exported and not marked:
                stale.append(name)
    return stale


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_import_check_finds_a_stale_import():
    source = """from __future__ import annotations
from .a import used, stale
from .b import (
    hooked,  # noqa: F401  (a tracer wraps this name)
    bare,  # noqa: F401
)
import numpy.linalg
import numpy as np
from .c import listed

__all__ = ["listed"]
used(np.zeros(1))
"""
    assert unused_imports(source) == ["stale", "bare", "numpy"]
