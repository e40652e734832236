"""Every name a module exports must exist: a deleted function left in an
``__all__`` breaks ``from gtbsplines import *`` and the documentation of the
public API, but no call in the library or the tests."""

import importlib
import pkgutil

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
