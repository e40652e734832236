"""Tchebycheffian B-spline bases for mixed-family, mixed-degree spline spaces.

The package builds spline spaces whose pieces come from different extended
Tchebycheff section spaces (polynomial, trigonometric, exponential, or
custom generalized-polynomial pairs) of possibly different dimensions, and
represents their nonnegative, locally supported, partition-of-unity basis
through an extraction operator acting on the piecewise Bernstein basis.
Knot insertion, derivative evaluation, curve representation, unit-integral
scaling, and independent recurrence/Cox-de Boor oracles are included.
``__all__`` names the paper's objects; the cascade's per-constraint steps
are internals of :mod:`gtbsplines.extraction` and :mod:`gtbsplines.bernstein`.
"""

from .bernstein import BernsteinBasis
from .config import (
    SpaceConfig,
    conic_profile_demo_config,
    mixed_family_demo_config,
)
from .errors import (
    AdmissibilityWarning,
    BasisNonexistenceError,
    ConditioningWarning,
    ConfigError,
    DomainError,
    EctViolationError,
    GTBError,
    InsertionError,
    InvalidFamilyError,
    OracleUnsupportedError,
    OrderError,
)
from .extraction import ExtractionMatrix, KnotVectors, build_knot_vectors
from .sections import (
    ExponentialFamily,
    GeneralizedPolynomialFamily,
    Partition,
    PolynomialFamily,
    SectionSpace,
    TrigonometricFamily,
)
from .space import (
    GTSplineSpace,
    SplineCurve,
    build_space,
    eval_basis,
    eval_curve,
    insert_knot,
    jump_vector,
    unit_integral_scaling,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityWarning",
    "BasisNonexistenceError",
    "BernsteinBasis",
    "ConditioningWarning",
    "ConfigError",
    "DomainError",
    "EctViolationError",
    "ExponentialFamily",
    "ExtractionMatrix",
    "GTBError",
    "GTSplineSpace",
    "GeneralizedPolynomialFamily",
    "InsertionError",
    "InvalidFamilyError",
    "KnotVectors",
    "OracleUnsupportedError",
    "OrderError",
    "Partition",
    "PolynomialFamily",
    "SectionSpace",
    "SpaceConfig",
    "SplineCurve",
    "TrigonometricFamily",
    "build_knot_vectors",
    "build_space",
    "conic_profile_demo_config",
    "eval_basis",
    "eval_curve",
    "insert_knot",
    "jump_vector",
    "mixed_family_demo_config",
    "unit_integral_scaling",
]
