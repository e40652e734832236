"""Composite Gauss-Legendre rules on sections."""

from __future__ import annotations

import math

import numpy as np

from .sections import (
    ExponentialFamily,
    GeneralizedPolynomialFamily,
    SectionSpace,
    TrigonometricFamily,
)

__all__ = ["section_rule"]


def section_panels(section: SectionSpace) -> int:
    """Panel count that keeps the fixed-order rule near machine accuracy.

    Polynomial sections integrate exactly on one panel; oscillatory or stiff
    sections are subdivided so that each panel sees an effective frequency
    of at most ~2.
    """
    fam = section.family
    if isinstance(fam, (TrigonometricFamily, ExponentialFamily)):
        return max(1, math.ceil(fam.omega * section.length / 2.0))
    if isinstance(fam, GeneralizedPolynomialFamily):
        return 8
    return 1


def section_rule(
    section: SectionSpace, x: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Composite rule on a section, sized by the section's stiffness.

    The reference rule ``(x, w)`` on ``[-1, 1]``, for example
    ``numpy.polynomial.legendre.leggauss(n)``, is mapped onto each of
    ``section_panels(section)`` equal panels; nodes and weights are returned
    panel after panel.
    """
    edges = np.linspace(section.x_lo, section.x_hi, section_panels(section) + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()
