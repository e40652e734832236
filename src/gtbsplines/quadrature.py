"""Composite Gauss-Legendre rules on sections."""

from __future__ import annotations

import functools
import math

import numpy as np

from .sections import SectionSpace

__all__ = ["composite_rule", "gauss_legendre"]


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``numpy.polynomial.legendre.leggauss(n)`` as read-only arrays, once per ``n``."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _stiffness_ceil(section: SectionSpace, per: float = 1.0) -> int:
    """``ceil(omega * length / per)`` for the section (``omega`` 0 for a
    family without one); within a relative ``1e-12`` above a whole number,
    the quotient counts as that number, so that the rounding of ``omega *
    length`` adds no panel or node."""
    omega = getattr(section.family, "omega", 0.0)
    return math.ceil(omega * section.length / per * (1.0 - 1e-12))


def section_panels(section: SectionSpace) -> int:
    """Panel count that keeps the fixed-order rule near machine accuracy.

    A custom pair takes 8 panels.  Polynomial sections (no ``omega``)
    integrate exactly on one; oscillatory or stiff sections are subdivided so
    that each panel sees ``omega * length`` of at most ~2 (:func:`_stiffness_ceil`).
    """
    return 8 if section._kind == "custom" else max(1, _stiffness_ceil(section, 2.0))


def composite_rule(sections: list[SectionSpace], n: int) -> tuple:
    """The ``n``-point Gauss-Legendre rule :func:`gauss_legendre` on ``[-1,
    1]`` mapped onto the ``section_panels(section)`` equal panels of every
    section in one pass: the nodes, the weights and each node's 1-based
    section index, section after section and panel after panel."""
    x, w = gauss_legendre(n)
    panels = np.array([section_panels(s) for s in sections])
    owner = np.repeat(np.arange(len(sections)), panels)
    # the index of each panel within its section
    j = np.arange(len(owner)) - np.repeat(np.cumsum(panels) - panels, panels)
    # panel ends where numpy.linspace puts them: x_lo + j step, the last at x_hi
    x_lo, x_hi = (np.array([getattr(s, end) for s in sections]) for end in ("x_lo", "x_hi"))
    step = ((x_hi - x_lo) / panels)[owner]
    left = x_lo[owner] + j * step
    right = np.where(j + 1 == panels[owner], x_hi[owner], x_lo[owner] + (j + 1) * step)
    mid, half = 0.5 * (left + right), 0.5 * (right - left)
    nodes = (mid[:, None] + half[:, None] * x).ravel()
    return nodes, (half[:, None] * w).ravel(), np.repeat(owner + 1, len(x))
