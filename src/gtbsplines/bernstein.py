"""Bernstein-like bases of section spaces.

The Bernstein basis ``{b_0, ..., b_p}`` of a section is the analogue of the
binomial Bernstein polynomials: ``b_j`` vanishes to order ``j`` at the left
endpoint and to order ``p - j`` at the right endpoint, the basis is
nonnegative, and for sections containing constants it sums to one.

The production construction solves one dense Hermite interpolation problem
per function directly in the section's span basis; no integration is
involved.  Closed forms are available for polynomial sections of any degree
and for trigonometric/exponential sections of degree one and two, and serve
as independent cross-checks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningWarning, EctViolationError
from .sections import (
    ExponentialFamily,
    PolynomialFamily,
    SectionSpace,
    TrigonometricFamily,
)

__all__ = ["BernsteinBasis", "build_bernstein", "closed_form_bernstein"]

_COND_LIMIT = 1e12


@dataclass(eq=False)
class BernsteinBasis:
    """Bernstein-like basis of one section, stored in span coordinates.

    Attributes
    ----------
    section : SectionSpace
        The section the basis lives on.
    coeffs : (p+1, p+1) ndarray
        Row ``j`` expresses ``b_j`` in the section's span basis.
    left_table, right_table : (p+1, p+1) ndarray
        Endpoint derivative tables: entry ``(j, d)`` is ``D^d b_j`` at
        ``x_lo`` resp. ``x_hi``.  Precomputed once; smoothness constraints
        read them repeatedly.
    """

    section: SectionSpace
    coeffs: np.ndarray
    left_table: np.ndarray = field(repr=False, default=None)
    right_table: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.left_table is None or self.right_table is None:
            p = self.section.degree
            t_lo = self.section.span_derivatives(self.section.x_lo, p)
            t_hi = self.section.span_derivatives(self.section.x_hi, p)
            self.left_table = self.coeffs @ t_lo
            self.right_table = self.coeffs @ t_hi

    @property
    def degree(self) -> int:
        return self.section.degree

    def evaluate(self, x, max_order: int = 0) -> np.ndarray:
        """Values and derivatives of all basis functions at ``x``.

        For a scalar ``x`` returns a ``(p+1, max_order+1)`` array; entry
        ``(j, d)`` is ``D^d b_j(x)``.  For a 1-D array of ``n`` points returns
        the ``(n, p+1, max_order+1)`` stack of those tables.  Span tables are
        built point by point, so both forms give identical values.
        """
        span = self.section.span_derivatives
        if isinstance(x, float) or np.ndim(x) == 0:
            return self.coeffs @ span(x, max_order)
        tables = np.array([span(t, max_order) for t in x], dtype=float)
        return self.coeffs @ tables.reshape(-1, self.section.dim, max_order + 1)


def _hermite_solve(matrix: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    cond = np.linalg.cond(matrix)
    if not np.isfinite(cond):
        raise EctViolationError(f"singular collocation matrix while building {what}")
    if cond > _COND_LIMIT:
        warnings.warn(
            f"collocation matrix for {what} has condition number {cond:.3g}",
            ConditioningWarning,
            stacklevel=3,
        )
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise EctViolationError(f"singular collocation matrix while building {what}") from exc


def build_bernstein(section: SectionSpace) -> BernsteinBasis:
    """Construct the Bernstein-like basis of a section by Hermite solves.

    The functions are built in order ``b_0, b_1, ...``:

    * ``b_0``: value 1 at ``x_lo``, derivatives ``0 .. p-1`` vanish at ``x_hi``;
    * ``b_j`` (``0 < j < p``): derivatives ``0 .. j-1`` vanish at ``x_lo``,
      derivatives ``0 .. p-j-1`` vanish at ``x_hi``, and the ``j``-th
      derivative at ``x_lo`` cancels the accumulated ``j``-th derivatives of
      ``b_0 .. b_{j-1}`` (this pins the scaling so the basis sums to one
      whenever constants belong to the section);
    * ``b_p``: derivatives ``0 .. p-1`` vanish at ``x_lo``, value 1 at
      ``x_hi``.

    Each solve is a dense ``(p+1) x (p+1)`` system on the endpoint
    collocation tables of the span basis, solved with partial pivoting.
    """
    p = section.degree
    t_lo = section.span_derivatives(section.x_lo, p)
    t_hi = section.span_derivatives(section.x_hi, p)
    coeffs = np.zeros((p + 1, p + 1))
    left = np.zeros((p + 1, p + 1))

    for j in range(p + 1):
        rows = []
        rhs = []
        if j == 0:
            rows.append(t_lo[:, 0])
            rhs.append(1.0)
            for d in range(p):
                rows.append(t_hi[:, d])
                rhs.append(0.0)
        elif j < p:
            for d in range(j):
                rows.append(t_lo[:, d])
                rhs.append(0.0)
            for d in range(p - j):
                rows.append(t_hi[:, d])
                rhs.append(0.0)
            rows.append(t_lo[:, j])
            rhs.append(-float(np.sum(left[:j, j])))
        else:
            for d in range(p):
                rows.append(t_lo[:, d])
                rhs.append(0.0)
            rows.append(t_hi[:, 0])
            rhs.append(1.0)
        c = _hermite_solve(np.array(rows), np.array(rhs), f"b_{j} of {section!r}")
        coeffs[j] = c
        left[j] = c @ t_lo

    return BernsteinBasis(section, coeffs, left, coeffs @ t_hi)


def _fit_span_coefficients(section: SectionSpace, values) -> np.ndarray:
    """Express a function with known point values in the span basis by
    collocation at Chebyshev points."""
    p = section.degree
    k = np.arange(p + 1)
    t = np.cos((2 * k + 1) * math.pi / (2 * (p + 1)))
    xs = 0.5 * (section.x_lo + section.x_hi) + 0.5 * section.length * t
    vander = np.array([section.span_derivatives(x, 0)[:, 0] for x in xs])
    rhs = np.array([values(x) for x in xs])
    return np.linalg.solve(vander, rhs)


def closed_form_bernstein(section: SectionSpace) -> BernsteinBasis | None:
    """Closed-form Bernstein basis where one is known, else ``None``.

    Supported: polynomial sections of any degree (binomial form), and
    trigonometric/exponential sections of degree 1 and 2 (sine/cosine and
    sinh/cosh forms).  The closed forms are re-expressed in the section's
    span basis.
    """
    fam = section.family
    p = section.degree
    lo, hi, L = section.x_lo, section.x_hi, section.length

    if isinstance(fam, PolynomialFamily):
        # b_j = C(p, j) t^j (1-t)^(p-j) with t = (x - lo)/L, expanded into
        # shifted monomials (x - lo)^k.
        coeffs = np.zeros((p + 1, p + 1))
        for j in range(p + 1):
            cj = math.comb(p, j)
            for s in range(p - j + 1):
                coeffs[j, j + s] = cj * math.comb(p - j, s) * (-1.0) ** s / L ** (j + s)
        return BernsteinBasis(section, coeffs)

    if isinstance(fam, (TrigonometricFamily, ExponentialFamily)):
        w = fam.omega
        trig = isinstance(fam, TrigonometricFamily)
        f = math.sin if trig else math.sinh
        g = math.cos if trig else math.cosh
        if p == 1:
            funcs = [
                lambda x: f(w * (hi - x)) / f(w * L),
                lambda x: f(w * (x - lo)) / f(w * L),
            ]
        elif p == 2:
            den = 1.0 - g(w * L)
            funcs = [
                lambda x: (1.0 - g(w * (hi - x))) / den,
                lambda x: (g(w * (hi - x)) + g(w * (x - lo)) - g(w * L) - 1.0) / den,
                lambda x: (1.0 - g(w * (x - lo))) / den,
            ]
        else:
            return None
        coeffs = np.array([_fit_span_coefficients(section, fn) for fn in funcs])
        return BernsteinBasis(section, coeffs)

    return None

