"""Bernstein-like bases of section spaces.

The Bernstein basis ``{b_0, ..., b_p}`` of a section is the analogue of the
binomial Bernstein polynomials: ``b_j`` vanishes to order ``j`` at the left
endpoint and to order ``p - j`` at the right endpoint, the basis is
nonnegative, and for sections containing constants it sums to one.

A polynomial section's span basis is its binomial Bernstein basis, so its
endpoint tables are exact constants, cached per degree and scaled by
``L^-d``; nothing is solved.  For the other families the construction gathers
the dense Hermite interpolation problems of all ``p + 1`` functions, and for a
custom pair the ECT collocation splits, from the section's endpoint tables;
one condition call checks them all, and the Hermite problems are solved as
one stack in the span basis.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningWarning, EctViolationError
from .sections import (
    GeneralizedPolynomialFamily,
    PolynomialFamily,
    SectionSpace,
    _as_float,
    _inverse_powers,
)

__all__ = ["BernsteinBasis", "build_bernstein"]

COND_LIMIT = 1e12  # condition number above which a collocation solve is ill conditioned


@dataclass(eq=False)
class BernsteinBasis:
    """Bernstein-like basis of one section, stored in span coordinates.

    Attributes
    ----------
    section : SectionSpace
        The section the basis lives on.
    coeffs : (p+1, p+1) ndarray or None
        Row ``j`` expresses ``b_j`` in the section's span basis.  ``None``
        means the span basis is the Bernstein basis itself, as for every
        polynomial section; a polynomial build then depends on the interval
        length ``L`` only through the ``L^-d`` scaling of derivative ``d``.
    left_table, right_table : (p+1, p+1) ndarray
        Endpoint derivative tables: entry ``(j, d)`` is ``D^d b_j`` at
        ``x_lo`` resp. ``x_hi``.  Precomputed once; smoothness constraints
        read them repeatedly.
    """

    section: SectionSpace
    coeffs: np.ndarray | None
    left_table: np.ndarray = field(repr=False)
    right_table: np.ndarray = field(repr=False)

    @property
    def degree(self) -> int:
        return self.section.degree

    def evaluate(self, x, max_order: int = 0) -> np.ndarray:
        """Values and derivatives of all basis functions at ``x``.

        For a scalar ``x`` returns a ``(p+1, max_order+1)`` array; entry
        ``(j, d)`` is ``D^d b_j(x)``.  For a 1-D array of ``n`` points returns
        the ``(n, p+1, max_order+1)`` stack of those tables from one span
        table call for all points; each table equals the scalar call's bit
        for bit.
        """
        table = self.section.span_derivatives(x, max_order)
        return table if self.coeffs is None else self.coeffs @ table


@functools.lru_cache(maxsize=None)
def _binomial_tables(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint tables of the degree-``p`` Bernstein polynomials in ``t`` on
    ``[0, 1]``: ``D^d B_j(0) = p!/(p-d)! (-1)^(d-j) C(d, j)`` (zero for
    ``j > d``) and, by the mirror ``B_j(t) = B_(p-j)(1 - t)``,
    ``D^d B_j(1) = (-1)^d D^d B_(p-j)(0)``.  Each entry is its integer
    rounded once; entries beyond the float range are infinite."""
    left = np.zeros((p + 1, p + 1))
    for d in range(p + 1):
        for j in range(d + 1):
            left[j, d] = _as_float((-1) ** (d - j) * math.perm(p, d) * math.comb(d, j))
    right = left[::-1] * (-1.0) ** np.arange(p + 1)
    left.flags.writeable = right.flags.writeable = False
    return left, right


@functools.lru_cache(maxsize=None)
def _endpoint_systems(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of the ``p + 3`` endpoint systems of a section, and the
    right-hand sides of its ``p + 1`` Hermite systems.

    The indices point into the stacked endpoint table ``[t_lo | t_hi]^T``,
    whose rows ``d`` and ``p + 1 + d`` hold the ``d``-th derivatives of the
    span basis at ``x_lo`` resp. ``x_hi``.  Collocation split ``n_lo`` takes
    the low orders ``0 .. n_lo-1`` and the high orders ``0 .. p-n_lo``;
    systems ``0`` and ``p + 2`` are splits ``0`` and ``p + 1``.  System
    ``j + 1`` is the Hermite system of ``b_j``: the rows of split ``j + 1``
    (of split ``p`` for ``j = p``), with the normalization row -- low order
    ``j``, high order ``0`` for ``j = p`` -- first for ``b_0`` and last
    otherwise; the right-hand side is one there and zero elsewhere.  (The
    computed condition number of a nearly singular matrix depends on its
    row order, so this keeps the one a function-by-function solve reports.)
    """
    rows = np.array(
        [[p + 1 + d for d in range(p + 1)], [0] + [p + 1 + d for d in range(p)]]
        + [
            list(range(j)) + [p + 1 + d for d in range(p - j)] + [j if j < p else p + 1]
            for j in range(1, p + 1)
        ]
        + [list(range(p + 1))]
    )
    unit = np.zeros((p + 1, p + 1, 1))
    unit[1:, p] = 1.0
    unit[0, 0] = 1.0
    rows.flags.writeable = unit.flags.writeable = False
    return rows, unit


def build_bernstein(section: SectionSpace) -> BernsteinBasis:
    """Construct the Bernstein-like basis of a section.

    A polynomial section needs no solve: its span basis is the Bernstein
    basis (``coeffs is None``), and its endpoint tables are
    :func:`_binomial_tables` with column ``d`` scaled by ``L^-d``.  Every
    other section is built by Hermite solves in its span basis.

    Function ``b_j`` has derivatives ``0 .. j-1`` vanishing at ``x_lo``,
    derivatives ``0 .. p-j-1`` vanishing at ``x_hi``, and one normalization:

    * ``b_0`` has value 1 at ``x_lo`` and ``b_p`` value 1 at ``x_hi``;
    * for ``0 < j < p`` the ``j``-th derivative of ``b_j`` at ``x_lo``
      cancels the accumulated ``j``-th derivatives of ``b_0 .. b_{j-1}``
      (this pins the scaling so the basis sums to one whenever constants
      belong to the section).

    The ``p + 1`` systems are dense ``(p+1) x (p+1)`` matrices gathered from
    the endpoint tables of the span basis and solved as one stack with
    partial pivoting, each against a unit normalization value; ``b_1 ..
    b_{p-1}`` are then scaled in order, since each scale reads the ones
    before it.  The condition numbers of the whole stack are computed in one
    call once the endpoint tables are finite; a failed call or a non-finite
    number (in ``j`` order) raises
    :class:`~gtbsplines.errors.EctViolationError`, and each number above
    ``1e12`` warns with :class:`~gtbsplines.errors.ConditioningWarning`.

    A custom pair (:class:`~gtbsplines.sections.GeneralizedPolynomialFamily`)
    must first pass a necessary ECT check in the same condition call: each
    of its ``p + 2`` endpoint collocation splits needs a finite condition
    number of at most ``1e12``.  The first split that fails, in ``n_lo``
    order, raises ``EctViolationError`` naming the split and the section
    before any warning, as does a user function that overflows at an end.

    For every family a non-finite endpoint table (the factorials overflow
    from ``p = 171`` on, and ``L^-d`` on tiny intervals) raises
    ``EctViolationError`` naming the section.
    """
    p = section.degree
    polynomial = isinstance(section.family, PolynomialFamily)
    custom = isinstance(section.family, GeneralizedPolynomialFamily)
    if polynomial:
        scale = np.array(_inverse_powers(section.length, p))
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            t_lo, t_hi = (table * scale for table in _binomial_tables(p))
    else:
        try:
            t_lo = section.span_derivatives(section.x_lo, p)
            t_hi = section.span_derivatives(section.x_hi, p)
        except OverflowError as exc:  # a custom pair's user functions
            raise EctViolationError(f"endpoint derivatives of {section!r} overflow") from exc
    if not np.isfinite([t_lo, t_hi]).all():
        raise EctViolationError(f"non-finite endpoint derivative tables of {section!r}")
    if polynomial:
        return BernsteinBasis(section, None, t_lo, t_hi)
    rows, unit = _endpoint_systems(p)
    systems = np.concatenate([t_lo, t_hi], axis=1).T[rows if custom else rows[1:-1]]
    try:
        conds = np.linalg.cond(systems).tolist()
    except np.linalg.LinAlgError as exc:
        raise EctViolationError(f"condition check failed for {section!r}: {exc}") from exc
    if custom:
        # split n_lo is system n_lo, except split p + 1, the last system
        for n_lo, cond in enumerate(conds[: p + 1] + conds[-1:]):
            if not math.isfinite(cond) or cond > COND_LIMIT:
                raise EctViolationError(
                    f"endpoint collocation split {n_lo}/{p + 1 - n_lo} of {section!r} "
                    f"is singular or ill conditioned (cond ~ {cond:.3g})"
                )
        systems, conds = systems[1:-1], conds[1:-1]
    for j, cond in enumerate(conds):
        if not math.isfinite(cond):
            raise EctViolationError(
                f"singular collocation matrix while building b_{j} of {section!r}"
            )
        if cond > COND_LIMIT:
            warnings.warn(
                ConditioningWarning(
                    f"collocation matrix for b_{j} of {section!r} has condition "
                    f"number {cond:.3g}",
                    condition=cond,
                ),
                stacklevel=2,
            )
    try:
        coeffs = np.linalg.solve(systems, unit)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise EctViolationError(
            f"singular collocation matrix while building the basis of {section!r}"
        ) from exc
    left = coeffs @ t_lo
    for j in range(1, p):
        coeffs[j] *= -float(np.sum(left[:j, j]))
        left[j] = coeffs[j] @ t_lo
    return BernsteinBasis(section, coeffs, left, coeffs @ t_hi)

