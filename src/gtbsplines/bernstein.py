"""Bernstein-like bases of section spaces.

The Bernstein basis ``{b_0, ..., b_p}`` of a section is the analogue of the
binomial Bernstein polynomials: ``b_j`` vanishes to order ``j`` at the left
endpoint and to order ``p - j`` at the right endpoint, the basis is
nonnegative, and for sections containing constants it sums to one.

Every section's endpoint tables come from one function for every family
(:func:`~gtbsplines.sections._end_tables`): the exact Bernstein rows, cached
per degree and scaled by ``L^-d``, then the pair's rows at both ends.  A
polynomial section's span basis is its binomial Bernstein basis, so nothing
is solved.  For the other families the construction gathers the dense
Hermite interpolation problems of all ``p + 1`` functions, and for a custom
pair the ECT collocation splits, from those tables, and solves them in the
span basis.  The bases of a whole space are built in one stacked pass per
group of sections of one family kind and degree (a custom pair on its own):
one table call for the group and, unless it is polynomial, one condition
call and one stacked solve for all its Hermite problems.  A single section
is the one-section call of the same pass.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningWarning, EctViolationError
from .sections import (
    GeneralizedPolynomialFamily,
    PolynomialFamily,
    SectionSpace,
    _end_tables,
    _family_groups,
)

__all__ = ["BernsteinBasis", "build_bases"]

COND_LIMIT = 1e12  # condition number above which a collocation solve is ill conditioned


@dataclass(eq=False, frozen=True)
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
    """The basis of one section, as :func:`build_bases` builds it alone; its
    readers are the tests and the bench tracer's ``bernstein.build`` span."""
    return _build_group([section], strict=True)[0]


def build_bases(sections: Sequence[SectionSpace]) -> list[BernsteinBasis]:
    """Construct the Bernstein-like bases of ``sections``.

    A polynomial section needs no solve: its span basis is the Bernstein
    basis (``coeffs is None``), and its endpoint tables are the exact
    binomial tables with column ``d`` scaled by ``L^-d``.  Every other
    section is built by Hermite solves in its span basis.

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
    from ``p = 151`` on, ``p = 153`` with a pair, and ``L^-d`` on tiny
    intervals) raises
    ``EctViolationError`` naming the section, and LAPACK never sees it.

    The bases are built in one stacked pass per group of sections of one
    family kind and degree (a custom pair is a group of its own): one
    endpoint-table call for the group -- the exact Bernstein rows in one
    ``L^-d`` scaling, then for every family but the polynomial one each
    section's pair rows at both ends -- and, unless the group is polynomial,
    one condition call and one solve for all its Hermite systems.  Each
    basis equals the one-section pass of its section bit for bit.

    The groups are built in the order of their first sections.  A group
    whose numbers would warn or raise -- a non-finite endpoint table, a
    condition number that is not finite or above ``1e12``, a LAPACK failure
    -- ends the pass, and the bases are built again by one one-section pass
    per section, whose warnings and errors come in section order.  An error
    of a custom pair's user functions is raised as it comes: every section
    before the pair is in a group built before it, without a warning.
    """
    bases = [None] * len(sections)
    for members in _family_groups(enumerate(sections)).values():
        built = _build_group([sections[i] for i in members], strict=False)
        if built is None:  # as build_bernstein, at its depth: warnings name our caller
            for i, section in enumerate(sections):
                bases[i] = _build_group([section], strict=True)[0]
            return bases
        for i, basis in zip(members, built):
            bases[i] = basis
    return bases


def _build_group(group: list[SectionSpace], strict: bool) -> list[BernsteinBasis] | None:
    """The bases of ``group``, sections of one family kind and degree or one
    custom pair, in one stacked pass.  With ``strict`` the group is one
    section, whose numbers warn and raise as :func:`build_bases` says;
    otherwise numbers that would warn or raise give ``None``."""
    section, p = group[0], group[0].degree
    custom = isinstance(section.family, GeneralizedPolynomialFamily)
    try:
        tables = _end_tables(group)
    except OverflowError as exc:  # a custom pair's user functions
        raise EctViolationError(f"endpoint derivatives of {section!r} overflow") from exc
    if tables is None or not np.isfinite(tables).all():
        if strict:
            raise EctViolationError(f"non-finite endpoint derivative tables of {section!r}")
        return None
    t_lo, t_hi = tables[:, 0], tables[:, 1]
    if isinstance(section.family, PolynomialFamily):
        return list(map(BernsteinBasis, group, [None] * len(group), t_lo, t_hi))
    rows, unit = _endpoint_systems(p)
    # row e * (p + 1) + d of a section's stacked endpoint table is order d at end e
    systems = tables.transpose(0, 1, 3, 2).reshape(len(group), 2 * p + 2, p + 1)
    systems = systems[:, rows if custom else rows[1:-1]]
    try:
        conds = np.linalg.cond(systems)
    except np.linalg.LinAlgError as exc:
        if strict:
            raise EctViolationError(f"condition check failed for {section!r}: {exc}") from exc
        return None
    if strict:
        _check_conditions(section, conds[0].tolist(), custom)
    elif not (conds <= COND_LIMIT).all():  # NaN included
        return None
    if custom:
        systems = systems[:, 1:-1]
    try:
        coeffs = np.linalg.solve(systems, unit)[..., 0]
    except np.linalg.LinAlgError as exc:
        if strict:
            raise EctViolationError(
                f"singular collocation matrix while building the basis of {section!r}"
            ) from exc
        return None
    left = coeffs @ t_lo
    for j in range(1, p):
        coeffs[:, j] *= -np.add.reduce(left[:, :j, j], axis=1, keepdims=True)
        np.matmul(coeffs[:, j, None], t_lo, out=left[:, j, None])
    return list(map(BernsteinBasis, group, coeffs, left, coeffs @ t_hi))


def _check_conditions(section: SectionSpace, conds: list, custom: bool) -> None:
    """Raise or warn on the condition numbers of one section's systems, in
    the order :func:`build_bases` says: a custom pair's collocation
    splits, then the Hermite system of each ``b_j``."""
    p = section.degree
    if custom:
        # split n_lo is system n_lo, except split p + 1, the last system
        for n_lo, cond in enumerate(conds[: p + 1] + conds[-1:]):
            if not math.isfinite(cond) or cond > COND_LIMIT:
                raise EctViolationError(
                    f"endpoint collocation split {n_lo}/{p + 1 - n_lo} of {section!r} "
                    f"is singular or ill conditioned (cond ~ {cond:.3g})"
                )
        conds = conds[1:-1]
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
                stacklevel=4,
            )
