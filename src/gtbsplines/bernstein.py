"""Bernstein-like bases of section spaces.

The Bernstein basis ``{b_0, ..., b_p}`` of a section is the analogue of the
binomial Bernstein polynomials: ``b_j`` vanishes to order ``j`` at the left
endpoint and to order ``p - j`` at the right endpoint, the basis is
nonnegative, and for sections containing constants it sums to one.

The construction gathers the dense Hermite interpolation
problems of all ``p + 1`` functions from the section's endpoint tables and
solves them as one stack directly in the span basis, after one batched
condition check; no integration is involved.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningWarning, EctViolationError
from .sections import COND_LIMIT, SectionSpace

__all__ = ["BernsteinBasis", "build_bernstein"]


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
        return self.coeffs @ self.section.span_derivatives(x, max_order)


@functools.lru_cache(maxsize=None)
def _hermite_systems(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Row indices and right-hand sides of the ``p + 1`` Hermite systems.

    The indices point into the stacked endpoint table ``[t_lo | t_hi]^T``,
    whose rows ``d`` and ``p + 1 + d`` hold the ``d``-th derivatives of the
    span basis at ``x_lo`` resp. ``x_hi``.  System ``j`` takes the low
    orders ``0 .. j-1``, the high orders ``0 .. p-j-1`` and its
    normalization row: low order ``j`` for ``j < p``, high order ``0`` for
    ``j = p``.  The normalization row comes first for ``b_0`` and last
    otherwise; the right-hand side is one there and zero elsewhere.  (The
    computed condition number of a nearly singular matrix depends on its
    row order, so this keeps the one a function-by-function solve reports.)
    """
    rows = np.array(
        [[0] + [p + 1 + d for d in range(p)]]
        + [
            list(range(j)) + [p + 1 + d for d in range(p - j)] + [j if j < p else p + 1]
            for j in range(1, p + 1)
        ]
    )
    unit = np.zeros((p + 1, p + 1, 1))
    unit[1:, p] = 1.0
    unit[0, 0] = 1.0
    rows.flags.writeable = unit.flags.writeable = False
    return rows, unit


def build_bernstein(section: SectionSpace) -> BernsteinBasis:
    """Construct the Bernstein-like basis of a section by Hermite solves.

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
    before it.  The condition numbers of the whole stack are checked first,
    in ``j`` order, once the endpoint tables are finite: a non-finite table,
    a failed check or a non-finite number raises
    :class:`~gtbsplines.errors.EctViolationError`, each number above ``1e12``
    warns with :class:`~gtbsplines.errors.ConditioningWarning`.
    """
    p = section.degree
    t_lo = section.span_derivatives(section.x_lo, p)
    t_hi = section.span_derivatives(section.x_hi, p)
    if not np.isfinite([t_lo, t_hi]).all():  # p!/(p-d)! overflows from p = 171 on
        raise EctViolationError(f"non-finite endpoint derivative tables of {section!r}")
    rows, unit = _hermite_systems(p)
    systems = np.concatenate([t_lo, t_hi], axis=1).T[rows]
    try:
        conds = np.linalg.cond(systems).tolist()
    except np.linalg.LinAlgError as exc:
        raise EctViolationError(f"condition check failed for {section!r}: {exc}") from exc
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

