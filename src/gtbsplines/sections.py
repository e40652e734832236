"""Local section spaces: the building blocks of a mixed-family spline space.

Each section is an extended Tchebycheff (ECT-) space of dimension ``p + 1``
on one closed interval of the partition.  Four families are supported:

* ``PolynomialFamily(p)`` -- span ``{1, x, ..., x^p}``,
* ``TrigonometricFamily(p, omega)`` -- span ``{1, x, ..., x^(p-2), sin(omega x),
  cos(omega x)}``, valid while ``omega * length < pi``,
* ``ExponentialFamily(p, omega)`` -- span ``{1, x, ..., x^(p-2), sinh(omega x),
  cosh(omega x)}``,
* ``GeneralizedPolynomialFamily(p, u, v)`` -- span ``{1, x, ..., x^(p-2),
  u(x), v(x)}`` for user-supplied functions with exact derivatives.

For numerical work every section exposes a *span basis* together with exact
derivative tables.  The span basis uses interval-shifted monomials
``(x - x_lo)^j`` and, for the trigonometric/exponential families, the
interval-normalized pair ``{U*, V*}`` (endpoint values 0 and 1) instead of
raw ``sin``/``sinh`` values; this keeps endpoint collocation matrices
well conditioned even for stiff parameters such as ``sinh(10 x)`` on wide
intervals.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, EctViolationError, InvalidFamilyError, OrderError

__all__ = [
    "Partition",
    "PolynomialFamily",
    "TrigonometricFamily",
    "ExponentialFamily",
    "GeneralizedPolynomialFamily",
    "SectionSpace",
    "weight_system",
    "endpoint_collocation_matrix",
    "validate_ect",
]


@dataclass(frozen=True)
class Partition:
    """Strictly increasing breakpoints ``x_0 < x_1 < ... < x_m``.

    Interval ``i`` (1-based) is ``[x_{i-1}, x_i)``; the last interval is
    closed.  Evaluation exactly at an interior breakpoint therefore returns
    the limit from the right.
    """

    breakpoints: tuple[float, ...]

    def __post_init__(self):
        bp = tuple(float(x) for x in self.breakpoints)
        if len(bp) < 2:
            raise InvalidFamilyError("a partition needs at least two breakpoints")
        if not all(math.isfinite(x) for x in bp):
            raise InvalidFamilyError(f"breakpoints must be finite, got {bp}")
        if any(b <= a for a, b in zip(bp, bp[1:])):
            raise InvalidFamilyError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)

    @property
    def num_intervals(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def a(self) -> float:
        return self.breakpoints[0]

    @property
    def b(self) -> float:
        return self.breakpoints[-1]

    def interval(self, i: int) -> tuple[float, float]:
        """Closed hull of interval ``i`` (1-based)."""
        return self.breakpoints[i - 1], self.breakpoints[i]

    def locate(self, x):
        """1-based index of the interval containing ``x`` (right-limit rule).

        ``x`` is a scalar, giving an ``int``, or a 1-D array, giving an
        integer array of the same length.
        """
        if isinstance(x, float) or np.ndim(x) == 0:
            if not (self.a <= x <= self.b):
                raise DomainError(f"x={x!r} outside [{self.a}, {self.b}]")
            return min(bisect_right(self.breakpoints, x), self.num_intervals)
        xs = np.asarray(x, dtype=float)
        if xs.ndim != 1:
            raise DomainError(f"points must be a scalar or a 1-D array, got shape {xs.shape}")
        outside = ~((self.a <= xs) & (xs <= self.b))
        if outside.any():
            bad = float(xs[np.argmax(outside)])
            raise DomainError(f"x={bad!r} outside [{self.a}, {self.b}]")
        idx = np.searchsorted(self.breakpoints, xs, side="right")
        return np.minimum(idx, self.num_intervals)


@dataclass(frozen=True)
class PolynomialFamily:
    degree: int

    def __post_init__(self):
        if self.degree < 0:
            raise InvalidFamilyError("polynomial degree must be >= 0")


@dataclass(frozen=True)
class TrigonometricFamily:
    degree: int
    omega: float

    def __post_init__(self):
        if self.degree < 1:
            raise InvalidFamilyError("trigonometric degree must be >= 1")
        if not 0.0 < self.omega < math.inf:
            raise InvalidFamilyError(
                f"trigonometric omega must be positive and finite, got {self.omega}"
            )


@dataclass(frozen=True)
class ExponentialFamily:
    degree: int
    omega: float

    def __post_init__(self):
        if self.degree < 1:
            raise InvalidFamilyError("exponential degree must be >= 1")
        if not 0.0 < self.omega < math.inf:
            raise InvalidFamilyError(
                f"exponential omega must be positive and finite, got {self.omega}"
            )


@dataclass(frozen=True)
class GeneralizedPolynomialFamily:
    """Custom pair family: span ``{1, ..., x^(degree-2), u(x), v(x)}``.

    ``u`` and ``v`` are callables ``f(x, order)`` returning the exact
    ``order``-th derivative at ``x`` for every order up to ``degree``.
    """

    degree: int
    u: Callable[[float, int], float]
    v: Callable[[float, int], float]
    name: str = "custom"

    def __post_init__(self):
        if self.degree < 2:
            raise InvalidFamilyError("generalized polynomial degree must be >= 2")


SectionFamily = (
    PolynomialFamily | TrigonometricFamily | ExponentialFamily | GeneralizedPolynomialFamily
)


def _sinh_ratio(a: float, b: float) -> float:
    """sinh(a)/sinh(b) for 0 <= a <= b, stable for large arguments."""
    if b < 30.0:
        return math.sinh(a) / math.sinh(b)
    return math.exp(a - b) * (-math.expm1(-2.0 * a)) / (-math.expm1(-2.0 * b))


def _cosh_ratio(a: float, b: float) -> float:
    """cosh(a)/sinh(b) for 0 <= a <= b, stable for large arguments."""
    if b < 30.0:
        return math.cosh(a) / math.sinh(b)
    return math.exp(a - b) * (1.0 + math.exp(-2.0 * a)) / (-math.expm1(-2.0 * b))


class SectionSpace:
    """One ECT section: a family on a closed interval ``[x_lo, x_hi]``.

    Immutable after construction; all evaluation methods are pure.

    Parameters
    ----------
    x_lo, x_hi : float
        Interval endpoints, ``x_lo < x_hi``.
    family : SectionFamily
        Family descriptor.  Trigonometric sections additionally require
        ``omega * (x_hi - x_lo) < pi`` (strictly); at equality the section
        stops being an extended Tchebycheff space and is rejected.
    """

    def __init__(self, x_lo: float, x_hi: float, family: SectionFamily):
        x_lo, x_hi = float(x_lo), float(x_hi)
        if not (x_lo < x_hi):
            raise InvalidFamilyError(f"empty section interval [{x_lo}, {x_hi}]")
        if isinstance(family, TrigonometricFamily):
            if family.omega * (x_hi - x_lo) >= math.pi:
                raise InvalidFamilyError(
                    f"trigonometric section needs omega*length < pi, got "
                    f"{family.omega * (x_hi - x_lo):.6g} on [{x_lo}, {x_hi}]"
                )
        self.x_lo = x_lo
        self.x_hi = x_hi
        self.family = family
        self.degree = family.degree
        self.dim = family.degree + 1
        self.length = x_hi - x_lo

    def __repr__(self):
        return f"SectionSpace([{self.x_lo}, {self.x_hi}], {self.family!r})"

    def restricted(self, x_lo: float, x_hi: float) -> "SectionSpace":
        """Same family on a subinterval (used when splitting an element)."""
        if not (self.x_lo <= x_lo < x_hi <= self.x_hi):
            raise DomainError(
                f"[{x_lo}, {x_hi}] is not a subinterval of [{self.x_lo}, {self.x_hi}]"
            )
        return SectionSpace(x_lo, x_hi, self.family)

    # -- span basis ------------------------------------------------------

    def span_derivatives(self, x: float, max_order: int) -> np.ndarray:
        """Derivative table of the span basis at a point.

        Returns a ``(p + 1, max_order + 1)`` array whose entry ``(j, d)`` is
        the ``d``-th derivative of span function ``j`` at ``x``.  Row order:
        shifted monomials first, then (for two-function families) ``U*`` and
        ``V*``.
        """
        x = float(x)
        if not (self.x_lo <= x <= self.x_hi):
            raise DomainError(f"x={x!r} outside [{self.x_lo}, {self.x_hi}]")
        if not (0 <= max_order <= self.degree):
            raise OrderError(
                f"max_order={max_order} outside [0, {self.degree}] for this section"
            )
        p = self.degree
        out = np.zeros((p + 1, max_order + 1))
        if isinstance(self.family, PolynomialFamily):
            self._monomial_rows(out, x, n_rows=p + 1)
            return out
        self._monomial_rows(out, x, n_rows=p - 1)
        for d in range(max_order + 1):
            out[p - 1, d], out[p, d] = self._pair_derivative(x, d)
        return out

    def _monomial_rows(self, out: np.ndarray, x: float, n_rows: int) -> None:
        # D^d (x - x_lo)^j = j!/(j-d)! (x - x_lo)^(j-d)
        t = x - self.x_lo
        max_order = out.shape[1] - 1
        for j in range(n_rows):
            fac = 1.0
            for d in range(min(j, max_order) + 1):
                out[j, d] = fac * t ** (j - d)
                fac *= j - d
        return

    def _pair_derivative(self, x: float, order: int = 0) -> tuple[float, float]:
        """``order``-th derivative of the two non-polynomial span functions at x."""
        fam = self.family
        if isinstance(fam, TrigonometricFamily):
            w, L = fam.omega, self.length
            s = math.sin(w * L)
            a = w * (self.x_hi - x)
            b = w * (x - self.x_lo)
            # derivative cycle of sin: sin, cos, -sin, -cos
            cyc_a = (math.sin(a), math.cos(a), -math.sin(a), -math.cos(a))[order % 4]
            cyc_b = (math.sin(b), math.cos(b), -math.sin(b), -math.cos(b))[order % 4]
            return ((-w) ** order) * cyc_a / s, (w**order) * cyc_b / s
        if isinstance(fam, ExponentialFamily):
            w, L = fam.omega, self.length
            a = w * (self.x_hi - x)
            b = w * (x - self.x_lo)
            ratio = _sinh_ratio if order % 2 == 0 else _cosh_ratio
            return ((-w) ** order) * ratio(a, w * L), (w**order) * ratio(b, w * L)
        if isinstance(fam, GeneralizedPolynomialFamily):
            return float(fam.u(x, order)), float(fam.v(x, order))
        raise InvalidFamilyError(f"family {fam!r} has no two-function pair")

    # -- normalized pair and weights --------------------------------------

    def normalized_pair_derivatives(self):
        """Normalized two-function generators ``(U*, V*)`` of the section.

        Returns one callable ``f(x, order=0)`` giving the exact derivatives
        ``(D^order U*(x), D^order V*(x))``; the pair satisfies
        ``U*(x_lo) = 1``, ``U*(x_hi) = 0``, ``V*(x_lo) = 0``,
        ``V*(x_hi) = 1``.
        """
        fam = self.family
        lo, hi, L = self.x_lo, self.x_hi, self.length
        if isinstance(fam, PolynomialFamily):
            if fam.degree < 1:
                raise InvalidFamilyError("normalized pair needs degree >= 1")

            def affine(x, order=0):
                k = min(order, 2)
                return ((hi - x) / L, -1.0 / L, 0.0)[k], ((x - lo) / L, 1.0 / L, 0.0)[k]

            return affine
        if isinstance(fam, (TrigonometricFamily, ExponentialFamily)):
            return self._pair_derivative
        # Custom pair: normalize D^(p-1) of the raw generators by a 2x2
        # endpoint solve.
        p = fam.degree
        gen = np.array(
            [
                [fam.u(lo, p - 1), fam.v(lo, p - 1)],
                [fam.u(hi, p - 1), fam.v(hi, p - 1)],
            ]
        )
        try:
            combo = np.linalg.solve(gen, np.eye(2))
        except np.linalg.LinAlgError as exc:
            raise InvalidFamilyError(
                "degenerate endpoint system: the reduced pair does not separate "
                "the section endpoints"
            ) from exc
        cu, cv = combo[:, 0], combo[:, 1]

        def custom(x, order=0):
            gu, gv = fam.u(x, p - 1 + order), fam.v(x, p - 1 + order)
            return cu[0] * gu + cu[1] * gv, cv[0] * gu + cv[1] * gv

        return custom


def _weight_values(pair, xs) -> np.ndarray:
    """``w_{p-1}`` and ``w_p`` (unscaled) at the points ``xs`` as a
    ``(2, len(xs))`` array, from one evaluation of the pair per order and
    point."""
    out = np.empty((2, len(xs)))
    for i, x in enumerate(xs):
        u, v = pair(x)
        du, dv = pair(x, 1)
        s = u + v
        out[0, i] = s
        out[1, i] = (u * dv - v * du) / (s * s)
    return out


def _positive_weight_pair(section: SectionSpace, samples: int = 100):
    """The section's normalized pair callable, once both non-trivial weights
    are found strictly positive on a uniform grid of ``samples`` points."""
    pair = section.normalized_pair_derivatives()
    values = _weight_values(pair, np.linspace(section.x_lo, section.x_hi, samples))
    for row, name in zip(values, ("u*+v*", "wronskian weight")):
        if not np.all(row > 0.0):
            raise InvalidFamilyError(
                f"weight {name} is not strictly positive on "
                f"[{section.x_lo}, {section.x_hi}]"
            )
    return pair


def weight_system(section: SectionSpace, xs) -> np.ndarray:
    """Values of the full weight list ``[w_0, ..., w_p]`` of a section at the
    points ``xs``, as a ``(p + 1, len(xs))`` array, each weight scaled so that
    it has value 1 at the section endpoints.

    With the normalized pair ``(U*, V*)`` of
    :meth:`SectionSpace.normalized_pair_derivatives`, the first ``p - 1``
    weights are identically one, ``w_{p-1} = U* + V*``, and the top weight is
    the Wronskian expression ``(U* DV* - V* DU*) / (U* + V*)^2`` divided by
    its (common) endpoint value, a constant rescaling that leaves the section
    space unchanged but lets weights of adjoining sections glue continuously.
    Both non-trivial weights must be strictly positive on the interval; this
    is verified on a uniform 100-point grid and a violation raises
    :class:`~gtbsplines.errors.InvalidFamilyError`.  Both weights come from
    one evaluation of the pair per order and point.  Used by the
    integral-recurrence oracles, which call it once per element, on the
    element's interpolation nodes.
    """
    p = section.degree
    out = np.ones((p + 1, len(xs)))
    if p == 0:
        return out
    pair = _positive_weight_pair(section)
    values = _weight_values(pair, [section.x_lo, *xs])
    out[p - 1] = values[0, 1:]
    out[p] = values[1, 1:] / values[1, 0]
    return out


def endpoint_collocation_matrix(section: SectionSpace, n_lo: int) -> np.ndarray:
    """Two-point Hermite collocation matrix of the span basis.

    Row block 1: derivatives of order ``0 .. n_lo - 1`` at ``x_lo``;
    row block 2: orders ``0 .. p - n_lo`` at ``x_hi``.  Any such split is
    nonsingular exactly when the section is an extended Tchebycheff space.
    """
    p = section.degree
    if not (0 <= n_lo <= p + 1):
        raise OrderError(f"n_lo={n_lo} outside [0, {p + 1}]")
    rows = []
    if n_lo > 0:
        t_lo = section.span_derivatives(section.x_lo, n_lo - 1)
        rows.extend(t_lo[:, d] for d in range(n_lo))
    if n_lo <= p:
        t_hi = section.span_derivatives(section.x_hi, p - n_lo)
        rows.extend(t_hi[:, d] for d in range(p - n_lo + 1))
    return np.array(rows)


def validate_ect(section: SectionSpace, cond_limit: float = 1e12) -> None:
    """Heuristic ECT check: every two-point endpoint collocation split must be
    nonsingular (and reasonably conditioned).

    This is a necessary condition only; it is the documented validation applied
    to user-supplied generalized polynomial pairs.
    """
    for n_lo in range(section.degree + 2):
        mat = endpoint_collocation_matrix(section, n_lo)
        if not np.all(np.isfinite(mat)):
            raise EctViolationError("collocation matrix has non-finite entries")
        cond = np.linalg.cond(mat)
        if not np.isfinite(cond) or cond > cond_limit:
            raise EctViolationError(
                f"endpoint collocation split {n_lo}/{section.degree + 1 - n_lo} is "
                f"singular or ill conditioned (cond ~ {cond:.3g})"
            )
