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
derivative tables.  Every family starts from the binomial Bernstein
polynomials ``C(q, k) t^k s^(q-k)`` of degree ``q`` in ``t = (x - x_lo)/L``
and ``s = (x_hi - x)/L``, whose derivatives are exact lower-degree Bernstein
values scaled by ``L^-d``: ``q = p`` for a polynomial section, whose span
basis is then its Bernstein basis, and ``q = p - 2`` otherwise.  The other
families append their pair: the user's ``u``, ``v`` for a custom pair and,
for the trigonometric/exponential families, the interval-normalized pair
``{U*, V*}`` (endpoint values 0 and 1) instead of raw ``sin``/``sinh``
values; this keeps endpoint collocation matrices well conditioned even for
stiff parameters such as ``sinh(10 x)`` on wide intervals.  The pair is a
function of ``omega * L``, ``t`` and ``s``; the exponential one has the one
overflow-free formula ``sinh(v)/sinh(omega L) = e^(v - omega L) (1 -
e^(-2v)) / (1 - e^(-2 omega L))`` (and ``1 + e^(-2v)`` for ``cosh``) for
every ``omega L``.  One table arithmetic tabulates the span basis at a point
(:meth:`SectionSpace.span_derivatives`) or, in one numpy pass, at an array of
points of one section or of many sections of one kind and degree (the grouped
array kernel of :mod:`gtbsplines.space`); powers come from repeated products
and ``sin``/``cos``/``exp``/``expm1`` from numpy, once per call, so a point
gives the same bits alone as inside an array.  The normalized pairs and the
weights accept arrays too.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidFamilyError, OrderError

__all__ = [
    "Partition",
    "PolynomialFamily",
    "TrigonometricFamily",
    "ExponentialFamily",
    "GeneralizedPolynomialFamily",
    "SectionSpace",
    "weight_system",
]


def _points_in(x, lo: float, hi: float):
    """``x`` as a float or a 1-D float array, checked to lie in ``[lo, hi]``;
    a violation names the first offending point."""
    if isinstance(x, float) or np.ndim(x) == 0:
        x = float(x)
        if not (lo <= x <= hi):
            raise DomainError(f"x={x!r} outside [{lo}, {hi}]")
        return x
    xs = np.asarray(x, dtype=float)
    if xs.ndim != 1:
        raise DomainError(f"points must be a scalar or a 1-D array, got shape {xs.shape}")
    outside = ~((lo <= xs) & (xs <= hi))
    if outside.any():
        raise DomainError(f"x={float(xs[np.argmax(outside)])!r} outside [{lo}, {hi}]")
    return xs


def _integer(value, what: str, error: type[Exception]) -> int:
    """``value`` as an int; a boolean and anything that is not a whole
    number raise ``error`` rather than being converted or truncated."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            if int(value) == value:
                return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise error(f"{what} must be an integer, got {value!r}")


def _number(value, what: str, error: type[Exception]) -> float:
    """``value`` as a float; a string, even a numeric one, a boolean (which
    ``float`` reads as 0 or 1), an array, even of one element, and anything
    else ``float`` cannot convert raise ``error``."""
    if not isinstance(value, (str, bool, np.bool_)):
        try:
            if type(value) in (float, int) or np.ndim(value) == 0:
                return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise error(f"{what} must be a number, got {value!r}")


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
        x = _points_in(x, self.a, self.b)
        if isinstance(x, float):
            return min(bisect_right(self.breakpoints, x), self.num_intervals)
        idx = np.searchsorted(self.breakpoints, x, side="right")
        return np.minimum(idx, self.num_intervals)


def _check_parameters(family, kind: str, min_degree: int) -> None:
    """Store a family's ``degree`` as an int of at least ``min_degree`` and
    its ``omega``, if it has one, as a positive finite float; anything else
    raises :class:`InvalidFamilyError`."""
    degree = _integer(family.degree, f"{kind} degree", InvalidFamilyError)
    if degree < min_degree:
        raise InvalidFamilyError(f"{kind} degree must be >= {min_degree}")
    object.__setattr__(family, "degree", degree)
    if hasattr(family, "omega"):
        omega = _number(family.omega, f"{kind} omega", InvalidFamilyError)
        if not 0.0 < omega < math.inf:
            raise InvalidFamilyError(f"{kind} omega must be positive and finite, got {omega}")
        object.__setattr__(family, "omega", omega)


@dataclass(frozen=True)
class PolynomialFamily:
    degree: int

    def __post_init__(self):
        _check_parameters(self, "polynomial", 0)


@dataclass(frozen=True)
class TrigonometricFamily:
    degree: int
    omega: float

    def __post_init__(self):
        _check_parameters(self, "trigonometric", 1)


@dataclass(frozen=True)
class ExponentialFamily:
    degree: int
    omega: float

    def __post_init__(self):
        _check_parameters(self, "exponential", 1)


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
        _check_parameters(self, "generalized polynomial", 2)


SectionFamily = (
    PolynomialFamily | TrigonometricFamily | ExponentialFamily | GeneralizedPolynomialFamily
)


def _as_float(n: int) -> float:
    """The integer ``n`` rounded to a float; ``+-inf`` beyond the float range."""
    try:
        return float(n)
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _family_groups(indexed) -> dict:
    """The indices of ``(index, section)`` pairs grouped by the sections'
    family kind and degree, each group in the given order; a custom pair is
    a group of its own.  One group shares one span-table arithmetic."""
    groups = {}
    for i, section in indexed:
        custom = isinstance(section.family, GeneralizedPolynomialFamily)
        groups.setdefault(i if custom else (type(section.family), section.degree), []).append(i)
    return groups


def _inverse_powers(length: float, n: int) -> list[float]:
    """``[1, 1/L, ..., 1/L^n]`` by repeated division; ``inf`` past the float
    range, where ``L ** -n`` would raise."""
    out = [1.0]
    for _ in range(n):
        out.append(out[-1] / length)
    return out


@functools.lru_cache(maxsize=None)
def _bernstein_layout(q: int, width: int) -> tuple[tuple, tuple, tuple]:
    """Layout ``(monomials, heads, tails)`` of the derivative table of the
    degree-``q`` Bernstein basis, orders ``0 .. width-1``.

    Entry ``(j, d)`` is ``D^d b_j = q!/(q-d)! L^-d sum_i (-1)^(d-i) C(d, i)
    B^(q-d)_(j-i)`` with ``B^r_k = C(r, k) t^k s^(r-k)``: a sum over ``i`` of
    a factor, which folds in the sign and the three integers, times the
    monomial ``t^k s^(r-k) L^-d``, ``r = q - d``.  ``monomials`` lists these
    as ``(k, r - k, d)``, ``heads`` each entry's first term ``(factor,
    monomial)``, row-major, and ``tails`` every further term ``(entry,
    factor, monomial)``, in ``i`` order.  An order ``d > q`` has no
    monomials; its entries are ``0.0`` times the first monomial, exact zeros.
    """
    monomials, heads, tails, start = [], [], [], []
    for d in range(width):
        start.append(len(monomials))
        monomials += [(k, q - d - k, d) for k in range(q - d + 1)]
    for j in range(q + 1):
        for d in range(width):
            r = q - d
            if r < 0:
                heads.append((0.0, 0))
                continue
            terms = [
                (
                    _as_float(
                        (-1) ** (d - i) * math.perm(q, d) * math.comb(d, i) * math.comb(r, j - i)
                    ),
                    start[d] + j - i,
                )
                for i in range(max(0, j - r), min(d, j) + 1)
            ]
            tails += [(len(heads), f, k) for f, k in terms[1:]]
            heads.append(terms[0])
    return tuple(monomials), tuple(heads), tuple(tails)


def _call_pointwise(f: Callable[[float, int], float], x, order: int):
    """A user callable ``f(x, order)`` at a point or at each point of an array."""
    if np.ndim(x) == 0:
        return float(f(x, order))
    return np.array([f(t, order) for t in x.tolist()], dtype=float)


def _pair_constants(family, length: float, orders):
    """``(w L, den, [(-w)^d], [w^d])`` over ``orders`` for a
    trigonometric/exponential pair with parameter ``w`` on a section of
    length ``L``, ``den`` its normalizer ``sin(w L)`` or ``1 - e^(-2 w L)``;
    ``None`` for the other families.  The powers come from repeated
    products, so a huge ``w`` gives ``inf`` factors instead of raising."""
    if not isinstance(family, (TrigonometricFamily, ExponentialFamily)):
        return None
    w, wl = family.omega, family.omega * length
    den = math.sin(wl) if isinstance(family, TrigonometricFamily) else -math.expm1(-2.0 * wl)
    neg, pos = [1.0], [1.0]
    for _ in range(max(orders)):
        neg.append(neg[-1] * -w)
        pos.append(pos[-1] * w)
    return wl, den, [neg[d] for d in orders], [pos[d] for d in orders]


def _pair_rows(family, t, s, constants, orders) -> tuple[list, list]:
    """``[D^d U*(x) for d in orders]`` and ``[D^d V*(x) for d in orders]``
    of a trigonometric/exponential section at ``t = (x - x_lo)/L`` and ``s =
    (x_hi - x)/L``, from :func:`_pair_constants` whose factor lists start at
    the same orders.  Each transcendental function is evaluated once per
    call, whatever the number of orders."""
    # At a point, numpy's values are turned into Python floats: the
    # same bits as the array entries, and cheaper arithmetic.
    scalar = not isinstance(t, np.ndarray)
    wl, den, neg, pos = constants
    a, b = wl * s, wl * t
    if isinstance(family, TrigonometricFamily):
        sa, ca, sb, cb = np.sin(a), np.cos(a), np.sin(b), np.cos(b)
        if scalar:
            sa, ca, sb, cb = float(sa), float(ca), float(sb), float(cb)
        # derivative cycle of sin: sin, cos, -sin, -cos
        cyc_a, cyc_b = (sa, ca, -sa, -ca), (sb, cb, -sb, -cb)
        return (
            [f * cyc_a[d % 4] / den for f, d in zip(neg, orders)],
            [f * cyc_b[d % 4] / den for f, d in zip(pos, orders)],
        )
    # (sinh, cosh)(v) / sinh(wl) = e^(v - wl) (1 -+ e^(-2v)) / (1 - e^(-2 wl)),
    # the derivative cycle of sinh: exact and overflow-free for every wl > 0
    ea, ma, eb, mb = np.exp(a - wl), np.expm1(-2.0 * a), np.exp(b - wl), np.expm1(-2.0 * b)
    if scalar:
        ea, ma, eb, mb = float(ea), float(ma), float(eb), float(mb)
    ea, eb = ea / den, eb / den
    ratio_a, ratio_b = (-ma * ea, (2.0 + ma) * ea), (-mb * eb, (2.0 + mb) * eb)
    return (
        [f * ratio_a[d % 2] for f, d in zip(neg, orders)],
        [f * ratio_b[d % 2] for f, d in zip(pos, orders)],
    )


def _span_table(family, x, x_lo, x_hi, width: int, pair) -> np.ndarray:
    """:meth:`SectionSpace.span_derivatives` unchecked, at a point of the
    section ``[x_lo, x_hi]`` with its ``_pair``, or at an array of points of
    sections of one kind and degree (one custom pair) with ``x_lo``,
    ``x_hi`` and the numbers of ``pair`` given per point."""
    p = family.degree
    q = p if isinstance(family, PolynomialFamily) else p - 2
    # powers by repeated products, a monomial's three factors left to
    # right, an entry's terms in i order
    length = x_hi - x_lo
    t, s = (x - x_lo) / length, (x_hi - x) / length
    t_pow, s_pow = [1.0], [1.0]
    for _ in range(q):
        t_pow.append(t_pow[-1] * t)
        s_pow.append(s_pow[-1] * s)
    scale = _inverse_powers(length, width - 1)
    monomials, heads, tails = _bernstein_layout(q, width)
    mono = [scale[d] * t_pow[a] * s_pow[b] for a, b, d in monomials]
    entries = [f * mono[k] for f, k in heads]
    for e, f, k in tails:
        entries[e] += f * mono[k]  # in place on an array: a fresh product
    if pair is not None:
        us, vs = _pair_rows(family, t, s, pair, range(width))
        entries += us
        entries += vs
    elif q < p:  # a custom pair: the user's functions
        entries += [_call_pointwise(family.u, x, d) for d in range(width)]
        entries += [_call_pointwise(family.v, x, d) for d in range(width)]
    if not isinstance(x, np.ndarray):
        return np.array(entries).reshape(p + 1, width)
    out = np.empty((len(x), len(entries)))
    for i, column in enumerate(entries):
        out[:, i] = column
    return out.reshape(len(x), p + 1, width)


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
        self._pair = _pair_constants(family, self.length, range(family.degree + 1))

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

    def span_derivatives(self, x, max_order: int) -> np.ndarray:
        """Derivative table of the span basis at a point or at an array of points.

        For a scalar ``x`` returns a ``(p + 1, max_order + 1)`` array whose
        entry ``(j, d)`` is the ``d``-th derivative of span function ``j`` at
        ``x``.  For a 1-D array of ``n`` points returns the
        ``(n, p + 1, max_order + 1)`` stack of those tables.  Row order: the
        Bernstein polynomials ``b_0 .. b_q`` in ``t = (x - x_lo)/L``, ``q =
        p`` for a polynomial section and ``p - 2`` otherwise, whose orders
        above ``q`` are exact zeros; then, for the other families, the pair
        ``U``, ``V`` (``U*``, ``V*`` for the trigonometric/exponential
        families).  Both forms run the same floating-point operations
        (:func:`_span_table`), so each table of the stack equals the scalar
        call bit for bit.
        """
        x = _points_in(x, self.x_lo, self.x_hi)
        if type(max_order) is not int:  # an int skips the call on the scalar path
            max_order = _integer(max_order, "max_order", OrderError)
        if not (0 <= max_order <= self.degree):
            raise OrderError(
                f"max_order={max_order} outside [0, {self.degree}] for this section"
            )
        return _span_table(self.family, x, self.x_lo, self.x_hi, max_order + 1, self._pair)

    # -- normalized pair and weights --------------------------------------

    def normalized_pair_derivatives(self):
        """Normalized two-function generators ``(U*, V*)`` of the section.

        Returns one callable ``f(x, order=0)`` giving the exact derivatives
        ``(D^order U*(x), D^order V*(x))`` at a point, as floats, or at a 1-D
        array of points, as arrays; the pair satisfies ``U*(x_lo) = 1``,
        ``U*(x_hi) = 0``, ``V*(x_lo) = 0``, ``V*(x_hi) = 1``.  Only the
        user's ``u``/``v`` callables of a custom pair are called point by
        point.
        """
        fam = self.family
        lo, hi, L = self.x_lo, self.x_hi, self.length
        if isinstance(fam, PolynomialFamily):
            if fam.degree < 1:
                raise InvalidFamilyError("normalized pair needs degree >= 1")

            def affine(x, order=0):
                if order == 0:
                    return (hi - x) / L, (x - lo) / L
                du, dv = (-1.0 / L, 1.0 / L) if order == 1 else (0.0, 0.0)
                if np.ndim(x) == 0:
                    return du, dv
                return np.full(len(x), du), np.full(len(x), dv)

            return affine
        if isinstance(fam, (TrigonometricFamily, ExponentialFamily)):

            def pair(x, order=0):
                t, s = (x - lo) / L, (hi - x) / L
                (u,), (v,) = _pair_rows(fam, t, s, _pair_constants(fam, L, [order]), [order])
                return u, v

            return pair
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
            gu = _call_pointwise(fam.u, x, p - 1 + order)
            gv = _call_pointwise(fam.v, x, p - 1 + order)
            return cu[0] * gu + cu[1] * gv, cv[0] * gu + cv[1] * gv

        return custom


def _weight_values(pair, xs: np.ndarray) -> np.ndarray:
    """``w_{p-1}`` and ``w_p`` (unscaled) at the points ``xs`` as a
    ``(2, len(xs))`` array, from one array evaluation of the pair per order."""
    u, v = pair(xs)
    du, dv = pair(xs, 1)
    s = u + v
    return np.array([s, (u * dv - v * du) / (s * s)])


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
    :class:`~gtbsplines.errors.InvalidFamilyError`.  The grid and ``xs`` go
    through one array evaluation of the pair per order.  Used by the
    integral-recurrence oracles, which call it once per element, on the
    element's interpolation nodes.
    """
    p = section.degree
    out = np.ones((p + 1, len(xs)))
    if p == 0:
        return out
    pair = section.normalized_pair_derivatives()
    grid = np.linspace(section.x_lo, section.x_hi, 100)
    values = _weight_values(pair, np.concatenate([grid, xs]))
    for row, name in zip(values[:, : len(grid)], ("u*+v*", "wronskian weight")):
        if not np.all(row > 0.0):
            raise InvalidFamilyError(
                f"weight {name} is not strictly positive on "
                f"[{section.x_lo}, {section.x_hi}]"
            )
    # the grid starts at x_lo, where the top weight takes its endpoint value
    out[p - 1] = values[0, len(grid) :]
    out[p] = values[1, len(grid) :] / values[1, 0]
    return out
