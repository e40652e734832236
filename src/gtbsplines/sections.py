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
gives the same bits alone as inside an array.  One function,
:func:`normalized_pair`, gives the normalized pair ``(U*, V*)`` of every
family (affine for a polynomial section, the pair above for a
trigonometric/exponential one, the user's pair combined by a 2x2 endpoint
solve for a custom one) at points of the sections of one group; the
non-trivial weights of :func:`weight_system` are its sum and its Wronskian.

Every number a caller gives the package is read here, never converted by
``float``/``int`` alone: :func:`_number` reads a float, :func:`_integer` an
int (no fraction is truncated) and :func:`_numbers` a float array (points
through :func:`_points_in`), each raising the error class of its caller
for a string, a boolean, ``None``, a complex value or ragged rows.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
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
    "normalized_pair",
    "weight_system",
]


def _integer(value, what: str, error: type[Exception]) -> int:
    """``value`` as an int (an int after one type check); anything but a
    whole number of an integer or float type raises ``error``."""
    if type(value) is int:
        return value
    try:
        if np.ndim(value) == 0 and np.asarray(value).dtype.kind in "iuf" and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{what} must be an integer, got {value!r}")


def _number(value, what: str, error: type[Exception]) -> float:
    """``value`` as a float (a float after one type check); anything but a
    scalar of an integer or float type raises ``error``."""
    if type(value) is float:
        return value
    try:
        if type(value) is int or (np.ndim(value) == 0 and np.asarray(value).dtype.kind in "iuf"):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{what} must be a number, got {value!r}")


def _numbers(values, what: str, error: type[Exception]) -> np.ndarray:
    """``values`` as a float array of their shape; an entry that is not of an
    integer or float type (a boolean among numbers too) or ragged rows raise
    ``error`` with a message that completes the rule ``what``."""
    if not (isinstance(values, (np.ndarray, np.generic)) and values.dtype.kind in "iuf"):
        try:
            array = np.asarray(values)
        except (TypeError, ValueError, OverflowError) as exc:
            raise error(f"{what}: {exc}") from exc
        if array.dtype.kind not in "iuf":
            raise error(f"{what}, got {array.dtype} entries")
        if any(isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat):
            raise error(f"{what}, got a boolean entry")
        values = array
    return values.astype(float, copy=False)


def _points_in(x, lo: float, hi: float):
    """``x`` as a float or a 1-D float array (:func:`_numbers`), checked to
    lie in ``[lo, hi]``; a violation names the first offending point."""
    if type(x) is not float:
        x = _numbers(x, "points must be numbers", DomainError)
        if x.ndim > 1:
            raise DomainError(f"points must be a scalar or a 1-D array, got shape {x.shape}")
        x = x.item() if x.ndim == 0 else x
    if type(x) is float:
        if not (lo <= x <= hi):
            raise DomainError(f"x={x!r} outside [{lo}, {hi}]")
        return x
    outside = ~((lo <= x) & (x <= hi))
    if outside.any():
        raise DomainError(f"x={x[np.argmax(outside)].item()!r} outside [{lo}, {hi}]")
    return x


@dataclass(frozen=True)
class Partition:
    """Strictly increasing breakpoints ``x_0 < x_1 < ... < x_m``.

    Interval ``i`` (1-based) is ``[x_{i-1}, x_i)``; the last interval is
    closed.  Evaluation exactly at an interior breakpoint therefore returns
    the limit from the right.
    """

    breakpoints: tuple[float, ...]

    def __post_init__(self):
        bp = tuple(_number(x, "breakpoint", InvalidFamilyError) for x in self.breakpoints)
        if len(bp) < 2:
            raise InvalidFamilyError("a partition needs at least two breakpoints")
        if not all(math.isfinite(x) for x in bp):
            raise InvalidFamilyError(f"breakpoints must be finite, got {bp}")
        if any(b <= a for a, b in zip(bp, bp[1:])):
            raise InvalidFamilyError("breakpoints must be strictly increasing")
        if not math.isfinite(bp[-1] - bp[0]):
            raise InvalidFamilyError(f"domain [{bp[0]}, {bp[-1]}] too long: b - a overflows")
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
        return np.minimum(np.searchsorted(self.breakpoints, x, side="right"), self.num_intervals)


def _check_parameters(family, kind: str, min_degree: int) -> None:
    """A family's ``__post_init__``: store its ``degree`` as an int of at
    least ``min_degree`` and its ``omega``, if it has one, as a positive
    finite float, and check that a custom pair's ``u`` and ``v`` are
    callable; anything else raises :class:`InvalidFamilyError`."""
    degree = _integer(family.degree, f"{kind} degree", InvalidFamilyError)
    if degree < min_degree:
        raise InvalidFamilyError(f"{kind} degree must be >= {min_degree}")
    object.__setattr__(family, "degree", degree)
    if hasattr(family, "omega"):
        omega = _number(family.omega, f"{kind} omega", InvalidFamilyError)
        if not 0.0 < omega < math.inf:
            raise InvalidFamilyError(f"{kind} omega must be positive and finite, got {omega}")
        object.__setattr__(family, "omega", omega)
    if hasattr(family, "u") and not (callable(family.u) and callable(family.v)):
        raise InvalidFamilyError(f"custom pair u, v must be callable: {family.u!r}, {family.v!r}")


@dataclass(frozen=True)
class PolynomialFamily:
    degree: int

    __post_init__ = functools.partialmethod(_check_parameters, "polynomial", 0)


@dataclass(frozen=True)
class TrigonometricFamily:
    degree: int
    omega: float

    __post_init__ = functools.partialmethod(_check_parameters, "trigonometric", 1)


@dataclass(frozen=True)
class ExponentialFamily:
    degree: int
    omega: float

    __post_init__ = functools.partialmethod(_check_parameters, "exponential", 1)


@dataclass(frozen=True)
class GeneralizedPolynomialFamily:
    """Custom pair family: span ``{1, ..., x^(degree-2), u(x), v(x)}``.

    ``u`` and ``v`` are callables ``f(x, order)`` returning the exact
    ``order``-th derivative at ``x`` for every order up to ``degree`` (the
    repr shows ``name`` instead); a return that is no number raises
    :class:`~gtbsplines.errors.EctViolationError` naming the section.
    """

    degree: int
    u: Callable[[float, int], float] = field(repr=False)
    v: Callable[[float, int], float] = field(repr=False)
    name: str = "custom"

    __post_init__ = functools.partialmethod(_check_parameters, "generalized polynomial", 2)


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


def _bernstein_degree(family) -> int:
    """Degree ``q`` of the Bernstein rows that start a section's span basis:
    ``p`` for a polynomial section, ``p - 2`` when the pair follows."""
    return family.degree if isinstance(family, PolynomialFamily) else family.degree - 2


@functools.lru_cache(maxsize=None)
def _binomial_tables(q: int) -> np.ndarray | None:
    """Endpoint tables of the degree-``q`` Bernstein polynomials in ``t`` on
    ``[0, 1]``, stacked as ``[left, right]``: ``D^d B_j(0) = q!/(q-d)!
    (-1)^(d-j) C(d, j)`` (zero for ``j > d``) and, by the mirror ``B_j(t) =
    B_(q-j)(1 - t)``, ``D^d B_j(1) = (-1)^d D^d B_(q-j)(0)``.  Each entry is
    its integer rounded once; entries beyond the float range are infinite.
    ``None``, before any integer work, once entry ``(0, q) = q!`` is."""
    if q > 0 and math.lgamma(q + 1) > math.log(np.finfo(float).max):
        return None
    left = np.zeros((q + 1, q + 1))
    for d in range(q + 1):
        for j in range(d + 1):
            left[j, d] = _as_float((-1) ** (d - j) * math.perm(q, d) * math.comb(d, j))
    tables = np.array([left, left[::-1] * (-1.0) ** np.arange(q + 1)])
    tables.flags.writeable = False
    return tables


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
    # a term's integers: C(r, j - i), and (-1)^(d-i) q!/(q-d)! C(d, i) per (d, i)
    binomial = [[math.comb(n, k) for k in range(n + 1)] for n in range(q + 1)]
    scaled = [
        [(-1) ** (d - i) * math.perm(q, d) * c for i, c in enumerate(binomial[d])]
        for d in range(min(width, q + 1))
    ]
    for j in range(q + 1):
        for d in range(width):
            r = q - d
            if r < 0:
                heads.append((0.0, 0))
                continue
            terms = [
                (_as_float(scaled[d][i] * binomial[r][j - i]), start[d] + j - i)
                for i in range(max(0, j - r), min(d, j) + 1)
            ]
            tails += [(len(heads), f, k) for f, k in terms[1:]]
            heads.append(terms[0])
    return tuple(monomials), tuple(heads), tuple(tails)


def _call_pointwise(section, name: str, x, order: int):
    """The custom pair's function ``name`` (``"u"`` or ``"v"``) of ``section``
    at a point or at each point of an array; a value that is not a number
    raises :class:`EctViolationError` naming the section."""
    f, scalar = getattr(section.family, name), np.ndim(x) == 0
    values = f(x, order) if scalar else [f(t, order) for t in x.tolist()]
    if type(values) is float:  # formats the message below only for a value to read
        return values
    what = f"{name}(x, {order}) of {section!r}"
    if scalar:
        return _number(values, what, EctViolationError)
    return _numbers(values, f"{what} must be numbers", EctViolationError)


def _pair_constants(family, length: float):
    """``(w L, den, [(-w)^d], [w^d])``, orders ``0 .. p``, for a
    trigonometric/exponential pair with parameter ``w`` on a section of
    length ``L``, ``den`` its normalizer ``sin(w L)`` or ``1 - e^(-2 w L)``;
    ``None`` for the other families.  The powers come from repeated
    products, so a huge ``w`` gives ``inf`` factors instead of raising."""
    if not isinstance(family, (TrigonometricFamily, ExponentialFamily)):
        return None
    w, wl = family.omega, family.omega * length
    den = math.sin(wl) if isinstance(family, TrigonometricFamily) else -math.expm1(-2.0 * wl)
    neg, pos = [1.0], [1.0]
    for _ in range(family.degree):
        neg.append(neg[-1] * -w)
        pos.append(pos[-1] * w)
    return wl, den, neg, pos


def _pair_rows(section, x, t, s, constants, orders) -> list:
    """The pair rows of non-polynomial sections of ``section``'s kind at ``x``,
    ``t = (x - x_lo)/L`` and ``s = (x_hi - x)/L``: ``[D^d U(x) for d in
    orders]`` then the same for ``V``.  A custom pair (``constants`` is
    ``None``) calls ``section``'s functions; a trigonometric/exponential one
    gives ``U*``, ``V*`` from :func:`_pair_constants`, evaluating each
    transcendental function once per call."""
    if constants is None:
        return [_call_pointwise(section, f, x, d) for f in "uv" for d in orders]
    # At a point, numpy's values are turned into Python floats: the
    # same bits as the array entries, and cheaper arithmetic.
    scalar = not isinstance(t, np.ndarray)
    wl, den, neg, pos = constants
    a, b = wl * s, wl * t
    if isinstance(section.family, TrigonometricFamily):
        sa, ca, sb, cb = np.sin(a), np.cos(a), np.sin(b), np.cos(b)
        if scalar:
            sa, ca, sb, cb = float(sa), float(ca), float(sb), float(cb)
        # derivative cycle of sin: sin, cos, -sin, -cos
        cyc_a, cyc_b = (sa, ca, -sa, -ca), (sb, cb, -sb, -cb)
        return [neg[d] * cyc_a[d % 4] / den for d in orders] + [
            pos[d] * cyc_b[d % 4] / den for d in orders
        ]
    # (sinh, cosh)(v) / sinh(wl) = e^(v - wl) (1 -+ e^(-2v)) / (1 - e^(-2 wl)),
    # the derivative cycle of sinh: exact and overflow-free for every wl > 0
    ea, ma, eb, mb = np.exp(a - wl), np.expm1(-2.0 * a), np.exp(b - wl), np.expm1(-2.0 * b)
    if scalar:
        ea, ma, eb, mb = float(ea), float(ma), float(eb), float(mb)
    ea, eb = ea / den, eb / den
    ratio_a, ratio_b = (-ma * ea, (2.0 + ma) * ea), (-mb * eb, (2.0 + mb) * eb)
    return [neg[d] * ratio_a[d % 2] for d in orders] + [pos[d] * ratio_b[d % 2] for d in orders]


def _span_table(section, x, x_lo, x_hi, width: int, pair) -> np.ndarray:
    """:meth:`SectionSpace.span_derivatives` unchecked, at a point of
    ``section = [x_lo, x_hi]`` with its ``_pair``, or at an array of points of
    sections of its kind and degree (a custom pair: ``section`` alone) with
    ``x_lo``, ``x_hi`` and the numbers of ``pair`` given per point."""
    p, q = section.degree, _bernstein_degree(section.family)
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
    if q < p:
        entries += _pair_rows(section, x, t, s, pair, range(width))
    if not isinstance(x, np.ndarray):
        return np.array(entries).reshape(p + 1, width)
    out = np.empty((len(x), len(entries)))
    for i, column in enumerate(entries):
        out[:, i] = column
    return out.reshape(len(x), p + 1, width)


def _end_tables(group) -> np.ndarray | None:
    """The span tables at both ends of each section of ``group`` (one kind and
    degree, or one custom pair) as ``(g, 2, p + 1, p + 1)``: the rows of
    :func:`_binomial_tables` scaled by ``L^-d``, equal to :func:`_span_table`'s
    up to the sign of zeros, then :func:`_pair_rows`, bit for bit.  ``None``
    where :func:`_binomial_tables` is; overflow is left to the caller."""
    p, q = group[0].degree, _bernstein_degree(group[0].family)
    exact = _binomial_tables(q)
    if exact is None:
        return None
    scale = np.array([_inverse_powers(s.length, q) for s in group])[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        rows = exact * scale
    if q == p:
        return rows
    tables = np.zeros((len(group), 2, p + 1, p + 1))
    tables[:, :, : q + 1, : q + 1] = rows
    ends = [(s, x, t) for s in group for x, t in ((s.x_lo, 0.0), (s.x_hi, 1.0))]
    pairs = [_pair_rows(s, x, t, 1.0 - t, s._pair, range(p + 1)) for s, x, t in ends]
    tables[:, :, q + 1 :] = np.reshape(pairs, (len(group), 2, 2, p + 1))
    return tables


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
        A trigonometric or exponential ``omega * (x_hi - x_lo)`` that
        underflows to 0 is rejected too: the pair's normalizer vanishes.
    """

    def __init__(self, x_lo: float, x_hi: float, family: SectionFamily):
        x_lo, x_hi = (_number(x, "section end", InvalidFamilyError) for x in (x_lo, x_hi))
        if not (x_lo < x_hi):
            raise InvalidFamilyError(f"empty section interval [{x_lo}, {x_hi}]")
        if not math.isfinite(x_hi - x_lo):
            raise InvalidFamilyError(f"section [{x_lo}, {x_hi}] too long: its length overflows")
        if isinstance(family, TrigonometricFamily) and family.omega * (x_hi - x_lo) >= math.pi:
            raise InvalidFamilyError(
                f"trigonometric section needs omega*length < pi, got "
                f"{family.omega * (x_hi - x_lo):.6g} on [{x_lo}, {x_hi}]"
            )
        self.x_lo, self.x_hi, self.family = x_lo, x_hi, family
        self.degree, self.dim, self.length = family.degree, family.degree + 1, x_hi - x_lo
        self._pair = _pair_constants(family, self.length)
        if self._pair is not None and self._pair[1] == 0.0:  # the pair's normalizer
            raise InvalidFamilyError(f"omega*length of {self!r} underflows to 0")

    def __repr__(self):
        return f"SectionSpace([{self.x_lo}, {self.x_hi}], {self.family!r})"

    def restricted(self, x_lo: float, x_hi: float) -> "SectionSpace":
        """Same family on a subinterval (used when splitting an element)."""
        x_lo, x_hi = (_number(x, "subinterval end", DomainError) for x in (x_lo, x_hi))
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
        max_order = _integer(max_order, "max_order", OrderError)
        if not (0 <= max_order <= self.degree):
            raise OrderError(f"max_order={max_order} outside [0, {self.degree}] for this section")
        return _span_table(self, x, self.x_lo, self.x_hi, max_order + 1, self._pair)


def _pair_at(group, on):
    """Per point ``i``, the numbers ``(w L, den, [(-w)^d], [w^d])`` (orders
    ``0 .. p``) of :func:`_pair_constants` cached on section ``group[on[i]]``;
    ``None`` for a group that is not trigonometric/exponential."""
    if group[0]._pair is None:
        return None
    wl, den, neg, pos = (np.array(c) for c in zip(*(s._pair for s in group)))
    return wl[on], den[on], neg[on].T, pos[on].T


def normalized_pair(group, x, on, orders) -> list:
    """``[D^d U* for d in orders]`` then the same for ``V*``, the normalized
    pair (``U*(x_lo) = V*(x_hi) = 1``, ``U*(x_hi) = V*(x_lo) = 0``) of
    sections of degree >= 1 and one family kind and degree, or of one
    custom-pair section, at point ``x[i]`` of section ``group[on[i]]``: arrays
    over the points, or numbers for a scalar ``x`` and ``on``.  An order
    outside ``[0, p]`` raises :class:`OrderError`."""
    first, p = group[0], group[0].degree
    if p < 1:
        raise InvalidFamilyError("normalized pair needs degree >= 1")
    orders = [_integer(d, "pair order", OrderError) for d in orders]
    if any(not 0 <= d <= p for d in orders):
        raise OrderError(f"pair orders {orders} outside [0, {p}]")
    if isinstance(first.family, GeneralizedPolynomialFamily):
        ends = (first.x_lo, first.x_hi)
        gen = np.array([[_call_pointwise(first, f, z, p - 1) for f in "uv"] for z in ends])
        try:
            combo = np.linalg.solve(gen, np.eye(2))
        except np.linalg.LinAlgError as exc:
            raise InvalidFamilyError(
                "degenerate endpoint system: the reduced pair does not separate "
                "the section endpoints"
            ) from exc
        raw = [[_call_pointwise(first, f, x, p - 1 + d) for f in "uv"] for d in orders]
        return [c[0] * gu + c[1] * gv for c in combo.T for gu, gv in raw]
    lo, hi, length = (np.array([getattr(s, a) for s in group]) for a in ("x_lo", "x_hi", "length"))
    t, s = (x - lo[on]) / length[on], (hi[on] - x) / length[on]
    if isinstance(first.family, PolynomialFamily):
        slope = np.full(np.shape(x), 1.0) / length[on]
        return [row[d] if d < 2 else 0.0 * t for row in ((s, -slope), (t, slope)) for d in orders]
    return _pair_rows(first, x, t, s, _pair_at(group, on), orders)


def _weight_rows(group, xs: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The two non-trivial weights ``[w_{p-1}, w_p]`` of :func:`weight_system`
    as ``(2, len(xs))``, for sections of degree >= 1 and one family kind and
    degree (one custom pair), point ``xs[i]`` on ``group[at[i]]``: each
    section's 100-point grid and ``xs`` in one :func:`normalized_pair` call;
    the first section whose weights are not finite and strictly positive on
    its grid raises InvalidFamilyError."""
    lo, hi = (np.array([getattr(s, a) for s in group]) for a in ("x_lo", "x_hi"))
    grid = np.linspace(lo, hi, 100, axis=1)
    on = np.concatenate([np.repeat(np.arange(len(group)), 100), at])
    # a pair that underflows or overflows gives NaN or infinite weights: they fail
    with np.errstate(all="ignore"):
        u, du, v, dv = normalized_pair(group, np.concatenate([grid.ravel(), xs]), on, [0, 1])
        total = u + v
        values = np.array([total, (u * dv - v * du) / (total * total)])
    positive = (values[:, : grid.size] > 0.0) & (values[:, : grid.size] < np.inf)
    failed = ~np.all(positive.reshape(2, len(group), 100), axis=2)
    if failed.any():
        i = int(np.argmax(failed.any(axis=0)))
        name = "u*+v*" if failed[0, i] else "wronskian weight"
        raise InvalidFamilyError(
            f"weight {name} is not strictly positive on [{group[i].x_lo}, {group[i].x_hi}]"
        )
    # each grid starts at x_lo, where the top weight takes its endpoint value
    ends, values = values[1, : grid.size : 100], values[:, grid.size :]
    return np.array([values[0], values[1] / ends[at]])


def weight_system(section: SectionSpace, xs) -> np.ndarray:
    """Values of the full weight list ``[w_0, ..., w_p]`` of a section at
    ``xs``, a point or a 1-D array of points of the section (one outside it
    raises :class:`DomainError`), as a ``(p + 1, len(xs))`` array, each
    weight scaled so that it has value 1 at the section endpoints.

    With the section's normalized pair ``(U*, V*)`` (:func:`normalized_pair`),
    the first ``p - 1`` weights are identically one, ``w_{p-1} = U* + V*``,
    and the top weight is the Wronskian expression ``(U* DV* - V* DU*) /
    (U* + V*)^2`` divided by its (common) endpoint value, a constant
    rescaling that leaves the section space unchanged but lets weights of
    adjoining sections glue continuously.
    Both non-trivial weights must be strictly positive on the interval; this
    is verified on a uniform 100-point grid and a violation raises
    :class:`~gtbsplines.errors.InvalidFamilyError`, as does a weight that is
    not finite there.  The grid and ``xs`` go through one
    :func:`normalized_pair` call (:func:`_weight_rows`, which the
    integral-recurrence oracle calls once per group of sections).
    """
    p = section.degree
    xs = np.atleast_1d(_points_in(xs, section.x_lo, section.x_hi))
    out = np.ones((p + 1, len(xs)))
    if p > 0:
        out[p - 1 :] = _weight_rows([section], xs, np.zeros(len(xs), dtype=int))
    return out
