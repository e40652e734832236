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
every ``omega L``.  One term layout (:func:`_bernstein_layout`) gives the
Bernstein rows of every table: a section's linear map (:func:`_feature_map`)
times the monomials ``t^a s^b``, in the point and array kernels of
:mod:`gtbsplines.space` (with the pair's values) and in
:meth:`SectionSpace.span_derivatives` alike, all from one feature routine
(:func:`_features`) under a plan of the section's kind, set when the
section is built, and degree (:func:`_feature_plan`).  The pair rows keep
two arithmetics: a value times a power of ``omega`` in the kernel, and
:func:`_pair_rows` in span and end tables, whose bits the built bases rest
on.  Powers come from repeated products and numpy's ``sin``/``cos``/``exp``/
``expm1``, once per call, so a point gives the same bits alone as inside an
array.  :func:`normalized_pair` gives the normalized pair ``(U*, V*)`` of
every family (affine for a polynomial section, the pair above for a
trigonometric/exponential one, the user's pair combined by a 2x2 endpoint
solve for a custom one) at points of the sections of one group; the
non-trivial weights of :func:`weight_system` are its sum and its Wronskian.

Every number a caller gives the package is read here, never converted by
``float``/``int`` alone: :func:`_number` reads a float, :func:`_integer` an
int (no fraction is truncated), :func:`_numbers` a float array (points
through :func:`_points_in`) and :func:`_each` a sequence entry by entry,
each raising the error class of its caller for a string, a boolean,
``None``, a complex value, ragged rows or a sequence that is none.
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
    "weight_system",
]


def _integer(value, what: str, error: type[Exception]) -> int:
    """``value`` as an int (at once for an int or a whole float); anything
    but a whole number of an integer or float type raises ``error``."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
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


def _each(read, values, what: str, error: type[Exception]) -> list:
    """``read(v, what, error)`` of each entry ``v`` of the sequence ``values``."""
    try:
        values = list(values)
    except TypeError:
        raise error(f"{what} entries must come in a sequence, got {values!r}") from None
    return [read(v, what, error) for v in values]


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
        bp = tuple(_each(_number, self.breakpoints, "breakpoint", InvalidFamilyError))
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
        bp = self.breakpoints
        x = _points_in(x, bp[0], bp[-1])
        if isinstance(x, float):
            return min(bisect_right(bp, x), len(bp) - 1)
        return np.minimum(np.searchsorted(bp, x, side="right"), len(bp) - 1)


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

# A section's kind, set with it: the arithmetic of its features and pair rows
# (any other family is a custom pair).
_KINDS = (
    ("polynomial", PolynomialFamily),
    ("trigonometric", TrigonometricFamily),
    ("exponential", ExponentialFamily),
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
    a group of its own.  One group shares one feature arithmetic."""
    groups = {}
    for i, section in indexed:
        custom = isinstance(section.family, GeneralizedPolynomialFamily)
        groups.setdefault(i if custom else (type(section.family), section.degree), []).append(i)
    return groups


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
def _bernstein_layout(q: int, width: int) -> tuple:
    """The one term layout ``(monomials, entry, factor, monomial)`` of the
    derivative table of the degree-``q`` Bernstein basis, orders ``0 ..
    width-1``, which :func:`_feature_map` scatters for every Bernstein row.
    Entry ``(j, d)``, at ``j width + d``, is ``D^d b_j = q!/(q-d)! L^-d
    sum_i (-1)^(d-i) C(d, i) B^(q-d)_(j-i)`` with ``B^r_k = C(r, k) t^k
    s^(r-k)``: a sum over ``i`` of a factor (the sign and three integers,
    rounded once) times the monomial ``t^k s^(r-k) L^-d``, ``r = q - d``,
    listed in ``monomials`` as ``(k, r - k, d)``.  The terms, by entry and
    then ``i``, are the read-only columns ``entry``, ``factor`` and
    ``monomial`` (an index into ``monomials``); an order ``d > q`` has none.
    """
    monomials, terms, start = [], [], []
    for d in range(width):
        start.append(len(monomials))
        monomials += [(k, q - d - k, d) for k in range(q - d + 1)]
    binomial = [[math.comb(n, k) for k in range(n + 1)] for n in range(q + 1)]
    for j in range(q + 1):
        for d in range(min(width, q + 1)):
            r, perm = q - d, (-1) ** d * math.perm(q, d)
            for i in range(max(0, j - r), min(d, j) + 1):  # the factor's integer, rounded once
                factor = perm * (-1) ** i * binomial[d][i] * binomial[r][j - i]
                terms.append((j * width + d, _as_float(factor), start[d] + j - i))
    columns = [np.array([t[c] for t in terms], dtype=k) for c, k in enumerate((int, float, int))]
    for column in columns:
        column.flags.writeable = False
    return (tuple(monomials), *columns)


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


def _pair_constants(family, kind: str, length: float):
    """``(w L, den, ((-w)^d), (w^d))``, orders ``0 .. p``, for a
    trigonometric/exponential pair with parameter ``w`` on a section of
    length ``L``, ``den`` its normalizer ``sin(w L)`` or ``1 - e^(-2 w L)``;
    ``None`` for the other kinds.  The powers come from repeated
    products, so a huge ``w`` gives ``inf`` factors instead of raising."""
    if kind not in ("trigonometric", "exponential"):
        return None
    w, wl = family.omega, family.omega * length
    den = math.sin(wl) if kind == "trigonometric" else -math.expm1(-2.0 * wl)
    neg, pos = [1.0], [1.0]
    for _ in range(family.degree):
        neg.append(neg[-1] * -w)
        pos.append(pos[-1] * w)
    return wl, den, tuple(neg), tuple(pos)


def _transcendentals(trig: bool, wl, s, t) -> tuple:
    """``sin`` and ``cos`` of ``a = w L s`` and of ``b = w L t``, or for an
    exponential pair ``e^(a - w L)``, ``expm1(-2 a)`` and the same of ``b``:
    the transcendental values of :func:`_pair_rows` and :func:`_features`,
    numpy scalars at a point with the same bits as the array entries."""
    a, b = wl * s, wl * t
    if trig:
        return np.sin(a), np.cos(a), np.sin(b), np.cos(b)
    return np.exp(a - wl), np.expm1(-2.0 * a), np.exp(b - wl), np.expm1(-2.0 * b)


def _pair_rows(section, x, t, s, constants, orders) -> list:
    """The pair rows of non-polynomial sections of ``section``'s kind at ``x``,
    ``t = (x - x_lo)/L`` and ``s = (x_hi - x)/L``: ``[D^d U(x) for d in
    orders]`` then the same for ``V``.  A custom pair (``constants`` is
    ``None``) calls ``section``'s functions; a trigonometric/exponential one
    gives ``U*``, ``V*`` from :func:`_pair_constants`, evaluating each
    transcendental function once per call."""
    if constants is None:
        return [_call_pointwise(section, f, x, d) for f in "uv" for d in orders]
    wl, den, neg, pos = constants
    trig = section._kind == "trigonometric"
    a0, a1, b0, b1 = values = _transcendentals(trig, wl, s, t)
    if not isinstance(t, np.ndarray):  # Python floats: an overflow here is no warning
        a0, a1, b0, b1 = map(float, values)
    if trig:
        # derivative cycle of sin: sin, cos, -sin, -cos
        cyc_a, cyc_b = (a0, a1, -a0, -a1), (b0, b1, -b0, -b1)
        return [neg[d] * cyc_a[d % 4] / den for d in orders] + [
            pos[d] * cyc_b[d % 4] / den for d in orders
        ]
    # (sinh, cosh)(v) / sinh(wl) = e^(v - wl) (1 -+ e^(-2v)) / (1 - e^(-2 wl)),
    # the derivative cycle of sinh: exact and overflow-free for every wl > 0
    ea, eb = a0 / den, b0 / den
    ratio_a, ratio_b = (-a1 * ea, (2.0 + a1) * ea), (-b1 * eb, (2.0 + b1) * eb)
    return [neg[d] * ratio_a[d % 2] for d in orders] + [pos[d] * ratio_b[d % 2] for d in orders]


def _feature_plan(section, width: int) -> tuple:
    """The plan of :func:`_features` for ``section``'s kind and degree,
    orders ``0 .. width - 1``: ``(q, powers, kind, section, width)``, with
    the monomials ``powers`` of :func:`_bernstein_layout` and the kind set
    with the section (a plan of kind ``"polynomial"`` gives the monomials
    alone)."""
    return section._q, _bernstein_layout(section._q, width)[0], section._kind, section, width


def _features(plan, x, x_lo, x_hi, length, pair) -> list:
    """The features of the evaluation matrices of :mod:`gtbsplines.space`
    under a :func:`_feature_plan`, at a point of a section ``[x_lo, x_hi]``
    of length ``L`` or at an array of points of sections of the plan's kind
    and degree (a custom pair: the plan's section alone) with ``x_lo``,
    ``x_hi``, ``L`` and ``pair = (w L, den)`` per point: the monomials
    ``t^a s^b``, ``t = (x - x_lo)/L``, ``s = (x_hi - x)/L``, from powers by
    repeated products, then ``sin`` and ``cos`` of ``a = w L s`` and of ``b
    = w L t`` over ``den``, for an exponential pair the ratios ``(sinh,
    cosh)(v) / sinh(w L)`` of :func:`_pair_rows` for ``v = a, b``, and for a
    custom pair (``pair`` is ``None``) ``D^d u``, then ``D^d v``.  Numbers at
    a point, arrays (and numbers) at an array, from the same float
    operations: the point kernel, the array kernel and :func:`_span_table`
    all read them."""
    q, powers, kind, section, width = plan
    t, s = (x - x_lo) / length, (x_hi - x) / length
    t_pow, s_pow = [1.0], [1.0]
    for _ in range(q):
        t_pow.append(t_pow[-1] * t)
        s_pow.append(s_pow[-1] * s)
    out = [t_pow[a] * s_pow[b] for a, b, _ in powers]
    if kind == "polynomial":
        return out
    if kind == "custom":
        return out + [_call_pointwise(section, f, x, d) for f in "uv" for d in range(width)]
    (wl, den), trig = pair, kind == "trigonometric"
    u0, u1, v0, v1 = _transcendentals(trig, wl, s, t)
    if trig:
        return out + [u0 / den, u1 / den, v0 / den, v1 / den]
    u0, v0 = u0 / den, v0 / den
    return out + [-u1 * u0, (2.0 + u1) * u0, -v1 * v0, (2.0 + v1) * v0]


def _span_table(section, x, width: int) -> np.ndarray:
    """:meth:`SectionSpace.span_derivatives` unchecked, at a point or at an
    array of points of ``section``: the Bernstein block of its
    :func:`_feature_map`, built once per ``width`` and kept on the section,
    times the monomials of :func:`_features`, one matrix-vector product per
    point as in the evaluation kernel, then :func:`_pair_rows`."""
    p, q, lo, hi, length = section.degree, section._q, section.x_lo, section.x_hi, section.length
    powers = _bernstein_layout(q, width)[0]
    block = section._span_blocks.get(width)
    if block is None:  # published by one assignment
        rows = _feature_map([section], width)[0, : (q + 1) * width, : len(powers)]
        block = section._span_blocks[width] = rows
    plan = q, powers, "polynomial", section, width  # the monomials alone
    monomials = _stacked(_features(plan, x, lo, hi, length, None), x)
    t, s = (x - lo) / length, (hi - x) / length
    pairs = _pair_rows(section, x, t, s, section._pair, range(width)) if q < p else []
    rows = [(block @ monomials[..., None])[..., 0], _stacked(pairs, x)]
    return np.concatenate(rows, axis=-1).reshape(*np.shape(x), p + 1, width)


def _stacked(entries: list, x) -> np.ndarray:
    """``entries``, numbers at a point ``x`` or arrays (and numbers) at the
    points ``x``, as the array ``(len(entries),)`` or ``(len(x), len(entries))``."""
    if not isinstance(x, np.ndarray):
        return np.array(entries)
    out = np.empty((len(x), len(entries)))
    for i, column in enumerate(entries):
        out[:, i] = column
    return out


def _feature_map(group, width: int) -> np.ndarray:
    """The linear maps ``L_e`` from :func:`_features` to the span tables of
    the sections of ``group`` (one kind and degree, or one custom pair) for
    orders ``0 .. width - 1``, as ``(len(group), (p + 1) width, n_f)``, rows
    ``(j, d)`` row-major: at a monomial, each term's factor of the one layout
    (:func:`_bernstein_layout`) times ``L^-d``, a block :func:`_span_table`
    reads too; at a pair value, ``(-w)^d`` or ``w^d`` with the sign of its
    place in the derivative cycle; at a custom pair's ``D^d u`` or ``D^d
    v``, one."""
    p, q, pair = group[0].degree, group[0]._q, group[0]._pair
    monomials, entry, factor, monomial = _bernstein_layout(q, width)
    f = len(monomials)
    out = np.zeros((len(group), (p + 1) * width, f if q == p else f + (4 if pair else 2 * width)))
    scale = np.array([s._scale[:width] for s in group])
    out[:, entry, monomial] = factor * scale[:, entry % width]
    if q == p:
        return out
    if pair is None:
        out[:, (q + 1) * width :, f:] = np.eye(2 * width)
        return out
    d = np.arange(width)
    trig = group[0]._kind == "trigonometric"
    sign = np.array([1.0, 1.0, -1.0, -1.0])[d % 4] if trig else 1.0  # D^d sin: sin, cos, -sin, -cos
    for side, i in ((0, 2), (1, 3)):  # U* with (-w)^d, V* with w^d
        powers = np.array([s._pair[i][:width] for s in group])
        out[:, (q + 1 + side) * width + d, f + 2 * side + d % 2] = sign * powers
    return out


def _end_tables(group) -> np.ndarray | None:
    """The span tables at both ends of each section of ``group`` (one kind and
    degree, or one custom pair) as ``(g, 2, p + 1, p + 1)``: the rows of
    :func:`_binomial_tables` scaled by ``L^-d``, equal to the evaluation
    map's rows of :func:`_span_table` up to the sign of zeros, then its pair
    rows of :func:`_pair_rows` bit for bit, on which the built bases rest.
    ``None`` where :func:`_binomial_tables` is; overflow is left to the caller."""
    p, q = group[0].degree, group[0]._q
    exact = _binomial_tables(q)
    if exact is None:
        return None
    scale = np.array([s._scale[: q + 1] for s in group])[:, None, None]
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


@dataclass(eq=False, frozen=True, repr=False)
class SectionSpace:
    """One ECT section: a family on a closed interval ``[x_lo, x_hi]``.

    Frozen, with pure methods, compared and hashed by identity.  A table at a
    point reads the constants set on construction: the kind ``_kind``
    (``"polynomial"``, ``"trigonometric"``, ``"exponential"`` or
    ``"custom"``), ``_pair``, the Bernstein degree ``_q`` (``p - 2`` when the
    pair follows) and ``_scale = (1, 1/L, ...)``; ``_span_blocks`` holds the
    Bernstein blocks of its span tables, one per width, built on first use.

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

    x_lo: float
    x_hi: float
    family: SectionFamily

    def __post_init__(self):
        family = self.family
        x_lo, x_hi = (_number(x, "section end", InvalidFamilyError) for x in (self.x_lo, self.x_hi))
        if not (x_lo < x_hi):
            raise InvalidFamilyError(f"empty section interval [{x_lo}, {x_hi}]")
        if not math.isfinite(x_hi - x_lo):
            raise InvalidFamilyError(f"section [{x_lo}, {x_hi}] too long: its length overflows")
        if isinstance(family, TrigonometricFamily) and family.omega * (x_hi - x_lo) >= math.pi:
            raise InvalidFamilyError(
                f"trigonometric section needs omega*length < pi, got "
                f"{family.omega * (x_hi - x_lo):.6g} on [{x_lo}, {x_hi}]"
            )
        length, scale = x_hi - x_lo, [1.0]
        for _ in range(family.degree):  # 1/L^d by repeated division: inf past the float range
            scale.append(scale[-1] / length)
        kind = next((k for k, f in _KINDS if isinstance(family, f)), "custom")
        pair = _pair_constants(family, kind, length)
        q = family.degree - (0 if kind == "polynomial" else 2)
        self.__dict__.update(x_lo=x_lo, x_hi=x_hi, degree=family.degree, dim=family.degree + 1)
        self.__dict__.update(length=length, _kind=kind, _pair=pair, _q=q, _scale=tuple(scale))
        self.__dict__.update(_span_blocks={})
        if pair is not None and pair[1] == 0.0:  # the pair's normalizer
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
        return _span_table(self, x, max_order + 1)


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
    # per point, the (w L, den, [(-w)^d], [w^d]) cached on its section
    wl, den, neg, pos = (np.array(c) for c in zip(*(section._pair for section in group)))
    return _pair_rows(first, x, t, s, (wl[on], den[on], neg[on].T, pos[on].T), orders)


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
