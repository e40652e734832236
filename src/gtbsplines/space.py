"""Assembled spline spaces: evaluation, curves, knot insertion, scaling.

A :class:`GTSplineSpace` is the partition, the per-interval Bernstein bases
(each holding its section) and the extraction operator ``C``, which holds
the two knot vectors and maps the global Bernstein vector to the smooth
basis ``B(x) = C b(x)``; a space is assembled from its partition, bases and
smoothness alone.  The index layout is read from the knot vectors only:
on interval ``e`` only the ``p_e + 1`` functions ``knots.active_range(e)``
are nonzero, so ``C`` is stored only as that square block per interval
(Bezier element extraction), as the cascade emits it.  Evaluation reads
a per-space element table.  On interval ``e`` the active functions and
their derivatives are one linear map of a few features of the point (the
monomials ``t^a s^b`` and the pair's values), so the table holds, per
group of intervals of one family kind and degree and per number of
orders asked for, the stack of evaluation matrices ``M_e = block_e
coeffs_e L_e``, built on first use, and per interval and number of
orders one point-kernel record: ``M_e``, the output cells it fills, the
interval's ends, length and pair constants, and its feature plan, filled
on the interval's first scalar call at that number of orders.  A point
is one record read, one feature vector and one product with ``M_e``; an
array, or a curve, one feature pass and one stacked product per group,
from the same feature routine.  A breakpoint jump reads the two element
blocks at it.  A knot insertion reruns the cascade only on the sub-space
that the changed functions cover, splices its blocks into the old ones,
and reads dense windows of ``C`` over a few intervals;
``GTSplineSpace.operator``, the full ``C``, is for inspection only.

Spaces, curves and the bases, knot vectors, constraints and operators they
hold are frozen dataclasses with tuple sequences; only the entries of their
numpy arrays can still be written.  Evaluation is pure and safe to call
concurrently.  Knot insertion returns new objects, which share the old
space's unchanged blocks and factors, and build their own tables.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bernstein import BernsteinBasis, build_bases
from .bernstein import build_bernstein  # noqa: F401  (bench/tracer.py wraps this name here)
from .config import SpaceConfig, _control_net
from .errors import (
    AdmissibilityWarning,
    ConfigError,
    DomainError,
    GTBError,
    InsertionError,
    OrderError,
)
from .extraction import (
    ExtractionMatrix,
    KnotVectors,
    apply_factor,
    build_constraints,
    build_knot_vectors,
    extraction_operator,
    jump_rows,
    pin_band_end,
)
from .quadrature import composite_rule
from .sections import (
    Partition,
    SectionSpace,
    _family_groups,
    _integer,
    _number,
    _numbers,
    _feature_map,
    _feature_plan,
    _features,
    _stacked,
    _points_in,
)

__all__ = [
    "GTSplineSpace",
    "SplineCurve",
    "build_space",
    "eval_basis",
    "jump_vector",
    "jump_residuals",
    "eval_curve",
    "insert_knot",
    "unit_integral_scaling",
]


@dataclass(eq=False, frozen=True)
class GTSplineSpace:
    """A spline space with pieces from per-interval section spaces.

    ``n_basis = n_bernstein - n_constraints`` always holds; on interval ``i``
    (1-based) exactly the basis functions ``knots.active_range(i)`` are
    active, and basis function ``k`` vanishes outside ``[u_k, v_k]``.
    ``bases[i - 1].section`` is the section of interval ``i``, and
    ``knots.supersmoothness(k)`` the exact end smoothness of function ``k``.
    A space is frozen and ``knots`` is ``extraction.knots``, so its element
    table (:attr:`_elements`), built on first use, stays that of its parts.
    """

    partition: Partition
    bases: tuple[BernsteinBasis, ...]
    extraction: ExtractionMatrix = field(repr=False)

    @property
    def knots(self) -> KnotVectors:
        return self.extraction.knots

    @property
    def degrees(self) -> tuple[int, ...]:
        return self.knots.degrees

    @property
    def smoothness(self) -> tuple[int, ...]:
        return self.knots.smoothness

    @property
    def n_basis(self) -> int:
        return self.knots.n_basis

    @property
    def n_bernstein(self) -> int:
        return self.knots.n_bernstein

    @property
    def n_constraints(self) -> int:
        return self.n_bernstein - self.n_basis

    @property
    def operator(self) -> np.ndarray:
        """Dense view of the extraction operator, assembled on each access."""
        return self.extraction.operator

    @property
    def domain(self) -> tuple[float, float]:
        return self.partition.a, self.partition.b

    @cached_property
    def _elements(self) -> "_Elements":
        """The element table that evaluation reads, built once, on first use."""
        return _Elements(self)


class _Elements:
    """A space's element table.  ``groups[g]``, of group ``g`` of
    :func:`_family_groups`, is ``(sections, blocks, coeffs, pairs)``: its
    sections, the stacks of their blocks and coefficients (or ``None``) and
    their ``(w L, den)`` as two rows (or ``None``); interval ``e`` is at
    place ``slot[e]`` of group ``group[e]`` and its rows ``sigma[e] - p_e -
    1 .. sigma[e] - 1`` are active on it.  Each group's evaluation matrices
    of one width (:meth:`matrices`) are built on the first evaluation at
    that width, never with the space.  ``kernels[e - 1][d]`` is interval
    ``e``'s point-kernel record for orders ``0 .. d`` (:meth:`kernel`), or
    ``None`` until its first scalar call at that width."""

    def __init__(self, space: GTSplineSpace):
        kv, bases = space.knots, space.bases
        self.breakpoints, self.n_basis = space.partition.breakpoints, kv.n_basis
        self.edges, self.sigma = np.array(self.breakpoints), kv.sigma
        # by 1-based interval: interval e is at place slot[e] of groups[group[e]]
        self.degrees = np.array((0, *kv.degrees))
        self.group, self.slot = np.zeros_like(self.degrees), np.zeros_like(self.degrees)
        self.groups, self._matrices = [], {}
        self.kernels = [[None] * (p + 1) for p in kv.degrees]
        families = _family_groups((e, b.section) for e, b in enumerate(bases, 1))
        for g, es in enumerate(families.values()):
            self.group[es], self.slot[es] = g, range(len(es))
            own = [bases[e - 1] for e in es]
            blocks = np.stack([space.extraction.blocks[e - 1] for e in es])
            coeffs = None if own[0].coeffs is None else np.stack([b.coeffs for b in own])
            sections = [b.section for b in own]
            pairs = sections[0]._pair and np.array([s._pair[:2] for s in sections]).T
            self.groups.append((sections, blocks, coeffs, pairs))

    def kernel(self, e: int, width: int) -> tuple:
        """Interval ``e``'s point-kernel record for orders ``0 .. width - 1``:
        ``(M_e, start, stop, x_lo, x_hi, L, pair, plan)``, its evaluation
        matrix (a view into :meth:`matrices`), the cells ``start .. stop -
        1`` of a flat ``(N, width)`` table that its rows fill, its ends and
        length, its pair's ``(w L, den)`` (or ``None``) and the
        :func:`_feature_plan` of its kind and degree.  Built on the first
        call and published by one assignment, so concurrent calls see it
        whole."""
        g, k = self.group.item(e), self.slot.item(e)
        section, last = self.groups[g][0][k], self.sigma.item(e)
        record = self.kernels[e - 1][width - 1] = (
            self.matrices(g, width)[k],
            (last - section.dim) * width,
            last * width,
            section.x_lo,
            section.x_hi,
            section.length,
            section._pair and section._pair[:2],
            _feature_plan(section, width),
        )
        return record

    def matrices(self, g: int, width: int) -> np.ndarray:
        """The stack of the evaluation matrices ``M_e = block_e coeffs_e L_e``
        of group ``g``'s intervals for orders ``0 .. width - 1``, with ``L_e``
        of :func:`_feature_map`: rows ``(function, order)`` row-major, so that
        ``M_e`` times a point's features (:func:`_features`) is its ``(p + 1,
        width)`` table.  Built on the first call, in one batched product, and
        published by one assignment, so concurrent calls see it whole."""
        stack = self._matrices.get((g, width))
        if stack is None:
            sections, blocks, coeffs, _ = self.groups[g]
            maps = _feature_map(sections, width)
            product = maps.reshape(len(sections), blocks.shape[1], -1)
            if coeffs is not None:
                product = coeffs @ product
            stack = self._matrices[g, width] = (blocks @ product).reshape(maps.shape)
        return stack


def _check_section_families(sections: list[SectionSpace]) -> None:
    for s in sections:
        if s._kind in ("trigonometric", "exponential") and s.degree < 2:
            raise ConfigError(
                f"section {s.family!r} on [{s.x_lo}, {s.x_hi}]: trigonometric and "
                "exponential sections of a spline space need degree >= 2 "
                "(degree 1 has no constants, breaking partition of unity)"
            )


def _warn_maximal_joints(bases, smoothness) -> None:
    # Existence of the smooth basis is guaranteed only below the maximal
    # order, except for polynomial-polynomial joints.
    for i in range(1, len(bases)):
        left, right = bases[i - 1].section, bases[i].section
        if smoothness[i] < min(left.degree, right.degree):
            continue
        if left._kind == right._kind == "polynomial":
            continue
        warnings.warn(
            f"joint at x={left.x_hi!r} uses the maximal smoothness "
            f"r={smoothness[i]} = min(p_i, p_i+1); existence of the smooth "
            "basis is not guaranteed there",
            AdmissibilityWarning,
            stacklevel=3,
        )


def _assemble(
    partition: Partition, bases: tuple[BernsteinBasis, ...], smoothness, offset: int = 0
) -> GTSplineSpace:
    """The space of ``partition``, ``bases`` and ``smoothness`` from one run
    of the cascade; a cascade error names breakpoint ``i + offset`` for the
    space's breakpoint ``i``."""
    kv = build_knot_vectors(partition, [b.degree for b in bases], smoothness)
    ext = extraction_operator(build_constraints(bases, kv), kv, _offset=offset)
    return GTSplineSpace(partition, bases, ext)


def build_space(config: SpaceConfig) -> GTSplineSpace:
    """Build a spline space from a :class:`~gtbsplines.config.SpaceConfig`.

    Raises
    ------
    ConfigError
        On inconsistent lengths or smoothness outside
        ``[-1, min(p_i, p_{i+1})]``.
    BasisNonexistenceError
        When the constraint cascade degenerates (no smooth basis exists).
    """
    partition = Partition(tuple(config.breakpoints))
    sections = [
        SectionSpace(*partition.interval(i + 1), fam)
        for i, fam in enumerate(config.sections)
    ]
    _check_section_families(sections)
    bases = tuple(build_bases(sections))
    _warn_maximal_joints(bases, config.full_smoothness)
    return _assemble(partition, bases, config.full_smoothness)


def eval_basis(space: GTSplineSpace, x, max_order: int = 0) -> np.ndarray:
    """All basis functions and derivatives at a point or at an array of points.

    For a scalar ``x`` returns an ``(N, max_order + 1)`` array whose column
    ``d`` holds the ``d``-th derivatives of all basis functions at ``x``.
    For a 1-D array of ``n`` points returns the ``(n, N, max_order + 1)``
    stack of those tables, equal entry for entry to the scalar calls; the
    points may be unsorted or repeated.  Interior breakpoints evaluate from
    the right; the right domain endpoint evaluates from the left.  A point
    is read once and bisected into the breakpoints; its features times its
    interval's evaluation matrix, one matrix-vector product, are the rows
    of the functions active there: the call reads the point and the order
    once, bisects, reads the interval's point-kernel record
    (:meth:`_Elements.kernel`) and takes that product into the output rows.
    An array runs :func:`_local_values`, whose feature routine and per-point
    products are the same.
    """
    table = space._elements
    bp = table.breakpoints
    x = _points_in(x, bp[0], bp[-1])
    if type(x) is not float:
        elems, max_order = _located(table, x, max_order)
        width = max_order + 1
        out = np.zeros((len(x), table.n_basis, width))
        flat = out.reshape(-1)
        for at, first, values in _local_values(space, x, elems, max_order):
            # rows first .. first + p of a point are one run of cells of ``out``
            start = (at * table.n_basis + first) * width
            flat[start[:, None] + np.arange(values[0].size)] = values.reshape(len(at), -1)
        return out
    e = min(bisect_right(bp, x), len(bp) - 1)
    kernels = table.kernels[e - 1]
    if type(max_order) is not int or not 0 <= max_order < len(kernels):
        max_order = _located(table, np.array([x]), max_order)[1]
    width = max_order + 1
    matrix, start, stop, x_lo, x_hi, length, pair, plan = (
        kernels[max_order] or table.kernel(e, width)
    )
    out = np.zeros(table.n_basis * width)
    matrix.dot(np.array(_features(plan, x, x_lo, x_hi, length, pair)), out=out[start:stop])
    return out.reshape(-1, width)


def _located(table: _Elements, xs: np.ndarray, max_order) -> tuple[np.ndarray, int]:
    """The 1-based intervals of the points ``xs`` (right-limit rule), and
    ``max_order`` as an int checked against their degrees (naming the lowest)."""
    elems = np.minimum(np.searchsorted(table.edges, xs, side="right"), len(table.edges) - 1)
    max_order = _integer(max_order, "max_order", OrderError)
    bad = elems[(table.degrees[elems] < max_order) | (max_order < 0)]
    if bad.size:
        e = int(bad.min())
        raise OrderError(f"max_order={max_order} outside [0, {table.degrees[e]}] on interval {e}")
    return elems, max_order


def _local_values(space: GTSplineSpace, xs: np.ndarray, elems: np.ndarray, max_order: int):
    """The array kernel at the points ``xs`` of the 1-based intervals
    ``elems``, for a ``max_order`` checked by :func:`_located`.  Per group of
    the element table holding points it yields ``(at, first, values)``: the
    group's points (indices into ``xs``), the 0-based first function active
    at each and their ``(len(at), p + 1, max_order + 1)`` values, each with
    the scalar call's bits: one feature pass for the group's points and one
    stacked product with their evaluation matrices, a matrix-vector product
    per point as in the scalar call."""
    table = space._elements
    edges, which, width = table.edges, table.group[elems], max_order + 1
    for g in np.flatnonzero(np.bincount(which)).tolist():
        sections, _, _, pairs = table.groups[g]
        at = np.flatnonzero(which == g)
        e = elems[at]
        x, local, lo, hi = xs[at], table.slot[e], edges[e - 1], edges[e]
        pair, plan = None if pairs is None else pairs[:, local], _feature_plan(sections[0], width)
        features = _stacked(_features(plan, x, lo, hi, hi - lo, pair), x)
        values = table.matrices(g, width)[local] @ features[:, :, None]
        yield at, table.sigma[e] - sections[0].dim, values.reshape(len(at), -1, width)


def jump_vector(space: GTSplineSpace, i: int, order) -> np.ndarray:
    """Jumps ``D^order_- B_k(x_i) - D^order_+ B_k(x_i)`` for all ``k``.

    ``i`` is a 1-based interior breakpoint index.  An int ``order`` gives
    the ``(N,)`` vector, a 1-D sequence of ``n`` orders the ``(N, n)`` array
    of those vectors from one product per side of ``x_i``.
    """
    m = space.partition.num_intervals
    i = _integer(i, "breakpoint index", DomainError)
    if not (1 <= i <= m - 1):
        raise DomainError(f"breakpoint index {i} outside [1, {m - 1}]")
    top = min(space.degrees[i - 1 : i + 1])
    read = _numbers(order, "jump order must be an integer", OrderError)
    orders = [_integer(j, "jump order", OrderError) for j in np.atleast_1d(read).tolist()]
    for j in orders:
        if not (0 <= j <= top):
            raise OrderError(f"jump order {j} outside [0, {top}] at breakpoint {i}")
    # One product per side of x_i for every order up to ``top``, so that a
    # column has the same bits whichever orders are asked for.
    local, lo = _jump_tables(space, [i - 1])[0], space.knots.active_range(i)[0] - 1
    jumps = np.zeros((space.n_basis, top + 1))
    jumps[lo : lo + len(local)] = local
    return jumps[:, orders[0] if read.ndim == 0 else orders]


def jump_residuals(space: GTSplineSpace) -> np.ndarray:
    """The largest ``|D^j_- B_k(x_i) - D^j_+ B_k(x_i)|`` over all ``k`` and
    ``j = 0 .. r_i`` at each interior breakpoint ``x_i`` (zero at ``r_i = -1``),
    bit for bit that of ``jump_vector(space, i, range(r_i + 1))``: one
    :func:`_jump_tables` pass per group of one ``(p_i, p_(i+1), r_i)``."""
    p, r = space.degrees, space.smoothness
    groups: dict[tuple[int, int, int], list[int]] = {}  # the 0-based intervals left of them
    for i in range(1, len(p)):
        if r[i] >= 0:
            groups.setdefault((p[i - 1], p[i], r[i]), []).append(i - 1)
    out = np.zeros(len(p) - 1)
    for (_, _, r_i), es in groups.items():
        out[es] = np.abs(_jump_tables(space, es)[:, :, : r_i + 1]).max(axis=(1, 2))
    return out


def _jump_tables(space: GTSplineSpace, es: list[int]) -> np.ndarray:
    """Orders ``0 .. min(p_i, p_(i+1))`` of the jumps at the ``x_i`` right of
    the 0-based intervals ``es`` of one ``(p_i, p_(i+1), r_i)``, on the rows
    active left or right of ``x_i``: :func:`jump_rows` of the two sides'
    stacked blocks, zero-padded to those rows (the right side's from row
    ``p_i - r_i`` on), with their stacked end tables."""
    blocks, bases = space.extraction.blocks, space.bases
    p_l, p_r, r = space.degrees[es[0]], space.degrees[es[0] + 1], space.smoothness[es[0] + 1]
    left = np.zeros((len(es), p_l + p_r - r + 1, p_l + 1))
    right = np.zeros((len(es), p_l + p_r - r + 1, p_r + 1))
    left[:, : p_l + 1] = [blocks[e] for e in es]
    right[:, p_l - r :] = [blocks[e + 1] for e in es]
    right_ends = np.array([bases[e].right_table for e in es])
    left_ends = np.array([bases[e + 1].left_table for e in es])
    return jump_rows(left, right, (right_ends, left_ends), slice(min(p_l, p_r) + 1))


@dataclass(eq=False, frozen=True)
class SplineCurve:
    """A parametric curve ``s(x) = sum_k d_k B_k(x)`` in ``R^d``."""

    space: GTSplineSpace
    control: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "control", _control_net(self.control, "control net"))
        if self.control.shape[0] != self.space.n_basis:
            raise ConfigError(
                f"control net has {self.control.shape[0]} rows, space has "
                f"dimension {self.space.n_basis}"
            )

    def __call__(self, x, order: int = 0) -> np.ndarray:
        return eval_curve(self, x, order)

    def insert_knot(self, x_new: float) -> "SplineCurve":
        refined, transfer = insert_knot(self.space, x_new)
        return SplineCurve(refined, transfer @ self.control)


def eval_curve(curve: SplineCurve, x, order: int = 0) -> np.ndarray:
    """Curve point (or ``order``-th derivative vector) at parameter ``x``.

    A scalar ``x`` gives a ``(d,)`` vector, a 1-D array of ``n`` points an
    ``(n, d)`` array, each from the ``p + 1`` active values and control rows
    (O(p^2) per point); a scalar runs as an array of one, bit for bit.
    """
    xs = np.atleast_1d(_points_in(x, *curve.space.domain))
    elems, order = _located(curve.space._elements, xs, order)
    out = np.empty((len(xs), curve.control.shape[1]))
    for at, first, values in _local_values(curve.space, xs, elems, order):
        rows = curve.control[first[:, None] + np.arange(values.shape[1])]
        out[at] = (rows.transpose(0, 2, 1) @ values[:, :, order, None])[..., 0]
    return out if np.ndim(x) else out[0]


def _refined_components(space: GTSplineSpace, x_new: float):
    """Partition/bases/smoothness of the one-knot refinement, plus the
    refined breakpoint index and the constraint order removed."""
    a, b = space.domain
    if not (a < x_new < b):
        raise InsertionError(f"insertion point {x_new!r} outside ({a}, {b})")
    bp = space.partition.breakpoints
    tol = 1e-12 * (b - a)
    # x_new - tol is rounded: the first breakpoint within tol is k - 1, k or k + 1.
    k = bisect_left(bp, x_new - tol)
    hits = [i for i in (k - 1, k, k + 1) if 0 <= i < len(bp) and abs(bp[i] - x_new) <= tol]

    if hits:
        i = hits[0]
        if i in (0, len(bp) - 1):
            raise InsertionError(
                f"insertion point {x_new!r} coincides with the domain end x={bp[i]!r}"
            )
        r_i = space.smoothness[i]
        if r_i < 0:
            raise InsertionError(f"breakpoint x={bp[i]!r} is already fully discontinuous (r=-1)")
        smooth = list(space.smoothness)
        smooth[i] = r_i - 1
        return space.partition, space.bases, tuple(smooth), i, r_i

    e = space.partition.locate(x_new)  # 1-based interval containing x_new
    section = space.bases[e - 1].section
    halves = ((section.x_lo, x_new), (x_new, section.x_hi))
    pieces = tuple(build_bases([section.restricted(*ends) for ends in halves]))
    bases = space.bases[: e - 1] + pieces + space.bases[e:]
    new_bp = list(bp)
    new_bp.insert(e, x_new)
    smooth = list(space.smoothness)
    smooth.insert(e, section.degree - 1)
    return Partition(tuple(new_bp)), bases, tuple(smooth), e, section.degree


def _spliced(space, partition, bases, kv, cover) -> GTSplineSpace:
    """The refined space of ``partition``, ``bases`` and knot vectors ``kv``
    from the old ``space`` and one cascade over the sub-space around the
    refined intervals ``cover = (e_lo, e_hi)``, which holds every function
    active on them: from the support start of the first function active on
    ``e_lo`` to the support end of the last one active on ``e_hi``, fully
    discontinuous at both ends.  The blocks of intervals ``e_lo .. e_hi``
    and the factors of the constraints at breakpoints ``e_lo .. e_hi - 1``
    are the sub-space's; every other block and factor is the old space's,
    re-indexed past the split interval or the dropped order.
    """
    e_lo, e_hi = cover
    s = kv.support(kv.active_range(e_lo)[0])[0]
    t = kv.support(kv.active_range(e_hi)[1])[1]
    r = kv.smoothness
    sub_partition = Partition(partition.breakpoints[s : t + 1])
    sub = _assemble(sub_partition, bases[s:t], (-1, *r[s + 1 : t], -1), s)
    old = space.extraction
    split = len(bases) - len(space.bases)
    blocks = (
        old.blocks[: e_lo - 1]
        + sub.extraction.blocks[e_lo - 1 - s : e_hi - s]
        + old.blocks[e_hi - split :]
    )
    # The r_i + 1 constraints of each refined breakpoint i come after those
    # of breakpoints 1 .. i - 1; the sub-space's first is at breakpoint s + 1.
    first, last, start = (sum(r[1:i]) + i - 1 for i in (e_lo, e_hi, s + 1))
    shift = kv.n_bernstein - kv.n_basis - len(old.factors)
    factors = (
        old.factors[:first]
        + sub.extraction.factors[first - start : last - start]
        + old.factors[last - shift :]
    )
    return GTSplineSpace(partition, bases, ExtractionMatrix(blocks, factors, kv))


def insert_knot(space: GTSplineSpace, x_new: float):
    """Insert one knot, preserving every spline in the space.

    For an existing interior breakpoint the smoothness there drops by one
    (requires ``r_i >= 0``); otherwise the containing section is split into
    two sections of the same family and the new breakpoint joins them with
    maximal smoothness ``p - 1``.  A point within ``1e-12`` of the domain
    length of a breakpoint is that breakpoint; at a domain end it raises
    :class:`~gtbsplines.errors.InsertionError`, as does an ``x_new`` that is
    no real number (a string, a boolean, an array, ``None``, a complex).

    Only the refined functions ``lo .. hi`` of the band below change, so the
    cascade reruns only over the sub-space their supports cover, and its
    element blocks and factors are spliced into the old space's (local
    knot insertion, as Boehm, CAD 12, 1980): the cost depends on the degrees
    and smoothness near ``x_new``, not on the number of intervals.  The
    two-band factor of ``B_old = F B_new`` is read from the two operators
    without evaluation:
    ``C_old R = F C_new``, where ``R``, the identity except on a split
    interval, maps the old Bernstein functions to the refined ones through
    the endpoint tables at each half's outer end (one singular in floats
    raises :class:`~gtbsplines.errors.GTBError`).  ``F`` has the band
    ``refined.knots.band(i, r + 1)`` of the order ``r + 1`` no longer
    enforced at the breakpoint ``x_i``; with ``alpha_lo = 1`` and
    ``alpha_{k+1} = 1 - beta_{k+1}``, row ``k`` gives ``beta_{k+1}`` in the
    column of the largest coefficient of refined function ``k + 1``.  A
    ``beta`` that is not finite and positive, or an interior ``alpha`` that
    is not positive, raises :class:`~gtbsplines.errors.GTBError` naming that
    function; the band-end coefficient is pinned to one as in the cascade.

    Returns
    -------
    refined : GTSplineSpace
        The refined space with ``N + 1`` basis functions.
    transfer : (N+1, N) ndarray
        Coefficient map: a curve with coefficients ``d`` in the original
        space equals the curve with ``transfer @ d`` in the refined space.
        Every row sums to one.  The map is the only array of its size the
        call allocates.
    """
    x_new = _number(x_new, "insertion point", InsertionError)
    partition, bases, smoothness, i, order = _refined_components(space, x_new)
    kv = build_knot_vectors(partition, [b.degree for b in bases], smoothness)
    lo, hi = kv.band(i, order)
    # Refined intervals e_lo .. e_hi run from the start of function lo's
    # support to the end of function hi's; the old ones lack the split.
    e_lo, e_hi = kv.support(lo)[0] + 1, kv.support(hi)[1]
    split = len(bases) > len(space.bases)
    refined = _spliced(space, partition, bases, kv, (e_lo, e_hi))
    n = refined.n_basis
    new = refined.extraction.window(lo - 1, hi, e_lo, e_hi)
    old = space.extraction.window(lo - 1, hi - 1, e_lo, e_hi - split)
    if split:
        whole, left, right = space.bases[i - 1], bases[i - 1], bases[i]
        at = space.knots.block_start[i - 1] - space.knots.block_start[e_lo - 1]
        try:
            r_left = np.linalg.solve(left.left_table.T, whole.left_table.T).T
            r_right = np.linalg.solve(right.right_table.T, whole.right_table.T).T
        except np.linalg.LinAlgError as exc:  # a half's end table is singular in floats
            raise GTBError(f"insertion at x={x_new!r} splits {whole.section!r}: {exc}") from exc
        piece, rest = old[:, at : at + len(r_left)], old[:, at + len(r_left) :]
        old = np.hstack([old[:, :at], piece @ r_left, piece @ r_right, rest])

    # Band row r: old function lo + r (1-based) and refined lo + r, lo + r + 1.
    rows, cols = np.arange(hi - lo), new[1:].argmax(axis=1)
    b_old, b_new, b_next = old[rows, cols], new[rows, cols], new[rows + 1, cols]
    beta, alpha = np.empty(hi - lo), 1.0
    for r in range(hi - lo):
        beta[r] = (b_old[r] - alpha * b_new[r]) / b_next[r]
        alpha = 1.0 - beta[r]
        if not (np.isfinite(beta[r]) and beta[r] > 0.0 and (alpha > 0.0 or r == hi - lo - 1)):
            raise GTBError(
                f"insertion at x={x_new!r}: nonpositive or non-finite coefficient "
                f"{beta[r]!r} of refined basis function {lo + r + 1}"
            )
    pin_band_end(beta)
    # The transpose of the (n-1) x n two-band factor F: unit entries outside
    # the band, the band's own factor inside it.
    transfer = np.zeros((n, n - 1))
    head = np.arange(lo - 1)
    transfer[head, head] = 1.0
    tail = np.arange(hi - 1, n - 1)
    transfer[tail + 1, tail] = 1.0
    transfer[lo - 1 : hi, lo - 1 : hi - 1] = apply_factor(
        np.eye(hi - lo + 1), (1, hi - lo + 1), beta
    ).T
    return refined, transfer


def unit_integral_scaling(space: GTSplineSpace) -> np.ndarray:
    """Positive scalings ``s_k`` such that ``s_k B_k`` has unit integral.

    The integrals use a composite Gauss-Legendre rule of order ``2 max(p) + 2``
    (panel count adapted to each section's stiffness) on all sections at once,
    evaluated by the array kernel and summed per basis function.
    """
    x, w, elems = composite_rule([b.section for b in space.bases], 2 * max(space.degrees) + 2)
    integrals = np.zeros(space.n_basis)
    for at, first, values in _local_values(space, x, elems, 0):
        rows = first[:, None] + np.arange(values.shape[1])
        np.add.at(integrals, rows, w[at, None] * values[:, :, 0])
    if np.any(integrals <= 0.0):
        raise GTBError("nonpositive basis integral; space is degenerate")
    return 1.0 / integrals
