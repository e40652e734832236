"""Assembled spline spaces: evaluation, curves, knot insertion, scaling.

A :class:`GTSplineSpace` bundles the partition, the per-interval Bernstein
bases (each holding its section), the two knot vectors, and the extraction
operator ``C`` mapping the global Bernstein vector to the smooth basis
``B(x) = C b(x)``; a space is assembled from its partition, bases and
smoothness alone.  The index layout is read from the knot vectors only:
on interval ``e`` only the ``p_e + 1`` functions ``knots.active_range(e)``
are nonzero, so ``C`` is stored only as that square block per interval
(Bezier element extraction), as the cascade emits it.  Evaluation at a
point is one product of a block with the Bernstein values of the interval;
an array takes one batched product and one span-table pass per group of
intervals of one family kind and degree.  A breakpoint jump reads the two
element blocks at it.  A knot insertion reruns the cascade only on the
sub-space that the changed functions cover, splices its blocks into the
old ones, and reads dense windows of ``C`` over a few intervals;
``GTSplineSpace.operator``, the full ``C``, is for inspection only.

Objects are immutable after construction; evaluation is pure and safe to
call concurrently.  Knot insertion returns new objects, which share the
old space's unchanged blocks and factors.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .bernstein import BernsteinBasis, build_bases, build_bernstein
from .config import SpaceConfig
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
    pin_band_end,
)
from .quadrature import composite_rule
from .sections import (
    ExponentialFamily,
    Partition,
    PolynomialFamily,
    SectionSpace,
    TrigonometricFamily,
    _family_groups,
    _integer,
    _number,
    _numbers,
    _pair_at,
    _points_in,
    _span_table,
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


@dataclass(eq=False)
class GTSplineSpace:
    """A spline space with pieces from per-interval section spaces.

    ``n_basis = n_bernstein - n_constraints`` always holds; on interval ``i``
    (1-based) exactly the basis functions ``knots.active_range(i)`` are
    active, and basis function ``k`` vanishes outside ``[u_k, v_k]``.
    ``bases[i - 1].section`` is the section of interval ``i``, and
    ``knots.supersmoothness(k)`` the exact end smoothness of function ``k``.
    """

    partition: Partition
    bases: list[BernsteinBasis]
    knots: KnotVectors
    extraction: ExtractionMatrix = field(repr=False)

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


def _check_section_families(sections: list[SectionSpace]) -> None:
    for s in sections:
        fam = s.family
        if isinstance(fam, (TrigonometricFamily, ExponentialFamily)) and fam.degree < 2:
            raise ConfigError(
                f"section {fam!r} on [{s.x_lo}, {s.x_hi}]: trigonometric and "
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
        if isinstance(left.family, PolynomialFamily) and isinstance(
            right.family, PolynomialFamily
        ):
            continue
        warnings.warn(
            f"joint at x={left.x_hi!r} uses the maximal smoothness "
            f"r={smoothness[i]} = min(p_i, p_i+1); existence of the smooth "
            "basis is not guaranteed there",
            AdmissibilityWarning,
            stacklevel=3,
        )


def _assemble(
    partition: Partition, bases: list[BernsteinBasis], smoothness, offset: int = 0
) -> GTSplineSpace:
    """The space of ``partition``, ``bases`` and ``smoothness`` from one run
    of the cascade; a cascade error names breakpoint ``i + offset`` for the
    space's breakpoint ``i``."""
    kv = build_knot_vectors(partition, [b.degree for b in bases], smoothness)
    ext = extraction_operator(build_constraints(bases, kv), _offset=offset)
    return GTSplineSpace(partition, bases, kv, ext)


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
    bases = build_bases(sections)
    _warn_maximal_joints(bases, config.full_smoothness)
    return _assemble(partition, bases, config.full_smoothness)


def eval_basis(space: GTSplineSpace, x, max_order: int = 0) -> np.ndarray:
    """All basis functions and derivatives at a point or at an array of points.

    For a scalar ``x`` returns an ``(N, max_order + 1)`` array whose column
    ``d`` holds the ``d``-th derivatives of all basis functions at ``x``.
    For a 1-D array of ``n`` points returns the ``(n, N, max_order + 1)``
    stack of those tables, equal entry for entry to the scalar calls; the
    points may be unsorted or repeated.  Interior breakpoints evaluate from
    the right; the right domain endpoint evaluates from the left.
    """
    elems = space.partition.locate(x)  # reads and checks the points
    max_order = _check_order(space, elems, max_order)
    if isinstance(elems, int):
        values = space.extraction.blocks[elems - 1] @ space.bases[elems - 1].evaluate(x, max_order)
        lo = space.knots.active_range(elems)[0] - 1
        out = np.zeros((space.n_basis, max_order + 1))
        out[lo : lo + len(values)] = values
        return out
    xs = _points_in(x, *space.domain)
    out = np.zeros((len(xs), space.n_basis, max_order + 1))
    for at, first, values in _local_values(space, xs, elems, max_order):
        out[at[:, None], first[:, None] + np.arange(values.shape[1])] = values
    return out


def _check_order(space: GTSplineSpace, elems, max_order) -> int:
    """``max_order`` as an int, checked against the local degree of the
    1-based interval ``elems`` or of each interval of an array of them; the
    lowest offending interval is named."""
    max_order = _integer(max_order, "max_order", OrderError)
    if not isinstance(elems, int):
        bad = (np.array(space.degrees)[elems - 1] < max_order) | (max_order < 0)
        if not bad.any():
            return max_order
        elems = int(elems[bad].min())
    p_e = space.degrees[elems - 1]
    if not (0 <= max_order <= p_e):
        raise OrderError(f"max_order={max_order} outside [0, {p_e}] on interval {elems}")
    return max_order


def _local_values(space: GTSplineSpace, xs: np.ndarray, elems: np.ndarray, max_order: int):
    """The array kernel at the points ``xs`` of the 1-based intervals
    ``elems``, for a ``max_order`` checked by :func:`_check_order`.  Per
    group of intervals of one family kind and degree (a custom pair: one
    interval) it yields ``(at, first, values)``: the group's
    points (indices into ``xs``), the 0-based first function active at each
    and their ``(len(at), p + 1, max_order + 1)`` values, from one
    span-table pass and one batched product each with the coefficients and
    the blocks, each row with the scalar call's bits."""
    # the intervals holding points of each group, ascending
    held = np.flatnonzero(np.bincount(elems)).tolist()
    groups = _family_groups((e, space.bases[e - 1].section) for e in held)
    breakpoints = np.array(space.partition.breakpoints)
    for intervals in groups.values():
        inside = np.zeros(len(breakpoints), dtype=bool)
        inside[intervals] = True
        at = np.flatnonzero(inside[elems])
        local = np.searchsorted(intervals, elems[at])  # each point's place in intervals
        bases = [space.bases[e - 1] for e in intervals]
        section, pair = bases[0].section, _pair_at([b.section for b in bases], local)
        x_lo, x_hi = breakpoints[elems[at] - 1], breakpoints[elems[at]]
        values = _span_table(section, xs[at], x_lo, x_hi, max_order + 1, pair)
        if bases[0].coeffs is not None:
            values = np.stack([b.coeffs for b in bases])[local] @ values
        values = np.stack([space.extraction.blocks[e - 1] for e in intervals])[local] @ values
        del x_lo, x_hi, pair  # free the per-point inputs before the caller scatters
        yield at, space.knots.sigma[elems[at]] - section.degree - 1, values


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
    scalar = np.ndim(order) == 0
    orders = [_integer(j, "jump order", OrderError) for j in ([order] if scalar else order)]
    for j in orders:
        if not (0 <= j <= top):
            raise OrderError(f"jump order {j} outside [0, {top}] at breakpoint {i}")
    # One product per side of x_i for every order up to ``top``, so that a
    # column has the same bits whichever orders are asked for.
    local, lo = _jump_tables(space, [i - 1])[0], space.knots.active_range(i)[0] - 1
    jumps = np.zeros((space.n_basis, top + 1))
    jumps[lo : lo + len(local)] = local
    return jumps[:, orders[0] if scalar else orders]


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
    active left or right of ``x_i``: one stacked product per side of the
    blocks with their end tables, the right side's rows ``p_i - r_i`` on."""
    blocks, bases = space.extraction.blocks, space.bases
    p_l, p_r, r = space.degrees[es[0]], space.degrees[es[0] + 1], space.smoothness[es[0] + 1]
    top = min(p_l, p_r) + 1
    block = [np.array([blocks[e + side] for e in es]) for side in (0, 1)]
    jumps = np.zeros((len(es), p_l + p_r - r + 1, top))
    jumps[:, : p_l + 1] = block[0] @ np.array([bases[e].right_table[:, :top] for e in es])
    jumps[:, p_l - r :] -= block[1] @ np.array([bases[e + 1].left_table[:, :top] for e in es])
    return jumps


@dataclass(eq=False)
class SplineCurve:
    """A parametric curve ``s(x) = sum_k d_k B_k(x)`` in ``R^d``."""

    space: GTSplineSpace
    control: np.ndarray

    def __post_init__(self):
        rule = "control net must be rows of numbers"
        self.control = np.atleast_2d(_numbers(self.control, rule, ConfigError))
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
    ``(n, d)`` array.
    """
    basis = eval_basis(curve.space, x, order)[..., -1, None]  # column ``order``
    # One matrix-vector product per point, so that rows equal scalar calls.
    return (curve.control.T @ basis)[..., 0]


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
        return space.partition, list(space.bases), tuple(smooth), i, r_i

    e = space.partition.locate(x_new)  # 1-based interval containing x_new
    section = space.bases[e - 1].section
    halves = ((section.x_lo, x_new), (x_new, section.x_hi))
    bases = list(space.bases)
    bases[e - 1 : e] = [build_bernstein(section.restricted(*ends)) for ends in halves]
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
    return GTSplineSpace(partition, bases, kv, ExtractionMatrix(blocks, factors, kv))


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
    the endpoint tables at each half's outer end.  ``F`` has the band
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
        r_left = np.linalg.solve(left.left_table.T, whole.left_table.T).T
        r_right = np.linalg.solve(right.right_table.T, whole.right_table.T).T
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
