"""Assembled spline spaces: evaluation, curves, knot insertion, scaling.

A :class:`GTSplineSpace` bundles the partition, the per-interval sections
with their Bernstein bases, the two knot vectors, and the extraction
operator ``C`` mapping the global Bernstein vector to the smooth basis
``B(x) = C b(x)``.  All evaluation is one matrix-vector product over the
Bernstein values of the single interval containing ``x``.

Objects are immutable after construction; evaluation is pure and safe to
call concurrently.  Knot insertion returns new objects.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .bernstein import BernsteinBasis, build_bernstein
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
    supersmoothness,
)
from .quadrature import section_rule
from .sections import (
    ExponentialFamily,
    GeneralizedPolynomialFamily,
    Partition,
    PolynomialFamily,
    SectionSpace,
    TrigonometricFamily,
    validate_ect,
)

__all__ = [
    "GTSplineSpace",
    "SplineCurve",
    "build_space",
    "eval_basis",
    "jump",
    "jump_vector",
    "eval_curve",
    "insert_knot",
    "unit_integral_scaling",
]


@dataclass(eq=False)
class GTSplineSpace:
    """A spline space with pieces from per-interval section spaces.

    ``n_basis = n_bernstein - n_constraints`` always holds; on interval ``i``
    (1-based) exactly the basis functions ``sigma(i) - p_i .. sigma(i)``
    are active, and basis function ``k`` vanishes outside ``[u_k, v_k]``.
    """

    partition: Partition
    sections: list[SectionSpace]
    bases: list[BernsteinBasis]
    smoothness: tuple[int, ...]
    knots: KnotVectors
    extraction: ExtractionMatrix = field(repr=False)
    block_start: np.ndarray = field(repr=False)

    @property
    def degrees(self) -> tuple[int, ...]:
        return self.knots.degrees

    @property
    def n_basis(self) -> int:
        return self.extraction.n_basis

    @property
    def n_bernstein(self) -> int:
        return self.extraction.n_bernstein

    @property
    def n_constraints(self) -> int:
        return self.n_bernstein - self.n_basis

    @property
    def operator(self) -> np.ndarray:
        return self.extraction.operator

    @property
    def domain(self) -> tuple[float, float]:
        return self.partition.a, self.partition.b

    def supersmoothness(self, k: int) -> tuple[int, int]:
        """Exact end smoothness pair ``(r_u(k), r_v(k))`` of basis ``k`` (1-based)."""
        return supersmoothness(self.knots, self.degrees, self.smoothness, k)

    def active_range(self, i: int) -> tuple[int, int]:
        """1-based inclusive basis index range active on interval ``i``."""
        sigma = int(self.knots.sigma[i])
        return sigma - self.degrees[i - 1], sigma


def _check_section_families(sections: list[SectionSpace]) -> None:
    for s in sections:
        fam = s.family
        if isinstance(fam, (TrigonometricFamily, ExponentialFamily)) and fam.degree < 2:
            raise ConfigError(
                f"section {fam!r} on [{s.x_lo}, {s.x_hi}]: trigonometric and "
                "exponential sections of a spline space need degree >= 2 "
                "(degree 1 has no constants, breaking partition of unity)"
            )
        if isinstance(fam, GeneralizedPolynomialFamily):
            validate_ect(s)


def _warn_maximal_joints(sections, smoothness) -> None:
    # Existence of the smooth basis is guaranteed only below the maximal
    # order, except for polynomial-polynomial joints.
    for i in range(1, len(sections)):
        left, right = sections[i - 1], sections[i]
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
    partition: Partition,
    sections: list[SectionSpace],
    bases: list[BernsteinBasis],
    smoothness,
) -> GTSplineSpace:
    _warn_maximal_joints(sections, smoothness)
    kv = build_knot_vectors(partition, [s.degree for s in sections], smoothness)
    constraints = build_constraints(bases, kv)
    ext = extraction_operator(constraints)
    if ext.n_basis != kv.n_basis:
        raise GTBError(
            f"internal: dimension mismatch {ext.n_basis} != {kv.n_basis}"
        )
    return GTSplineSpace(
        partition=partition,
        sections=sections,
        bases=bases,
        smoothness=kv.smoothness,
        knots=kv,
        extraction=ext,
        block_start=constraints.block_start,
    )


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
    bases = [build_bernstein(s) for s in sections]
    return _assemble(partition, sections, bases, config.full_smoothness)


def eval_basis(space: GTSplineSpace, x: float, max_order: int = 0) -> np.ndarray:
    """All basis functions and derivatives at one point.

    Returns an ``(N, max_order + 1)`` array whose column ``d`` holds the
    ``d``-th derivatives of all basis functions at ``x``.  Interior
    breakpoints evaluate from the right; the right domain endpoint evaluates
    from the left.
    """
    i = space.partition.locate(x)
    p_i = space.degrees[i - 1]
    if not (0 <= max_order <= p_i):
        raise OrderError(
            f"max_order={max_order} exceeds the local degree {p_i} on interval {i}"
        )
    bvals = space.bases[i - 1].evaluate(x, max_order)
    block = slice(space.block_start[i - 1], space.block_start[i])
    return space.operator[:, block] @ bvals


def _onesided_vector(space: GTSplineSpace, i: int, order: int, side: str) -> np.ndarray:
    """One-sided order-th derivatives of all basis functions at breakpoint i."""
    g = np.zeros(space.n_bernstein)
    if side == "left":
        block = slice(space.block_start[i - 1], space.block_start[i])
        g[block] = space.bases[i - 1].right_table[:, order]
    else:
        block = slice(space.block_start[i], space.block_start[i + 1])
        g[block] = space.bases[i].left_table[:, order]
    return space.operator @ g


def jump_vector(space: GTSplineSpace, i: int, order: int) -> np.ndarray:
    """Jumps ``D^order_- B_k(x_i) - D^order_+ B_k(x_i)`` for all ``k``.

    ``i`` is a 1-based interior breakpoint index.
    """
    m = space.partition.num_intervals
    if not (1 <= i <= m - 1):
        raise DomainError(f"breakpoint index {i} outside [1, {m - 1}]")
    p_left, p_right = space.degrees[i - 1], space.degrees[i]
    if not (0 <= order <= min(p_left, p_right)):
        raise OrderError(
            f"jump order {order} exceeds min local degree {min(p_left, p_right)} "
            f"at breakpoint {i}"
        )
    return _onesided_vector(space, i, order, "left") - _onesided_vector(
        space, i, order, "right"
    )


def jump(space: GTSplineSpace, i: int, order: int, k: int) -> float:
    """Jump of the ``order``-th derivative of basis function ``k`` (1-based)
    at interior breakpoint ``i``."""
    vec = jump_vector(space, i, order)
    if not (1 <= k <= space.n_basis):
        raise DomainError(f"basis index {k} outside [1, {space.n_basis}]")
    return float(vec[k - 1])


@dataclass(eq=False)
class SplineCurve:
    """A parametric curve ``s(x) = sum_k d_k B_k(x)`` in ``R^d``."""

    space: GTSplineSpace
    control: np.ndarray

    def __post_init__(self):
        self.control = np.atleast_2d(np.asarray(self.control, dtype=float))
        if self.control.shape[0] != self.space.n_basis:
            raise ConfigError(
                f"control net has {self.control.shape[0]} rows, space has "
                f"dimension {self.space.n_basis}"
            )

    @property
    def geometric_dim(self) -> int:
        return self.control.shape[1]

    def __call__(self, x: float, order: int = 0) -> np.ndarray:
        return eval_curve(self, x, order)

    def insert_knot(self, x_new: float) -> "SplineCurve":
        refined, transfer = insert_knot(self.space, x_new)
        return SplineCurve(refined, transfer @ self.control)


def eval_curve(curve: SplineCurve, x: float, order: int = 0) -> np.ndarray:
    """Curve point (or ``order``-th derivative vector) at parameter ``x``."""
    basis = eval_basis(curve.space, x, order)[:, order]
    return curve.control.T @ basis


def _refined_components(space: GTSplineSpace, x_new: float):
    """Partition/sections/bases/smoothness of the one-knot refinement,
    plus the refined breakpoint index and the constraint order removed."""
    a, b = space.domain
    if not (a < x_new < b):
        raise InsertionError(f"insertion point {x_new!r} outside ({a}, {b})")
    bp = space.partition.breakpoints
    tol = 1e-12 * (b - a)
    hits = [i for i, x in enumerate(bp) if abs(x - x_new) <= tol]

    if hits:
        i = hits[0]
        r_i = space.smoothness[i]
        if r_i < 0:
            raise InsertionError(
                f"breakpoint x={bp[i]!r} is already fully discontinuous (r=-1)"
            )
        smooth = list(space.smoothness)
        smooth[i] = r_i - 1
        return (
            space.partition,
            list(space.sections),
            list(space.bases),
            tuple(smooth),
            i,
            r_i,
        )

    e = space.partition.locate(x_new)  # 1-based interval containing x_new
    section = space.sections[e - 1]
    left = section.restricted(section.x_lo, x_new)
    right = section.restricted(x_new, section.x_hi)
    sections = list(space.sections)
    sections[e - 1 : e] = [left, right]
    bases = list(space.bases)
    bases[e - 1 : e] = [build_bernstein(left), build_bernstein(right)]
    new_bp = list(bp)
    new_bp.insert(e, x_new)
    smooth = list(space.smoothness)
    smooth.insert(e, section.degree - 1)
    return (
        Partition(tuple(new_bp)),
        sections,
        bases,
        tuple(smooth),
        e,
        section.degree,
    )


def _peak_point(space: GTSplineSpace, k: int, samples: int = 65) -> tuple[float, float]:
    """A point where basis function ``k`` (1-based) is largest, by sampling."""
    lo, hi = space.knots.u[k - 1], space.knots.v[k - 1]
    best_x, best_v = lo, -1.0
    for x in np.linspace(lo, hi, samples):
        v = abs(float(eval_basis(space, float(x))[k - 1, 0]))
        if v > best_v:
            best_x, best_v = float(x), v
    return best_x, best_v


def insert_knot(space: GTSplineSpace, x_new: float):
    """Insert one knot, preserving every spline in the space.

    For an existing interior breakpoint the smoothness there drops by one
    (requires ``r_i >= 0``); otherwise the containing section is split into
    two sections of the same family and the new breakpoint joins them with
    maximal smoothness ``p - 1``.

    The refined space is rebuilt from scratch and the single two-band factor
    relating the two bases, ``B_old = F B_new``, is recovered by sequential
    value matching: with ``alpha_lo = 1`` and ``alpha_{k+1} = 1 - beta_{k+1}``
    (column sums are one), each ``beta_{k+1}`` follows from one evaluation of
    both bases at a peak point of the neighbor function.  This keeps the
    coefficients absolutely accurate even when the underlying derivative
    jumps at the new knot span many orders of magnitude.

    Returns
    -------
    refined : GTSplineSpace
        The refined space with ``N + 1`` basis functions.
    transfer : (N+1, N) ndarray
        Coefficient map: a curve with coefficients ``d`` in the original
        space equals the curve with ``transfer @ d`` in the refined space.
        Every row sums to one.
    """
    partition, sections, bases, smoothness, i, _order = _refined_components(space, x_new)
    refined = _assemble(partition, sections, bases, smoothness)

    lo = int(refined.knots.mu[i])
    hi = int(refined.knots.sigma[i]) + 1
    n = refined.n_basis
    if not (1 <= lo < hi <= n):
        raise GTBError(f"internal: invalid insertion band [{lo}, {hi}] for length {n}")

    beta = np.empty(hi - lo)
    alpha = 1.0
    for k in range(lo, hi):  # band rows; beta_{k+1} via the neighbor's peak
        x_star, peak = _peak_point(refined, k + 1)
        if peak < 1e-6:
            raise GTBError(
                f"refined basis function {k + 1} is numerically negligible; "
                "cannot extract the insertion factor"
            )
        b_old = float(eval_basis(space, x_star)[k - 1, 0])
        refined_pair = eval_basis(refined, x_star)[k - 1 : k + 1, 0]
        beta[k - lo] = (b_old - alpha * refined_pair[0]) / refined_pair[1]
        alpha = 1.0 - beta[k - lo]
    return refined, apply_factor(np.eye(n), (lo, hi), beta).T


def unit_integral_scaling(space: GTSplineSpace) -> np.ndarray:
    """Positive scalings ``s_k`` such that ``s_k B_k`` has unit integral.

    Integrals are computed per element with a fixed-order composite
    Gauss-Legendre rule (order ``2 max(p) + 2``, panel count adapted to each
    section's stiffness), assembled through the extraction operator.
    """
    n_nodes = 2 * max(space.degrees) + 2
    integrals = np.zeros(space.n_basis)
    for i, (section, basis) in enumerate(zip(space.sections, space.bases)):
        xs, ws = section_rule(section, n_nodes)
        bern_ints = np.zeros(section.dim)
        for x, w in zip(xs, ws):
            bern_ints += w * basis.evaluate(x, 0)[:, 0]
        block = slice(space.block_start[i], space.block_start[i + 1])
        integrals += space.operator[:, block] @ bern_ints
    if np.any(integrals <= 0.0):
        raise GTBError("nonpositive basis integral; space is degenerate")
    return 1.0 / integrals
