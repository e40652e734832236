"""Shared test utilities: finite differences, random space configs,
classical polynomial oracles (Boehm insertion, per-element extraction), the
extraction cascade on the dense running operator, and the Bernstein
construction by one Hermite solve per function."""

from __future__ import annotations

import math
import warnings

import numpy as np

from gtbsplines import (
    BernsteinBasis,
    ConditioningWarning,
    EctViolationError,
    ExponentialFamily,
    PolynomialFamily,
    SpaceConfig,
    TrigonometricFamily,
    apply_factor,
    jump_rows,
    nullspace_step,
)


def central_diff(f, x: float, h: float = 1e-6) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def random_config(
    rng: np.random.Generator,
    n_intervals: int | None = None,
    families: tuple[str, ...] = ("polynomial", "trigonometric", "exponential"),
    max_degree: int = 4,
) -> SpaceConfig:
    """A random valid mixed-family space with guaranteed basis existence
    (interior smoothness kept below the maximal order except for
    polynomial-polynomial joints)."""
    m = int(n_intervals or rng.integers(1, 5))
    lengths = rng.uniform(0.4, 1.6, m)
    start = float(rng.uniform(-2.0, 2.0))
    breakpoints = np.concatenate([[start], start + np.cumsum(lengths)])
    sections = []
    for i in range(m):
        kind = rng.choice(families)
        length = lengths[i]
        if kind == "polynomial":
            sections.append(PolynomialFamily(int(rng.integers(1, max_degree + 1))))
        elif kind == "trigonometric":
            degree = int(rng.integers(2, max_degree + 1))
            omega = float(rng.uniform(0.2, 0.95)) * math.pi / length
            sections.append(TrigonometricFamily(degree, omega))
        else:
            degree = int(rng.integers(2, max_degree + 1))
            omega = float(rng.uniform(0.5, 8.0)) / length
            sections.append(ExponentialFamily(degree, omega))
    smoothness = []
    for i in range(m - 1):
        left, right = sections[i], sections[i + 1]
        cap = min(left.degree, right.degree)
        both_poly = isinstance(left, PolynomialFamily) and isinstance(right, PolynomialFamily)
        if not both_poly:
            cap -= 1
        smoothness.append(int(rng.integers(-1, cap + 1)))
    return SpaceConfig(list(breakpoints), sections, smoothness)


def uniform_poly_config(
    rng: np.random.Generator, degree: int, n_intervals: int
) -> SpaceConfig:
    """Uniform-degree polynomial space with random interior multiplicities."""
    lengths = rng.uniform(0.3, 1.5, n_intervals)
    breakpoints = np.concatenate([[0.0], np.cumsum(lengths)])
    smoothness = [int(rng.integers(-1, degree)) for _ in range(n_intervals - 1)]
    return SpaceConfig(
        list(breakpoints), [PolynomialFamily(degree)] * n_intervals, smoothness
    )


def boehm_insert(knots: np.ndarray, degree: int, control: np.ndarray, x_new: float):
    """Classical single-knot insertion for polynomial B-splines.

    Returns (new_knots, new_control)."""
    knots = np.asarray(knots, dtype=float)
    control = np.atleast_2d(np.asarray(control, dtype=float))
    span = int(np.searchsorted(knots, x_new, side="right")) - 1
    n_old = len(knots) - degree - 1
    new_control = np.zeros((n_old + 1, control.shape[1]))
    for k in range(n_old + 1):
        if k <= span - degree:
            new_control[k] = control[k]
        elif k <= span:
            tau = (x_new - knots[k]) / (knots[k + degree] - knots[k])
            new_control[k] = tau * control[k] + (1.0 - tau) * control[k - 1]
        else:
            new_control[k] = control[k - 1]
    new_knots = np.insert(knots, span + 1, x_new)
    return new_knots, new_control


def classical_element_extraction(space, cdb_basis_at):
    """Extraction operator of a uniform-degree polynomial space computed from
    an external basis evaluator, by per-element collocation against the
    binomial Bernstein basis.

    ``cdb_basis_at(x)`` must return the vector of all classical B-spline
    values at ``x``.  Independent of the production constraint cascade.
    """
    p = space.degrees[0]
    bp = space.partition.breakpoints
    c = np.zeros((space.n_basis, space.n_bernstein))
    for e in range(space.partition.num_intervals):
        lo, hi = bp[e], bp[e + 1]
        ts = np.linspace(lo, hi, p + 1) if p > 0 else np.array([0.5 * (lo + hi)])
        bern = np.zeros((p + 1, p + 1))
        for col, x in enumerate(ts):
            t = (x - lo) / (hi - lo)
            for j in range(p + 1):
                bern[j, col] = math.comb(p, j) * t**j * (1 - t) ** (p - j)
        nvals = np.array([cdb_basis_at(float(x)) for x in ts]).T
        block = slice(space.block_start[e], space.block_start[e + 1])
        c[:, block] = np.linalg.solve(bern.T, nvals.T).T
    return c


def dense_cascade(constraints):
    """Reference extraction cascade on the whole running operator.

    Starts from the ``M x M`` identity and applies every factor to all rows
    and columns.  Returns ``(operator, factors)``; the windowed production
    cascade must give the same numbers bit for bit.
    """
    c = np.eye(constraints.n_bernstein)
    factors = []
    for (i, j), band in zip(constraints.columns, constraints.bands):
        beta = nullspace_step(jump_rows(c, constraints.bases, constraints.block_start, i, j), band)
        factors.append(beta)
        c = apply_factor(c, band, beta)
    return c, factors


def uniform_cubic_config(n_intervals: int) -> SpaceConfig:
    """C^2 cubic splines on ``n_intervals`` unit intervals."""
    breakpoints = [float(x) for x in range(n_intervals + 1)]
    return SpaceConfig(breakpoints, [PolynomialFamily(3)] * n_intervals, [2] * (n_intervals - 1))


def sequential_bernstein(section) -> BernsteinBasis:
    """Reference Bernstein construction: one condition check and one Hermite
    solve per function, in the order ``b_0, b_1, ...``, each against its own
    normalization value (``b_j`` for ``0 < j < p`` cancels the accumulated
    ``j``-th derivatives of ``b_0 .. b_{j-1}`` at ``x_lo``).  The stacked
    production solve must agree to rounding and warn and raise alike."""
    p = section.degree
    t_lo = section.span_derivatives(section.x_lo, p)
    t_hi = section.span_derivatives(section.x_hi, p)
    coeffs = np.zeros((p + 1, p + 1))
    left = np.zeros((p + 1, p + 1))
    for j in range(p + 1):
        if j == 0:
            rows = [t_lo[:, 0]] + [t_hi[:, d] for d in range(p)]
            rhs = [1.0] + [0.0] * p
        elif j < p:
            rows = [t_lo[:, d] for d in range(j)] + [t_hi[:, d] for d in range(p - j)]
            rows.append(t_lo[:, j])
            rhs = [0.0] * p + [-float(np.sum(left[:j, j]))]
        else:
            rows = [t_lo[:, d] for d in range(p)] + [t_hi[:, 0]]
            rhs = [0.0] * p + [1.0]
        matrix = np.array(rows)
        what = f"b_{j} of {section!r}"
        cond = np.linalg.cond(matrix)
        if not np.isfinite(cond):
            raise EctViolationError(f"singular collocation matrix while building {what}")
        if cond > 1e12:
            warnings.warn(
                ConditioningWarning(
                    f"collocation matrix for {what} has condition number {cond:.3g}",
                    condition=float(cond),
                ),
                stacklevel=2,
            )
        try:
            coeffs[j] = np.linalg.solve(matrix, np.array(rhs))
        except np.linalg.LinAlgError as exc:
            raise EctViolationError(f"singular collocation matrix while building {what}") from exc
        left[j] = coeffs[j] @ t_lo
    return BernsteinBasis(section, coeffs, left, coeffs @ t_hi)
