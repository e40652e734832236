"""Shared test utilities: finite differences, random space configs,
classical polynomial oracles (Boehm insertion, the global Cox-de Boor
recursion, per-element extraction), the end smoothness of a basis function
by counting runs of equal knots, the extraction cascade on the dense running
operator, knot insertion by value matching one band function at a time, the
Bernstein construction by one Hermite solve per function, the basis
integrals element by element, the span tables, pairs and weights
evaluated point by point with ``math``, basis tables with 50 digits, the
benchmark's input generator, and the CLI's texts with every number written
by ``%.17g`` itself."""

from __future__ import annotations

import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np

from gtbsplines import (
    BernsteinBasis,
    ConditioningWarning,
    EctViolationError,
    ExponentialFamily,
    GeneralizedPolynomialFamily,
    InvalidFamilyError,
    Partition,
    PolynomialFamily,
    SectionSpace,
    SpaceConfig,
    TrigonometricFamily,
    GTBError,
    eval_basis,
)
from gtbsplines.extraction import apply_factor, jump_rows, nullspace_step
from gtbsplines.quadrature import section_panels

BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "gen_inputs.py"


def bench_generator():
    """The module ``bench/gen_inputs.py``, which writes the benchmark's spaces."""
    spec = importlib.util.spec_from_file_location("bench_gen_inputs", BENCH_INPUTS)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


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


def _reference_cdb_values(knots: np.ndarray, degree: int, x: float) -> np.ndarray:
    """Values of all basis functions of one level ladder at ``x``."""
    n0 = len(knots) - 1
    vals = np.zeros(n0)
    if x >= knots[-1]:
        # left-limit convention at the right end: last nonempty span
        for k in range(n0 - 1, -1, -1):
            if knots[k] < knots[k + 1]:
                vals[k] = 1.0
                break
    else:
        for k in range(n0):
            if knots[k] <= x < knots[k + 1]:
                vals[k] = 1.0
                break
    for q in range(1, degree + 1):
        new = np.zeros(len(knots) - q - 1)
        for k in range(len(new)):
            acc = 0.0
            den = knots[k + q] - knots[k]
            if den > 0.0:
                acc += (x - knots[k]) / den * vals[k]
            den = knots[k + q + 1] - knots[k + 1]
            if den > 0.0:
                acc += (knots[k + q + 1] - x) / den * vals[k + 1]
            new[k] = acc
        vals = new
    return vals


def reference_cox_de_boor(knots, degree: int, x: float, max_order: int = 0) -> np.ndarray:
    """Values and derivatives of all B-splines on a knot vector at one point
    inside it, by the global recursion over all ``len(knots) - 1`` degree-0
    functions: ``(n_basis, max_order + 1)``.  Derivatives expand each
    ``D^d N_{k,p}`` over the degree-``(p - d)`` ladder by the difference
    formula.  The local production oracle must agree to rounding."""
    knots = np.asarray(knots, dtype=float)
    n = len(knots) - degree - 1
    out = np.zeros((n, max_order + 1))
    for d in range(max_order + 1):
        if d > degree:
            break
        lower = _reference_cdb_values(knots, degree - d, x)
        # coefficients of each D^d N_{k,p} over the degree-(p-d) ladder
        for k in range(n):
            coefs = {k: 1.0}
            for step in range(d):
                q = degree - step
                new: dict[int, float] = {}
                for idx, c in coefs.items():
                    den = knots[idx + q] - knots[idx]
                    if den > 0.0:
                        new[idx] = new.get(idx, 0.0) + c * q / den
                    den = knots[idx + q + 1] - knots[idx + 1]
                    if den > 0.0:
                        new[idx + 1] = new.get(idx + 1, 0.0) - c * q / den
                coefs = new
            out[k, d] = sum(c * lower[idx] for idx, c in coefs.items())
    return out


def reference_supersmoothness(degrees, smoothness, k: int) -> tuple[int, int]:
    """End smoothness ``(r_u(k), r_v(k))`` of basis function ``k`` (1-based)
    by counting runs of equal knots.  Each knot is listed by its breakpoint
    index, ``i`` with multiplicity ``p_{i+1} - r_i`` in ``u`` and ``p_i -
    r_i`` in ``v``, so the runs never compare floats; then
    ``r_u = p_{i+1} - 1 - (run after u_k)``, ``r_v = p_j - 1 - (run before v_k)``."""
    m = len(degrees)
    u_index = [i for i in range(m) for _ in range(degrees[i] - smoothness[i])]
    v_index = [i for i in range(1, m + 1) for _ in range(degrees[i - 1] - smoothness[i])]
    n, k0 = len(u_index), k - 1
    i = u_index[k0]
    run = 0
    while k0 + run + 1 < n and u_index[k0 + run + 1] == i:
        run += 1
    r_u = degrees[i] - 1 - run
    j = v_index[k0]
    run = 0
    while k0 - run - 1 >= 0 and v_index[k0 - run - 1] == j:
        run += 1
    r_v = degrees[j - 1] - 1 - run
    return r_u, r_v


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
        block = slice(space.knots.block_start[e], space.knots.block_start[e + 1])
        c[:, block] = np.linalg.solve(bern.T, nvals.T).T
    return c


def reference_eval_basis(space, x: float, max_order: int) -> np.ndarray:
    """All basis functions at a point by the per-section calls: the element
    block of the interval ``e`` of ``x`` times ``bases[e - 1].evaluate``,
    placed at the rows ``knots.active_range(e)``."""
    e = space.partition.locate(x)
    values = space.extraction.blocks[e - 1] @ space.bases[e - 1].evaluate(x, max_order)
    lo = space.knots.active_range(e)[0] - 1
    out = np.zeros((space.n_basis, max_order + 1))
    out[lo : lo + len(values)] = values
    return out


def reference_magnitude(space, x: float, max_order: int) -> np.ndarray:
    """Per order ``d``, the largest entry of ``|block| |coeffs| |span table|``
    at ``x``: the magnitude of the terms that :func:`reference_eval_basis` and
    the evaluation kernel sum, to which their rounding errors are
    proportional (with cancellation it exceeds the values themselves)."""
    e = space.partition.locate(x)
    basis = space.bases[e - 1]
    table = np.abs(basis.section.span_derivatives(x, max_order))
    if basis.coeffs is not None:
        table = np.abs(basis.coeffs) @ table
    return (np.abs(space.extraction.blocks[e - 1]) @ table).max(axis=0)


def exact_eval_basis(space, x: float, max_order: int) -> np.ndarray:
    """:func:`reference_eval_basis` evaluated with 50 digits (mpmath) from the
    same floats: the element block, the section's coefficients and ends, its
    pair constants ``(w L, den, (-w)^d, w^d)`` and a custom pair's returns
    are taken as exact; ``t``, ``s``, the span table and both products are
    not rounded until the end."""
    import mpmath

    e = space.partition.locate(x)
    basis = space.bases[e - 1]
    section, p = basis.section, basis.degree
    q = p if isinstance(section.family, PolynomialFamily) else p - 2
    mp = mpmath.mpf
    with mpmath.workdps(50):
        lo, hi = mp(section.x_lo), mp(section.x_hi)
        t, s = (mp(x) - lo) / (hi - lo), (hi - mp(x)) / (hi - lo)
        table = mpmath.zeros(p + 1, max_order + 1)
        for j in range(q + 1):
            for d in range(min(q, max_order) + 1):
                r = q - d
                total = sum(
                    (-1) ** (d - i) * math.comb(d, i) * math.comb(r, j - i)
                    * t ** (j - i) * s ** (r - j + i)
                    for i in range(max(0, j - r), min(d, j) + 1)
                )
                table[j, d] = math.perm(q, d) * total / (hi - lo) ** d
        for d in range(max_order + 1 if q < p else 0):
            fam = section.family
            if isinstance(fam, GeneralizedPolynomialFamily):
                table[p - 1, d], table[p, d] = mp(fam.u(x, d)), mp(fam.v(x, d))
                continue
            wl, den, neg, pos = section._pair
            wl = mp(wl)
            if isinstance(fam, TrigonometricFamily):  # D^d sin: sin, cos, -sin, -cos
                cycle = (mpmath.sin, mpmath.cos, lambda v: -mpmath.sin(v), lambda v: -mpmath.cos(v))
                pair = cycle[d % 4]
            else:  # (sinh, cosh)(v) / sinh(wl) (1 - e^(-2 wl))
                sign = -1 if d % 2 == 0 else 1
                pair = lambda v, sign=sign: mpmath.exp(v - wl) * (1 + sign * mpmath.exp(-2 * v))
            table[p - 1, d] = mp(neg[d]) * pair(wl * s) / mp(den)
            table[p, d] = mp(pos[d]) * pair(wl * t) / mp(den)
        if basis.coeffs is not None:
            table = mpmath.matrix(basis.coeffs.tolist()) * table
        values = mpmath.matrix(space.extraction.blocks[e - 1].tolist()) * table
        values = np.array(values.tolist(), dtype=float)
    lo_row = space.knots.active_range(e)[0] - 1
    out = np.zeros((space.n_basis, max_order + 1))
    out[lo_row : lo_row + p + 1] = values
    return out


def dense_cascade(constraints):
    """Reference extraction cascade on the whole running operator.

    Starts from the ``M x M`` identity and applies every factor to all rows
    and columns.  Returns ``(operator, factors)``; the windowed production
    cascade must give the same numbers bit for bit.
    """
    kv = constraints.knots
    c = np.eye(kv.n_bernstein)
    factors = []
    for i, j in kv.columns:
        band = kv.band(i, j)
        beta = nullspace_step(jump_rows(c, constraints.bases, kv.block_start, i, j), band)
        factors.append(beta)
        c = apply_factor(c, band, beta)
    return c, factors


def _peak_point(space, k: int, samples: int = 65) -> tuple[float, float]:
    """The first of ``samples`` uniform points on the support of basis
    function ``k`` (1-based) where it is largest, and its value there."""
    xs = np.linspace(space.knots.u[k - 1], space.knots.v[k - 1], samples)
    values = np.abs(eval_basis(space, xs)[:, k - 1, 0])
    j = int(np.argmax(values))
    return float(xs[j]), float(values[j])


def reference_transfer(space, refined, i: int) -> np.ndarray:
    """Reference knot-insertion map by value matching, one band function at
    a time: a peak search and one scalar evaluation of each basis per
    function.  ``refined`` is the refinement of ``space`` at its breakpoint
    ``x_i``; the band is the support ``mu[i] .. sigma[i] + 1`` of the
    refined jumps of order ``r_i + 1`` at ``x_i``.  The production
    ``insert_knot`` reads its map from the operators instead; this one is
    its reference within a tolerance."""
    lo = int(refined.knots.mu[i])
    hi = int(refined.knots.sigma[i]) + 1
    n = refined.n_basis
    beta = np.empty(hi - lo)
    alpha = 1.0
    for k in range(lo, hi):
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
    beta[-1] = 1.0
    transfer = np.zeros((n, n - 1))
    transfer[: lo - 1, : lo - 1] = np.eye(lo - 1)
    transfer[hi:, hi - 1 :] = np.eye(n - hi)
    transfer[lo - 1 : hi, lo - 1 : hi - 1] = apply_factor(
        np.eye(hi - lo + 1), (1, hi - lo + 1), beta
    ).T
    return transfer


def uniform_cubic_config(n_intervals: int) -> SpaceConfig:
    """C^2 cubic splines on ``n_intervals`` unit intervals."""
    breakpoints = [float(x) for x in range(n_intervals + 1)]
    return SpaceConfig(breakpoints, [PolynomialFamily(3)] * n_intervals, [2] * (n_intervals - 1))


def reference_unit_integrals(space) -> np.ndarray:
    """The basis integrals element by element: the per-section composite
    Gauss-Legendre rule (order ``2 max(p) + 2`` on ``section_panels`` equal
    panels from ``numpy.linspace``), one Bernstein evaluation and one block
    product per element, summed into the active functions."""
    x, w = np.polynomial.legendre.leggauss(2 * max(space.degrees) + 2)
    integrals = np.zeros(space.n_basis)
    for e, basis in enumerate(space.bases, start=1):
        section = basis.section
        edges = np.linspace(section.x_lo, section.x_hi, section_panels(section) + 1)
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
        xs, ws = (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()
        values = space.extraction.blocks[e - 1] @ basis.evaluate(xs, 0)
        lo = space.knots.active_range(e)[0] - 1
        integrals[lo : lo + section.dim] += ws @ values[:, :, 0]
    return integrals


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


def sections_of(config) -> list[SectionSpace]:
    """The section spaces of a config, one per interval."""
    partition = Partition(tuple(config.breakpoints))
    return [
        SectionSpace(*partition.interval(i + 1), fam) for i, fam in enumerate(config.sections)
    ]


def _reference_ratio(even: bool, a: float, b: float) -> float:
    """sinh(a)/sinh(b) (``even``) or cosh(a)/sinh(b) for 0 <= a <= b."""
    if b < 30.0:
        return (math.sinh(a) if even else math.cosh(a)) / math.sinh(b)
    tail = -math.expm1(-2.0 * a) if even else 1.0 + math.exp(-2.0 * a)
    return math.exp(a - b) * tail / (-math.expm1(-2.0 * b))


def reference_raw_pair(section, x: float, order: int) -> tuple[float, float]:
    """``order``-th derivative of the two non-polynomial span functions at one
    point, from ``math`` and once per order."""
    fam = section.family
    if isinstance(fam, GeneralizedPolynomialFamily):
        return float(fam.u(x, order)), float(fam.v(x, order))
    w, wl = fam.omega, fam.omega * section.length
    a = w * (section.x_hi - x)
    b = w * (x - section.x_lo)
    if isinstance(fam, TrigonometricFamily):
        s = math.sin(wl)
        cyc_a = (math.sin(a), math.cos(a), -math.sin(a), -math.cos(a))[order % 4]
        cyc_b = (math.sin(b), math.cos(b), -math.sin(b), -math.cos(b))[order % 4]
        return ((-w) ** order) * cyc_a / s, (w**order) * cyc_b / s
    even = order % 2 == 0
    return (
        ((-w) ** order) * _reference_ratio(even, a, wl),
        (w**order) * _reference_ratio(even, b, wl),
    )


def reference_span_derivatives(section, x: float, max_order: int) -> np.ndarray:
    """Reference span table at one point, entry by entry from ``math``.

    Rows ``0 .. q`` (``q = p`` for a polynomial section, ``p - 2`` otherwise)
    are the Bernstein form ``D^d b_j = q!/(q-d)! L^-d sum_i (-1)^(d-i) C(d,
    i) B^(q-d)_(j-i)`` with ``B^r_k = C(r, k) t^k s^(r-k)`` and ``t ** k``
    powers, zero for ``d > q``; a non-polynomial section's last two rows are
    the pair from ``math``.  The production kernel takes powers by repeated
    products, folds the integers of each term into one factor and takes
    transcendental values from numpy, so it agrees to rounding."""
    x = float(x)
    p = section.degree
    q = p if isinstance(section.family, PolynomialFamily) else p - 2
    L = section.length
    t, s = (x - section.x_lo) / L, (section.x_hi - x) / L
    out = np.zeros((p + 1, max_order + 1))
    for j in range(q + 1):
        for d in range(min(q, max_order) + 1):
            r = q - d
            total = 0.0
            for i in range(max(0, j - r), min(d, j) + 1):
                bern = math.comb(r, j - i) * t ** (j - i) * s ** (r - j + i)
                total += (-1) ** (d - i) * math.comb(d, i) * bern
            out[j, d] = math.perm(q, d) * total / L**d
    if q < p:
        for d in range(max_order + 1):
            out[p - 1, d], out[p, d] = reference_raw_pair(section, x, d)
    return out


def reference_pair(section):
    """Reference normalized pair ``f(x, order=0)`` of a section at one point,
    from ``math``; see :func:`gtbsplines.sections.normalized_pair`."""
    fam = section.family
    lo, hi, L = section.x_lo, section.x_hi, section.length
    if isinstance(fam, PolynomialFamily):
        return lambda x, order=0: (
            ((hi - x) / L, -1.0 / L, 0.0)[min(order, 2)],
            ((x - lo) / L, 1.0 / L, 0.0)[min(order, 2)],
        )
    if not isinstance(fam, GeneralizedPolynomialFamily):
        return lambda x, order=0: reference_raw_pair(section, x, order)
    p = fam.degree
    gen = np.array([[fam.u(lo, p - 1), fam.v(lo, p - 1)], [fam.u(hi, p - 1), fam.v(hi, p - 1)]])
    combo = np.linalg.solve(gen, np.eye(2))
    cu, cv = combo[:, 0], combo[:, 1]

    def custom(x, order=0):
        gu, gv = fam.u(x, p - 1 + order), fam.v(x, p - 1 + order)
        return cu[0] * gu + cu[1] * gv, cv[0] * gu + cv[1] * gv

    return custom


def reference_weight_system(section, xs) -> np.ndarray:
    """Reference weight list ``[w_0, ..., w_p]`` at ``xs``: positivity
    checked on the 100-point grid, then the weights at ``x_lo`` and ``xs``,
    each from two pair calls per point."""
    p = section.degree
    out = np.ones((p + 1, len(xs)))
    if p == 0:
        return out
    pair = reference_pair(section)

    def weights(points):
        values = np.empty((2, len(points)))
        for i, x in enumerate(points):
            u, v = pair(x)
            du, dv = pair(x, 1)
            s = u + v
            values[:, i] = s, (u * dv - v * du) / (s * s)
        return values

    grid = weights(np.linspace(section.x_lo, section.x_hi, 100))
    if not np.all(grid > 0.0):
        raise InvalidFamilyError(f"a weight is not strictly positive on {section!r}")
    values = weights([section.x_lo, *xs])
    out[p - 1] = values[0, 1:]
    out[p] = values[1, 1:] / values[1, 0]
    return out


def reference_sample_csv(space, n: int, deriv: int) -> bytes:
    """The CSV of ``gtbspline sample``, row by row through one ``%.17g``
    template per interval."""
    a, b = space.domain
    xs = np.linspace(a, b, n)
    n_basis = space.n_basis
    header = ["x"]
    for d in range(deriv + 1):
        prefix = "" if d == 0 else ("d" if d == 1 else f"d{d}")
        header.extend(f"{prefix}B{k}" for k in range(1, n_basis + 1))
    elems = space.partition.locate(xs)
    table = eval_basis(space, xs, deriv)
    starts = np.searchsorted(elems, np.arange(1, space.partition.num_intervals + 2))
    text = [",".join(header) + "\n"]
    for e in range(1, space.partition.num_intervals + 1):
        rows = slice(starts[e - 1], starts[e])
        if rows.start == rows.stop:
            continue
        lo, hi = space.knots.active_range(e)
        slots = ",0" * (lo - 1) + ",%.17g" * (hi - lo + 1) + ",0" * (n_basis - hi)
        template = "%.17g" + slots * (deriv + 1) + "\n"
        active = table[rows, lo - 1 : hi].transpose(0, 2, 1)
        values = np.column_stack([xs[rows], active.reshape(len(active), -1)])
        text.extend(template % tuple(v) for v in values.tolist())
    return "".join(text).encode()


def reference_row(values) -> str:
    """``values`` written by ``%.17g`` one at a time, separated by spaces."""
    return " ".join("%.17g" % v for v in values)


def reference_space_summary(space) -> str:
    """The text of ``gtbspline build``, every number written by ``%.17g``."""
    kv = space.knots
    lines = [
        f"N {space.n_basis}",
        f"M {space.n_bernstein}",
        f"O {space.n_constraints}",
        "breakpoints " + reference_row(space.partition.breakpoints),
        "degrees " + " ".join(str(p) for p in space.degrees),
        "smoothness " + " ".join(str(r) for r in space.smoothness),
        "u " + reference_row(kv.u),
        "v " + reference_row(kv.v),
        "k u_k v_k r_u r_v",
    ]
    for k in range(1, space.n_basis + 1):
        r_u, r_v = kv.supersmoothness(k)
        lines.append("%d %.17g %.17g %d %d" % (k, kv.u[k - 1], kv.v[k - 1], r_u, r_v))
    if space.n_constraints == 0:
        lines.append("extraction identity")
    return "\n".join(lines) + "\n"
