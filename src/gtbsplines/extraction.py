"""Knot vectors, smoothness constraints, and the extraction operator.

The smooth B-spline-like basis of a mixed-degree spline space is obtained
from the piecewise (discontinuous) global Bernstein basis by annihilating
one smoothness constraint at a time.  Each constraint is the jump of one
derivative at one breakpoint, and reads only the two end tables there
(:func:`build_constraints`).  :func:`jump_rows` is the one jump kernel:
the cascade applies it to the running operator's columns of the two
intervals, ``space`` to a built space's stacked element blocks.  A
constraint's explicit nullspace factor is a two-band matrix of nonnegative
coefficients that sum to one column-wise; the product of all factors is
the extraction operator ``C`` with ``B(x) = C b(x)``.

``C`` is local: on each interval only ``p + 1`` basis functions are active,
so it is kept as one square block per interval (Bezier element extraction,
as in Borden, Scott, Evans and Hughes, IJNME 87, 2011).  The cascade never
forms ``C`` either: it runs on a window of the running operator that holds
the rows meeting the two intervals of the current breakpoint, and cuts the
element blocks out of it as their rows become final, so a build takes time
and memory linear in the number of intervals.  Dense rows of ``C`` come
from the blocks through :meth:`ExtractionMatrix.window` alone.

A factor is kept as its band coefficients only (:func:`nullspace_step`),
and :func:`apply_factor` applies them; a knot-insertion map is one such
factor, whose identity head and shifted tail ``insert_knot`` fills itself.
The knot vectors own the index layout, as in classical spline codes:
:class:`KnotVectors` gives each interval's Bernstein block and active rows,
the order of the constraints and the band of each one
(:meth:`KnotVectors.band`), which the cascade, the element blocks,
evaluation and knot insertion all read, and the support and exact end
smoothness of each function (:meth:`KnotVectors.support`,
:meth:`KnotVectors.supersmoothness`), all from its running multiplicity
sums.  No jump entry is tested against zero to find its band; out-of-band
entries are rounding noise, checked against a relative tolerance.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bernstein import BernsteinBasis
from .errors import BasisNonexistenceError, ConfigError, GTBError
from .sections import Partition, _each, _integer

__all__ = ["KnotVectors", "build_knot_vectors", "ExtractionMatrix"]

# Relative degeneracy threshold for cascade divisors, and the ceiling for
# numerically-zero entries outside the structural band.
_DEGENERACY_RTOL = 1e-12
_OUT_OF_BAND_RTOL = 1e-10


@dataclass(eq=False, frozen=True)
class KnotVectors:
    """Support descriptors of the basis functions, and the index layout.

    ``u[k]`` and ``v[k]`` (0-based here) are the endpoints of the support of
    basis function ``k``; together they generalize the classical open knot
    vector.  ``sigma``/``mu`` are the running multiplicity sums

    ``sigma[i] = sum_{j<i} (p_{j+1} - r_j)``,  ``mu[i] = sum_{j<=i} (p_j - r_j)``,

    so ``u`` holds ``x_i`` at the 0-based positions ``sigma[i] ..
    sigma[i + 1] - 1`` and ``v`` holds ``x_j`` at ``mu[j - 1] .. mu[j] - 1``;
    every multiplicity is read from them, never by comparing floats.

    Global Bernstein functions ``block_start[e - 1] .. block_start[e] - 1``
    (0-based) belong to interval ``e``.
    """

    u: np.ndarray
    v: np.ndarray
    sigma: np.ndarray
    mu: np.ndarray
    degrees: tuple[int, ...]
    smoothness: tuple[int, ...]
    block_start: np.ndarray

    @property
    def n_basis(self) -> int:
        return len(self.u)

    @property
    def n_bernstein(self) -> int:
        return int(self.block_start[-1])

    def active_range(self, e: int) -> tuple[int, int]:
        """1-based inclusive range of the basis functions active on interval
        ``e`` (1-based): the ``p_e + 1`` functions ending at ``sigma[e]``."""
        sigma = self.sigma.item(e)
        return sigma - self.degrees[e - 1], sigma

    def band(self, i: int, j: int) -> tuple[int, int]:
        """1-based inclusive range ``mu[i - 1] + p_i - j + 1 .. sigma[i] + 1``
        of the functions whose ``j``-th derivative jumps at ``x_i`` when the
        space is smooth to order ``j - 1`` there, as required left of it and
        discontinuous right of it: the band of constraint ``(i, j)``, and for
        ``j = r_i + 1`` that of a knot insertion leaving order ``r_i``."""
        return self.mu.item(i - 1) + self.degrees[i - 1] - j + 1, self.sigma.item(i) + 1

    @property
    def columns(self) -> list[tuple[int, int]]:
        """The smoothness constraints in cascade order: ``columns[rho] =
        (i, j)`` asks the jump of the ``j``-th derivative at ``x_i`` to
        vanish, with ``rho = sum_{i'<i} (r_{i'} + 1) + j`` (0-based)."""
        m = len(self.degrees)
        return [(i, j) for i in range(1, m) for j in range(self.smoothness[i] + 1)]

    def support(self, k):
        """Breakpoint indices ``(i, j)`` with ``u_k = x_i``, ``v_k = x_j``: the
        runs of ``sigma``, ``mu`` holding ``k`` (1-based; an int or int array)."""
        k0 = np.asarray(k) - 1
        i = np.searchsorted(self.sigma, k0, "right") - 1
        j = np.searchsorted(self.mu, k0, "right")
        return (int(i), int(j)) if np.ndim(k) == 0 else (i, j)

    def supersmoothness(self, k: int) -> tuple[int, int]:
        """Exact smoothness orders ``(r_u(k), r_v(k))`` of basis function
        ``k`` (1-based) at the two ends of its support.

        With ``(i, j) = support(k)``, so ``u_k = x_i`` and ``v_k = x_j``,

        ``r_u(k) = p_{i+1} - 1 - max{l >= 0 : u_k = u_{k+l}}`` and
        ``r_v(k) = p_j - 1 - max{l >= 0 : v_k = v_{k-l}}``,

        where the runs of equal knots end at ``sigma[i + 1]`` and start at
        ``mu[j - 1]``.  These can exceed the smoothness the space requires at
        that breakpoint.
        """
        n, k = self.n_basis, _integer(k, "basis index", ConfigError)
        if not (1 <= k <= n):
            raise ConfigError(f"basis index {k} outside [1, {n}]")
        k0 = k - 1
        i, j = self.support(k)
        r_u = self.degrees[i] - self.sigma.item(i + 1) + k0
        r_v = self.degrees[j - 1] - 1 - (k0 - self.mu.item(j - 1))
        return r_u, r_v


def build_knot_vectors(partition: Partition, degrees, smoothness) -> KnotVectors:
    """Build the two knot vectors of a spline space.

    Parameters
    ----------
    partition : Partition
    degrees : sequence of int, length m
        Per-interval section dimensions minus one.
    smoothness : sequence of int, length m + 1
        Full smoothness vector including the ``-1`` end entries.

    The left vector repeats ``x_i`` with multiplicity ``p_{i+1} - r_i`` for
    ``i = 0 .. m-1``; the right vector repeats ``x_i`` with multiplicity
    ``p_i - r_i`` for ``i = 1 .. m``.  Both have length
    ``N = p_1 + 1 + sum_i (p_{i+1} - r_i)``, the space dimension.  Degrees
    and orders are integers with ``-1 <= r_i <= min(p_i, p_{i+1})``, ``r_0 =
    r_m = -1``; anything else raises :class:`~gtbsplines.errors.ConfigError`.
    """
    degrees = tuple(_each(_integer, degrees, "degree", ConfigError))
    smoothness = tuple(_each(_integer, smoothness, "smoothness", ConfigError))
    m, bp = partition.num_intervals, partition.breakpoints
    if len(degrees) != m:
        raise ConfigError(f"need {m} degrees, got {len(degrees)}")
    if len(smoothness) != m + 1:
        got = len(smoothness)
        raise ConfigError(f"smoothness vector must have length {m + 1} (got {got})")
    if smoothness[0] != -1 or smoothness[m] != -1:
        raise ConfigError("end smoothness entries must be -1")
    for i, (r, lim) in enumerate(zip(smoothness[1:m], map(min, degrees, degrees[1:])), start=1):
        if not (-1 <= r <= lim):
            raise ConfigError(f"smoothness r={r} at x_{i}={bp[i]!r} outside [-1, {lim}]")

    # multiplicities p_{i+1} - r_i of x_i in u and p_i - r_i of x_i in v
    sigma = np.cumsum([0] + [p - r for p, r in zip(degrees, smoothness[:-1])])
    mu = np.cumsum([0] + [p - r for p, r in zip(degrees, smoothness[1:])])
    bp = np.array(bp)
    kv = KnotVectors(
        u=np.repeat(bp[:-1], np.diff(sigma)),
        v=np.repeat(bp[1:], np.diff(mu)),
        sigma=sigma,
        mu=mu,
        degrees=degrees,
        smoothness=smoothness,
        block_start=np.concatenate([[0], np.cumsum([p + 1 for p in degrees])]),
    )
    if len(kv.u) != len(kv.v):
        raise GTBError("internal: knot vectors of unequal length")
    # u_k <= v_{k-1} and u_k < v_k for all k
    if not np.all(kv.u < kv.v):
        raise GTBError("internal: knot vector ordering violated (u_k < v_k)")
    if not np.all(kv.u[1:] <= kv.v[:-1]):
        raise GTBError("internal: knot vector ordering violated (u_k <= v_{k-1})")
    return kv


def build_constraints(
    bases: Sequence[BernsteinBasis], kv: KnotVectors
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The data of the smoothness constraints: for each interior breakpoint
    ``x_i`` (``i = 1 .. m - 1``) the end tables of the two intervals meeting
    there, ``(bases[i - 1].right_table, bases[i].left_table)``, the arrays
    themselves.  The knot vectors ``kv`` order the constraints
    (:attr:`KnotVectors.columns`) and give their bands
    (:meth:`KnotVectors.band`)."""
    m = len(kv.degrees)
    if len(bases) != m:
        raise ConfigError(f"need {m} Bernstein bases, got {len(bases)}")
    return tuple((left.right_table, right.left_table) for left, right in zip(bases, bases[1:]))


def jump_rows(
    left: np.ndarray, right: np.ndarray, ends: tuple[np.ndarray, np.ndarray], j: int | slice
) -> np.ndarray:
    """Jumps ``D^j_- f(x_i) - D^j_+ f(x_i)`` at a breakpoint ``x_i`` of the
    functions ``f`` whose coefficients over the Bernstein functions of the
    intervals left and right of ``x_i`` are the aligned rows of ``left`` and
    ``right``, with ``ends`` their end tables at ``x_i`` (the pair of
    :func:`build_constraints`): one value per row for an int ``j``, one
    column per order for a slice of orders ``j``.  Stacks of rows and of
    tables give the stack of their jumps.
    """
    return left @ ends[0][..., j] - right @ ends[1][..., j]


def nullspace_step(a: np.ndarray, band: tuple[int, int]) -> np.ndarray:
    """Band coefficients of the explicit nullspace factor of one constraint.

    Given the jump vector ``a`` of the current basis (length ``n``) and the
    1-based inclusive range ``band = (lo, hi)`` of its structurally nonzero
    entries, returns the ``hi - lo`` coefficients
    ``beta_{lo+1} .. beta_hi`` of the cascade
    ``alpha_lo = 1``, ``beta_{k+1} = -alpha_k a_k / a_{k+1}``,
    ``alpha_{k+1} = 1 - beta_{k+1}``.  They define the ``(n-1) x n`` two-band
    factor ``F`` with ``F a = 0`` that :func:`apply_factor` applies.

    All band coefficients are strictly positive when the smooth basis exists;
    a divisor below ``1e-12 * max|a|`` or a nonpositive coefficient aborts
    with :class:`~gtbsplines.errors.BasisNonexistenceError`.
    """
    n, (lo, hi) = len(a), band
    if not (1 <= lo < hi <= n):
        raise BasisNonexistenceError(f"invalid constraint band [{lo}, {hi}] for length {n}")
    # A jump has a handful of entries, so the arithmetic runs on Python
    # floats: the same IEEE doubles, without numpy's per-operation overhead.
    a = a.tolist()
    scale = max(map(abs, a))
    out_of_band = [abs(v) for v in a[: lo - 1] + a[hi:]]
    if out_of_band and max(out_of_band) > _OUT_OF_BAND_RTOL * scale:
        raise GTBError(
            f"constraint entries outside the structural band [{lo}, {hi}] are "
            f"not numerically zero (max {max(out_of_band):.3g} vs scale {scale:.3g})"
        )

    beta = []
    alpha = 1.0
    for k in range(lo, hi):  # 0-based positions k-1 -> k of the cascade
        denom = a[k]
        if abs(denom) <= _DEGENERACY_RTOL * scale:
            raise BasisNonexistenceError(
                f"degenerate jump at band position {k + 1}: the smooth basis "
                "does not exist for this space"
            )
        beta.append(-alpha * a[k - 1] / denom)
        alpha = 1.0 - beta[-1]
        if beta[-1] <= 0.0 or (k < hi - 1 and alpha <= 0.0):
            raise BasisNonexistenceError(
                f"nonpositive combination coefficient at band position {k + 1}: "
                "the smooth basis does not exist for this space"
            )
    pin_band_end(beta)
    return np.array(beta)


def pin_band_end(beta) -> None:
    """Set the band-end coefficient ``beta[-1]`` of a two-band factor to
    exactly one, in place.

    Column sums force it to one and its complement to zero; a computed value
    only ever differs from one by rounding noise.  Pinning keeps every factor
    (and hence every product) nonnegative with exact unit column sums, and
    every row of an insertion transfer map summing to one.  A deviation above
    ``1e-6`` raises :class:`~gtbsplines.errors.GTBError`.
    """
    if abs(beta[-1] - 1.0) > 1e-6:
        raise GTBError(
            f"inconsistent two-band factor: band-end coefficient {float(beta[-1])!r} "
            "deviates from one far beyond rounding"
        )
    beta[-1] = 1.0


def apply_factor(rows: np.ndarray, band: tuple[int, int], beta: np.ndarray) -> np.ndarray:
    """``F @ rows`` for the two-band factor ``F`` of band ``(lo, hi)`` with
    coefficients ``beta`` (length ``hi - lo``).

    Rows left of the band pass through; band row ``k`` (1-based,
    ``lo <= k < hi``) becomes ``alpha_k row_k + beta_{k+1} row_{k+1}`` with
    ``alpha_lo = 1`` and ``alpha_{k+1} = 1 - beta_{k+1}``; rows right of the
    band shift up by one.  ``apply_factor(np.eye(n), band, beta)`` is the
    dense ``(n-1) x n`` factor.
    """
    lo, hi = band
    beta = beta.reshape((-1,) + (1,) * (rows.ndim - 1))
    out = np.concatenate([rows[: hi - 1], rows[hi:]])
    if hi - lo > 1:  # a one-coefficient band has no interior alpha
        out[lo : hi - 1] *= 1.0 - beta[:-1]
    out[lo - 1 : hi - 1] += beta * rows[lo:hi]
    return out


@dataclass(eq=False, frozen=True)
class ExtractionMatrix:
    """The extraction operator as element blocks, with the factors of the
    cascade that built it from the constraints of :func:`build_constraints`.

    ``blocks[e - 1]`` is the square block of the operator ``C`` on interval
    ``e`` (1-based): its rows are the ``p_e + 1`` basis functions active on
    the interval, its columns the interval's Bernstein functions.  Every
    other entry of ``C`` is zero, so the blocks are all that is stored
    (Bezier element extraction); :meth:`window` assembles dense rows of
    ``C`` from them, and :attr:`operator` is the full window.

    ``factors[rho]`` holds the ``hi - lo`` band coefficients of the two-band
    factor applied at step ``rho`` to the constraint ``knots.columns[rho] =
    (i, j)``, whose band is ``(lo, hi) = knots.band(i, j)``;
    ``apply_factor(np.eye(n), (lo, hi), factors[rho])`` recovers the dense
    factor, where ``n = knots.n_bernstein - rho``.  A space refined by one
    knot takes the blocks of the intervals ``e_lo .. e_hi`` its changed
    functions cover and the factors of the constraints at breakpoints
    ``e_lo .. e_hi - 1`` from a cascade over the sub-space around them, and
    every other one from the old space, re-indexed past the knot
    (``space.insert_knot``).  No evaluation reads the factors; they are kept
    for two readers, the bench tracer's stored-bytes count and the tests,
    which rebuild the dense factors from them.
    """

    blocks: tuple[np.ndarray, ...] = field(repr=False)
    factors: tuple[np.ndarray, ...] = field(repr=False)
    knots: KnotVectors = field(repr=False)

    @cached_property
    def bounds(self) -> tuple[float, float, float]:
        """The largest deviation of an operator column sum from one and the
        smallest and largest entry of the blocks: one stacked reduction per
        block size, each column summed row after row, computed once."""
        sizes = {len(b) for b in self.blocks}
        stacks = [np.array([b for b in self.blocks if len(b) == n]) for n in sizes]
        deviations = np.concatenate([s.sum(axis=1).ravel() for s in stacks]) - 1.0
        entries = np.concatenate([s.ravel() for s in stacks])
        return float(np.abs(deviations).max()), float(entries.min()), float(entries.max())

    @property
    def operator(self) -> np.ndarray:
        """The full :meth:`window`: the dense ``n_basis x n_bernstein`` operator."""
        return self.window(0, self.knots.n_basis, 1, len(self.blocks))

    def window(self, row_lo: int, row_hi: int, e_lo: int, e_hi: int) -> np.ndarray:
        """Dense rows ``row_lo .. row_hi - 1`` (0-based) of the operator over
        the Bernstein columns of intervals ``e_lo .. e_hi`` (1-based,
        inclusive), assembled from the blocks: the one dense assembly."""
        kv = self.knots
        out = np.zeros((row_hi - row_lo, kv.block_start[e_hi] - kv.block_start[e_lo - 1]))
        col = 0
        for e, block in enumerate(self.blocks[e_lo - 1 : e_hi], start=e_lo):
            row, width = kv.active_range(e)[0] - 1, len(block)
            # Block rows skip .. stop - 1 are in the window (no max/min: hot path).
            skip = row_lo - row if row < row_lo else 0
            stop = row_hi - row if row_hi < row + width else width
            if skip < stop:
                out[row + skip - row_lo : row + stop - row_lo, col : col + width] = block[skip:stop]
            col += width
        return out


def extraction_operator(
    constraints: Sequence[tuple[np.ndarray, np.ndarray]], kv: KnotVectors, *, _offset: int = 0
) -> ExtractionMatrix:
    """Run the constraint cascade and return the extraction operator.

    The cascade takes the breakpoints in order and, at ``x_i``, the orders
    ``j = 0 .. r_i``, so a range of breakpoints owns one range of factors.
    Each constraint's jump is read with :func:`jump_rows` from the running
    operator's columns of intervals ``i`` and ``i + 1`` and the end tables
    ``constraints[i - 1]`` of :func:`build_constraints`, and annihilated by
    its nullspace factor.  The jumps at ``x_i`` involve only the running
    functions that meet intervals ``i`` and ``i + 1``, so the cascade holds
    just a window of the running operator: the rows from the first one
    active on the oldest unfinished interval, over the columns from that
    interval on.  At each breakpoint the window
    grows by the identity rows of interval ``i + 1`` and takes that
    breakpoint's factors.  Rows that do not meet interval ``i + 1`` take no
    part in later factors, so every interval whose active rows are all such
    rows has its element block cut out, and the window drops the rows and
    columns left of the next unfinished interval.  The result is
    nonnegative with unit column sums and annihilates every constraint.  A
    failing constraint re-raises its error, prefixed with its location; the
    internal ``_offset`` is added to the breakpoint index it names, so that
    the cascade of a sub-space names the breakpoints of the space it is cut
    from.
    """
    starts = kv.block_start.tolist()
    m = len(kv.degrees)
    # 0-based row of the first function active on each interval
    first_rows = [kv.active_range(e)[0] - 1 for e in range(1, m + 1)]
    eye = {p + 1: np.eye(p + 1) for p in set(kv.degrees)}  # one identity per block width
    win = eye[starts[1]]
    win_row = win_col = 0  # running row and Bernstein column of win[0, 0]
    blocks: list[np.ndarray] = []
    factors: list[np.ndarray] = []
    for i in range(1, m + 1):
        if i < m:
            n_rows, n_cols = win.shape
            width = starts[i + 1] - starts[i]
            grown = np.zeros((n_rows + width, n_cols + width))
            grown[:n_rows, :n_cols] = win
            grown[n_rows:, n_cols:] = eye[width]
            win = grown
            # window columns a .. b - 1 of interval i, b .. c - 1 of interval i + 1
            a, b, c = (s - win_col for s in starts[i - 1 : i + 2])
            for j in range(kv.smoothness[i] + 1):
                lo, hi = kv.band(i, j)
                band = (lo - win_row, hi - win_row)
                try:
                    jump = jump_rows(win[:, a:b], win[:, b:c], constraints[i - 1], j)
                    beta = nullspace_step(jump, band)
                except GTBError as exc:
                    at = i + _offset
                    where = f"constraint (breakpoint {at}, order {j}): {exc}"
                    if isinstance(exc, BasisNonexistenceError):
                        raise BasisNonexistenceError(where, breakpoint_index=at, order=j) from exc
                    raise type(exc)(where) from exc
                factors.append(beta)
                win = apply_factor(win, band, beta)
        # Rows before the first one active on interval i + 1 are final.
        final = first_rows[i] if i < m else win_row + len(win)
        while len(blocks) < m:
            e = len(blocks)
            row, col, width = first_rows[e], starts[e], starts[e + 1] - starts[e]
            if row + width > final:
                break
            row, col = row - win_row, col - win_col
            blocks.append(win[row : row + width, col : col + width].copy())
        if len(blocks) < m:
            row, col = first_rows[len(blocks)], starts[len(blocks)]
            win = win[row - win_row :, col - win_col :]
            win_row, win_col = row, col

    if starts[-1] - len(factors) != kv.n_basis:
        raise GTBError(f"internal: dimension mismatch {starts[-1] - len(factors)} != {kv.n_basis}")
    result = ExtractionMatrix(tuple(blocks), tuple(factors), kv)
    # Every entry is a sum of products of positive coefficients, so an entry
    # outside the blocks would show as a block column sum short of one.
    col_err, low, high = result.bounds
    if low < -1e-14 or high > 1.0 + 1e-14:
        raise GTBError(f"extraction operator entries outside [0, 1]: min {low:.3g}, max {high:.3g}")
    if col_err > 1e-12:
        raise GTBError("extraction operator column sums deviate from one")
    return result
