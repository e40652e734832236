"""Independent cross-validation oracles for the extraction-based evaluation.

Two kinds of oracles live here:

* Integral recurrences: the smooth basis can be built level by level from
  weight functions, normalizing each intermediate function to unit mass and
  integrating differences of neighbors.  Functions are represented as
  per-element Chebyshev interpolants, so the oracle shares no coefficient
  representation with the production path; target accuracy ~1e-10.
  Construction is linear algebra on one cached rule per node count: the
  matrices that fit node values to coefficients and map coefficients to the
  within-element cumulative integral at the nodes, and the row that maps
  them to the element mass.  Each section's weights are evaluated once, on
  its element's nodes, and each cumulative once per intermediate function.
  Each intermediate function keeps its pieces, masses and cumulatives only
  over the elements its support covers, so construction is linear in the
  number of functions.
* The classical Cox-de Boor recursion for uniform-degree polynomial spaces,
  including derivatives, as an entirely separate reference: it uses no
  extraction, space or Bernstein code.  It is local: one span search per
  point, then the triangular scheme of Piegl and Tiller on the ``p + 1``
  active functions, O(p^2) per point, over a point or an array of points.

Everything here is single-threaded and intended for the tests and the
``verify`` command, not production evaluation.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
import numpy.polynomial.chebyshev as _cheb

from .errors import ConfigError, OracleUnsupportedError
from .sections import SectionSpace, _points_in, weight_system

if TYPE_CHECKING:
    from .space import GTSplineSpace

__all__ = [
    "RecurrenceEvaluator",
    "local_recurrence_eval",
    "global_recurrence_eval",
    "cox_de_boor_knots",
    "cox_de_boor_basis",
]

_BASE_NODES = 48
_MAX_NODES = 512


class _Rule(NamedTuple):
    """Chebyshev rule on ``n`` first-kind nodes of ``[-1, 1]``.

    ``fit`` maps values at the nodes to Chebyshev coefficients; ``cumulative``
    maps coefficients to the integral from -1 to each node, ``mass`` to the
    integral over ``[-1, 1]``.
    """

    t_nodes: np.ndarray
    fit: np.ndarray
    cumulative: np.ndarray
    mass: np.ndarray


@functools.lru_cache(maxsize=None)
def _fit_rule(n: int) -> _Rule:
    t_nodes = _cheb.chebpts1(n)
    # Column j holds the coefficients of the antiderivative of T_j.
    antiderivative = _cheb.chebint(np.eye(n), axis=0)
    at_minus_one = _cheb.chebvander(-1.0, n)[0]
    return _Rule(
        t_nodes,
        np.linalg.inv(_cheb.chebvander(t_nodes, n - 1)),
        (_cheb.chebvander(t_nodes, n) - at_minus_one) @ antiderivative,
        (_cheb.chebvander(1.0, n)[0] - at_minus_one) @ antiderivative,
    )


def _section_nodes(section: SectionSpace) -> int:
    """Interpolation points per element, sized by the section's stiffness.

    The nested integrations compound the resolution demands of sharply
    peaked exponential weights, so oscillatory/stiff sections get extra
    points proportional to their effective frequency."""
    fam = section.family
    stiffness = getattr(fam, "omega", 0.0) * section.length
    return int(min(_MAX_NODES, _BASE_NODES + 16 + 8 * math.ceil(stiffness)))


class _Element:
    """One partition interval with its Chebyshev rule."""

    def __init__(self, lo: float, hi: float, n_nodes: int = _BASE_NODES):
        self.lo = lo
        self.hi = hi
        self.half = 0.5 * (hi - lo)
        self.mid = 0.5 * (lo + hi)
        self.n_nodes = n_nodes
        self.rule = _fit_rule(n_nodes)
        self.nodes = self.mid + self.half * self.rule.t_nodes

    def to_t(self, x):
        return (np.asarray(x) - self.mid) / self.half

    def fit(self, values) -> np.ndarray:
        return self.rule.fit @ np.asarray(values, dtype=float)

    def cumulative(self, coef: np.ndarray) -> np.ndarray:
        """Integral of the piece ``coef`` from ``lo`` to each node."""
        return self.half * (self.rule.cumulative @ coef)

    def mass(self, coef: np.ndarray) -> float:
        """Integral of the piece ``coef`` over the element."""
        return float(self.half * (self.rule.mass @ coef))


class _LevelFunction:
    """Chebyshev pieces of one intermediate function on the elements
    ``first, first + 1, ...`` its support covers (``None`` where it has no
    piece), with their masses and, for a positive total mass, its unit-mass
    cumulative on the nodes of each element it has a piece on."""

    def __init__(self, first: int, pieces: list[np.ndarray | None], elements: list[_Element]):
        self.first = first
        self.pieces = pieces
        within: list[np.ndarray | None] = [None] * len(pieces)
        masses = np.zeros(len(pieces))
        for i, coef in enumerate(pieces):
            if coef is not None:
                within[i] = elements[first + i].cumulative(coef)
                masses[i] = elements[first + i].mass(coef)
        self.prefix = np.concatenate([[0.0], np.cumsum(masses)])
        self.total = float(self.prefix[-1])
        self.cumulative = [
            None if w is None or self.total <= 0.0 else (self.prefix[i] + w) / self.total
            for i, w in enumerate(within)
        ]

    def piece(self, e: int) -> np.ndarray | None:
        """Chebyshev coefficients on element ``e``, ``None`` off the cover."""
        i = e - self.first
        return self.pieces[i] if 0 <= i < len(self.pieces) else None


class RecurrenceEvaluator:
    """Level-by-level integral-recurrence construction of the smooth basis.

    Parameters
    ----------
    space : GTSplineSpace
    mode : {"local", "global"}
        ``local`` applies each section's own weight ladder with the
        per-element base case; ``global`` zero-pads the weight ladders to the
        maximal length and uses one uniform formula for every level.
        Both reproduce the same basis.
    """

    def __init__(self, space: GTSplineSpace, mode: str = "local"):
        if mode not in ("local", "global"):
            raise ValueError(f"unknown mode {mode!r}")
        self.space = space
        self.mode = mode
        self.p_max = max(space.degrees)
        self.n_basis = space.n_basis
        bp = space.partition.breakpoints
        self.elements = [
            _Element(bp[e], bp[e + 1], _section_nodes(basis.section))
            for e, basis in enumerate(space.bases)
        ]
        # Support ends as element indices: function k (1-based) starts on
        # element _first_element[k - 1] and ends before _stop_element[k - 1].
        first, stop = space.knots.support(np.arange(1, self.n_basis + 1))
        self._first_element, self._stop_element = first.tolist(), stop.tolist()
        # Weights w_0 .. w_p of each section on its element's nodes.
        self._weights: list[np.ndarray] = []
        for basis, elem in zip(space.bases, self.elements):
            try:
                self._weights.append(weight_system(basis.section, elem.nodes))
            except Exception as exc:
                raise OracleUnsupportedError(
                    f"no computable weight ladder for {basis.section!r}: {exc}"
                ) from exc
        self.levels: list[dict[int, _LevelFunction]] = []
        self._build()

    # -- construction ------------------------------------------------------

    def _support_elements(self, k: int, q: int) -> range:
        """0-based element indices covered by the support of function (k, q)."""
        right_idx = k - self.p_max + q
        if right_idx < 1:
            return range(0)
        return range(self._first_element[k - 1], self._stop_element[right_idx - 1])

    def _term_cumulative(self, level: dict[int, _LevelFunction], j: int, e: int) -> np.ndarray:
        """Unit-mass cumulative of term ``j`` of the previous level on
        element ``e`` nodes, honoring the zero-mass step convention."""
        elem = self.elements[e]
        if j > self.n_basis:
            return np.zeros(elem.n_nodes)
        fn = level.get(j)
        if fn is None or fn.total <= 0.0:
            # Zero-mass convention: the normalized cumulative degenerates to a
            # unit step at the left support knot.
            step = 1.0 if self._first_element[j - 1] <= e else 0.0
            return np.full(elem.n_nodes, step)
        i = e - fn.first
        cumulative = fn.cumulative[i] if 0 <= i < len(fn.cumulative) else None
        if cumulative is None:
            # the mass left of element e: none before the cover, all after it
            left = fn.prefix[min(max(i, 0), len(fn.pieces))]
            return np.full(elem.n_nodes, left / fn.total)
        return cumulative

    def _build(self) -> None:
        degrees = self.space.degrees
        p = self.p_max
        for q in range(p + 1):
            level: dict[int, _LevelFunction] = {}
            prev = self.levels[q - 1] if q > 0 else {}
            for k in range(p - q + 1, self.n_basis + 1):
                cover = self._support_elements(k, q)
                if not cover:
                    continue
                pieces: list[np.ndarray | None] = [None] * len(cover)
                nonzero = False
                for i, e in enumerate(cover):
                    p_e = degrees[e]
                    gap = p - p_e
                    if self.mode == "local":
                        if q < gap:
                            continue
                        base = q == gap
                    else:
                        if p - q > p_e:
                            continue
                        base = q == 0
                    if base:
                        vals = self._weights[e][p_e]
                    else:
                        diff = self._term_cumulative(prev, k, e) - self._term_cumulative(
                            prev, k + 1, e
                        )
                        vals = self._weights[e][p - q] * diff
                    pieces[i] = self.elements[e].fit(vals)
                    nonzero = True
                if nonzero:
                    level[k] = _LevelFunction(cover.start, pieces, self.elements)
            self.levels.append(level)

    # -- queries -----------------------------------------------------------

    def evaluate(self, k: int, x):
        """Value of basis function ``k`` at ``x``: its top-level function.

        A scalar ``x`` gives a float, a 1-D array of points the array of
        their values.  The points are located once, and only those on an
        element where the function has a piece are summed, each on its own:
        a Clenshaw step on the one or two points an element holds costs
        several times a step on a scalar.
        """
        fn = self.levels[self.p_max].get(k)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(len(xs))
        if fn is not None:
            elems = self.space.partition.locate(xs) - 1
            for at, e in enumerate(elems.tolist()):
                coef = fn.piece(e)
                if coef is not None:
                    out[at] = _cheb.chebval(self.elements[e].to_t(xs[at]), coef)
        return float(out[0]) if np.ndim(x) == 0 else out


def local_recurrence_eval(space: GTSplineSpace, k: int, x):
    """Basis value by the per-element integral recurrence (test oracle), at
    a point or a 1-D array of points."""
    return _evaluator(space, "local").evaluate(k, x)


def global_recurrence_eval(space: GTSplineSpace, k: int, x: float) -> float:
    """Basis value by the zero-padded global integral recurrence (test oracle)."""
    return _evaluator(space, "global").evaluate(k, x)


# Evaluators of the last space queried, one per mode.  Each holds its space,
# so evaluators of earlier spaces are dropped rather than kept alive.
_EVALUATOR_CACHE: dict[str, RecurrenceEvaluator] = {}


def _evaluator(space: GTSplineSpace, mode: str) -> RecurrenceEvaluator:
    found = _EVALUATOR_CACHE.get(mode)
    if found is None or found.space is not space:
        for other in [m for m, ev in _EVALUATOR_CACHE.items() if ev.space is not space]:
            del _EVALUATOR_CACHE[other]
        found = _EVALUATOR_CACHE[mode] = RecurrenceEvaluator(space, mode)
    return found


# -- classical polynomial reference ---------------------------------------


def cox_de_boor_knots(breakpoints, degree: int, interior_smoothness) -> np.ndarray:
    """Open knot vector for a uniform-degree polynomial space: endpoint
    multiplicity ``p + 1``, interior multiplicity ``p - r_i``."""
    bp = list(breakpoints)
    knots = [bp[0]] * (degree + 1)
    for i, r in enumerate(interior_smoothness, start=1):
        knots.extend([bp[i]] * (degree - int(r)))
    knots.extend([bp[-1]] * (degree + 1))
    return np.asarray(knots, dtype=float)


def cox_de_boor_basis(knots, degree: int, x, max_order: int = 0) -> np.ndarray:
    """Values and derivatives of all B-splines on an open knot vector.

    A scalar ``x`` gives ``(n_basis, max_order + 1)`` with ``n_basis =
    len(knots) - degree - 1``; a 1-D array of points gives ``(len(x),
    n_basis, max_order + 1)``, each row equal bit for bit to the scalar call.
    Orders above ``degree`` are zero.

    Each point is located in its knot span by one search: right limits at
    interior knots, the last nonempty span at the right end.  Only the
    ``degree + 1`` functions active there are computed, by the triangular
    scheme of Piegl and Tiller (*The NURBS Book*, A2.2-A2.3), in
    O(degree^2) per point.  A point outside ``[knots[0], knots[-1]]`` or not
    finite raises :class:`DomainError`.
    """
    knots = np.asarray(knots, dtype=float)
    p = degree
    n = len(knots) - p - 1
    if n < p + 1 or not knots[0] == knots[p] < knots[n] == knots[-1]:
        raise ConfigError(f"not an open knot vector of degree {p}: {knots!r}")
    pts = np.atleast_1d(_points_in(x, float(knots[0]), float(knots[-1])))
    last = int(np.searchsorted(knots, knots[-1], "left")) - 1
    span = np.minimum(np.searchsorted(knots, pts, "right") - 1, last)
    left = [pts - knots[span + 1 - j] for j in range(p + 1)]
    right = [knots[span + j] - pts for j in range(p + 1)]
    # With s the span of a point, ndu[r][j] (r <= j) is the degree-j function
    # s - j + r there, ndu[j][r] (r < j) the knot difference that divides it.
    ndu = [[None] * (p + 1) for _ in range(p + 1)]
    ndu[0][0] = np.ones(len(pts))
    for j in range(1, p + 1):
        saved = 0.0
        for r in range(j):
            ndu[j][r] = right[r + 1] + left[j - r]
            temp = ndu[r][j - 1] / ndu[j][r]
            ndu[r][j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j][j] = saved
    active = np.zeros((len(pts), p + 1, max_order + 1))
    for r in range(p + 1):
        active[:, r, 0] = ndu[r][p]
        # a[j]: coefficient of the degree-(p - k) function s - p + r - k + j
        # in the k-th derivative of function s - p + r, up to p! / (p - k)!
        a = [1.0]
        for k in range(1, min(max_order, p) + 1):
            rk, pk = r - k, p - k
            a = [0.0, *a, 0.0]
            lower = [0.0] * (k + 1)
            d = 0.0
            for j in range(max(0, -rk), min(k, p - r) + 1):
                lower[j] = (a[j + 1] - a[j]) / ndu[pk + 1][rk + j]
                d = d + lower[j] * ndu[rk + j][pk]
            active[:, r, k] = d
            a = lower
    factor = p
    for k in range(1, min(max_order, p) + 1):
        active[:, :, k] *= factor
        factor *= p - k
    out = np.zeros((len(pts), n, max_order + 1))
    out[np.arange(len(pts))[:, None], span[:, None] - p + np.arange(p + 1)] = active
    return out[0] if np.ndim(x) == 0 else out
