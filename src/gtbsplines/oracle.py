"""Independent cross-validation oracles for the extraction-based evaluation.

Two kinds of oracles live here:

* Integral recurrences: the smooth basis built level by level from the
  sections' weights (Lyche, *Constr. Approx.* 1, 1985), each intermediate
  function of unit mass and held as per-element Chebyshev interpolants, so
  the oracle shares no coefficient representation with the production path;
  target accuracy ~1e-10.  With ``p`` the largest degree, element ``e`` of
  degree ``p_e`` carries at level ``q`` the ``K = q - (p - p_e) + 1``
  functions ending at its last active one, whose integrands there are
  ``w_(p-q)`` times the first differences of the stencil ``[1 | the
  unit-mass cumulatives of the K - 1 level-(q-1) functions on e | 0]`` (at
  ``K = 1`` the base case ``w_(p_e)``; a function of mass <= 0 has
  cumulative 1).  A level is thus one fit, cumulative and mass product per
  group of elements of one family kind, degree and node count, then one
  scatter of its masses into the (function, element) layout of the top
  level, sorted once per evaluator, and one running sum over it for the
  masses before each element.  Evaluation sums every (point, function)
  pair in one Clenshaw pass over the top level's coefficients, zero-padded
  to the largest node count.  Only the sections, their weights and the
  knot layout are read.
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
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
import numpy.polynomial.chebyshev as _cheb

from .errors import ConfigError, OracleUnsupportedError, OrderError
from .quadrature import _stiffness_ceil
from .sections import _family_groups, _integer, _numbers, _points_in, _weight_rows, weight_system

if TYPE_CHECKING:
    from .sections import SectionSpace
    from .space import GTSplineSpace

__all__ = [
    "RecurrenceEvaluator",
    "local_recurrence_eval",
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
    points proportional to their effective frequency, rounded up as
    :func:`~gtbsplines.quadrature._stiffness_ceil` rounds."""
    return int(min(_MAX_NODES, _BASE_NODES + 16 + 8 * _stiffness_ceil(section)))


def _clenshaw(t, coef):
    """The Chebyshev series ``coef`` at ``t`` by numpy's ``chebval``
    recurrence, elementwise over an array of points and the ``(n, len(t))``
    array of their series."""
    x2, c0, c1 = 2.0 * t, coef[-2], coef[-1]
    for i in range(3, len(coef) + 1):
        c0, c1 = coef[-i] - c1, c0 + c1 * x2
    return c0 + c1 * t


class RecurrenceEvaluator:
    """Level-by-level integral-recurrence construction of the smooth basis.

    ``levels[q]`` maps each function of level ``q`` to its total mass.
    ``_top`` holds the top level's Chebyshev coefficients, zero-padded to the
    largest node count: row ``_start[e] + i`` is active function ``i`` of
    element ``e``.
    """

    def __init__(self, space: GTSplineSpace):
        self.space = space
        self.p_max, self.n_basis = max(space.degrees), space.n_basis
        bp = np.array(space.partition.breakpoints)
        self._mid, self._half = 0.5 * (bp[:-1] + bp[1:]), 0.5 * (bp[1:] - bp[:-1])
        self._degree = np.array(space.degrees)
        self._first = space.knots.sigma[1:] - self._degree  # each element's first function, 1-based
        self._start = np.cumsum(self._degree + 1) - self._degree - 1
        sections = [basis.section for basis in space.bases]
        count = [_section_nodes(section) for section in sections]
        groups: dict[tuple, list[int]] = {}
        for key, es in _family_groups(enumerate(sections)).items():
            for e in es:
                groups.setdefault((key, count[e]), []).append(e)
        self._groups = [
            (count[es[0]], sections[es[0]].degree, np.array(es)) for es in groups.values()
        ]
        self.levels: list[dict[int, float]] = []
        self._top = self._build(self._weights(sections))

    def _weights(self, sections) -> list[np.ndarray]:
        """``[w_(p_e - 1), w_(p_e)]`` on each group's nodes as ``(2, n, G)``
        (ones for degree 0), from one array evaluation per group."""
        out = []
        try:
            for n, p_e, es in self._groups:
                nodes = self._mid[es] + self._half[es] * _fit_rule(n).t_nodes[:, None]
                at = np.tile(np.arange(len(es)), n)  # each node's column: its element
                group = [sections[e] for e in es]
                rows = _weight_rows(group, nodes.ravel(), at) if p_e else np.ones((2, nodes.size))
                out.append(rows.reshape(2, n, len(es)))
        except Exception:
            # name the first section, in element order, whose weights fail
            for e, section in enumerate(sections):
                try:
                    t_nodes = _fit_rule(_section_nodes(section)).t_nodes
                    weight_system(section, self._mid[e] + self._half[e] * t_nodes)
                except Exception as exc:
                    raise OracleUnsupportedError(
                        f"no computable weight ladder for {section!r}: {exc}"
                    ) from exc
            raise
        return out

    def _build(self, weights: list[np.ndarray]) -> np.ndarray:
        """Run the levels on ``(n, G, K)`` arrays, nodes first, so that a rule
        is one matrix product; the top level's coefficients in ``_top``'s
        layout.

        The masses before each element are summed from the left on one
        layout of the top level's (function, element) pairs, sorted once: a
        function's pairs at level ``q`` are those with ``k >= first_e + p -
        q``, a prefix of its top-level pairs, so each level scatters its
        masses into the layout and takes one ``cumsum``."""
        p = self.p_max
        e = np.repeat(np.arange(len(self._degree)), self._degree + 1)
        local = np.arange(len(e)) - self._start[e]
        k = self._first[e] + local
        order = np.lexsort((e, k))
        head = np.flatnonzero(np.diff(k[order], prepend=-1))
        segment = np.repeat(np.arange(len(head)), np.diff(head, append=len(k)))
        pos = np.arange(len(k)) - head[segment]
        width = pos.max() + 1
        slot = np.empty(len(k), dtype=int)  # each pair's cell in a (function, place) table
        slot[order] = segment * width + pos
        keys, head_local = k[order[head]], local[order[head]]
        # per group: its elements' halves and, one row per element, their pairs
        per_group = [(self._half[es, None], self._start[es, None] + np.arange(p_e + 1))
                     for _, p_e, es in self._groups]
        previous: dict[int, tuple] = {}  # a group's last coefficients, masses before, totals
        for q in range(p + 1):
            running, level = np.zeros(len(head) * width), []
            for g, (n, p_e, es) in enumerate(self._groups):
                K = q - (p - p_e) + 1
                if K < 1:
                    continue
                rule, (half, pairs) = _fit_rule(n), per_group[g]
                if K == 1:
                    vals = weights[g][1][:, :, None]
                else:  # the unit-mass cumulatives of the previous level
                    stencil = np.ones((n, len(es), K + 1))
                    stencil[:, :, K] = 0.0
                    coef, before, total = previous[g]
                    within = (rule.cumulative @ coef).reshape(n, len(es), K - 1)
                    within *= half
                    np.divide(before + within, total, out=stencil[:, :, 1:K], where=total > 0)
                    vals = stencil[:, :, :-1] - stencil[:, :, 1:]
                    if K == 2:  # w_(p_e - 1); the lower weights are one
                        vals = weights[g][0][:, :, None] * vals
                coef = rule.fit @ vals.reshape(n, -1)
                level.append((g, coef, pairs[:, -K:]))
                running[slot[pairs[:, -K:]]] = half * (rule.mass @ coef).reshape(-1, K)
            running = np.cumsum(running.reshape(-1, width), axis=1)
            before = np.where(slot % width > 0, running.ravel()[slot - 1], 0.0)
            total = running[:, -1]
            present = head_local >= p - q
            self.levels.append(dict(zip(keys[present].tolist(), total[present].tolist())))
            previous = {g: (coef, before[at], total[slot[at] // width]) for g, coef, at in level}
        top = np.zeros((len(k), max(n for n, _, _ in self._groups)))
        for (n, _, _), (_, coef, at) in zip(self._groups, level):
            top[at.ravel(), :n] = coef.T
        return top

    def evaluate(self, k, x):
        """Values of basis function ``k`` in ``[1, N]``, an int or a 1-D
        sequence of them, at ``x``, a point or a 1-D array of points: a
        float, or an array over the points and then over a sequence of
        ``k``.  Every (point, function) pair active there is summed by one
        :func:`_clenshaw` pass over its element's coefficients, zero-padded to
        the largest node count (the recurrence carries leading zeros
        exactly), so each entry has the bits of a one-point call.
        """
        ks = _numbers(k, "basis index must be an integer", ConfigError)
        n, flat = self.space.n_basis, ks.ravel()
        # the first entry that is not whole, else the first outside [1, n]
        bad = ~(np.isfinite(flat) & (flat == np.trunc(flat)))
        if not bad.any():
            bad = (flat < 1) | (flat > n)
        if bad.any():
            v = _integer(flat[np.argmax(bad)].item(), "basis index", ConfigError)
            raise ConfigError(f"basis index {v} outside [1, {n}]")
        ks = ks.astype(int)
        xs = np.atleast_1d(_points_in(x, *self.space.domain))
        elems = self.space.partition.locate(xs) - 1
        local = np.atleast_1d(ks)[None, :] - self._first[elems, None]
        at, col = np.nonzero((local >= 0) & (local <= self._degree[elems, None]))
        e, i = elems[at], local[at, col]
        out = np.zeros(local.shape)
        t = (xs[at] - self._mid[e]) / self._half[e]
        out[at, col] = _clenshaw(t, self._top[self._start[e] + i].T)
        out = out if ks.ndim else out[:, 0]
        return out[0] if np.ndim(x) == 0 else out


def local_recurrence_eval(space: GTSplineSpace, k, x):
    """Basis values by the per-element integral recurrence (test oracle), of
    a function ``k`` or a 1-D sequence of them, at a point or a 1-D array of
    points (:meth:`RecurrenceEvaluator.evaluate`)."""
    found = _EVALUATOR_CACHE.get("local")
    if found is None or found.space is not space:
        found = _EVALUATOR_CACHE["local"] = RecurrenceEvaluator(space)
    return found.evaluate(k, x)


# The evaluator of the last space queried.  It holds its space, so the
# evaluator of an earlier space is dropped rather than kept alive.
_EVALUATOR_CACHE: dict[str, RecurrenceEvaluator] = {}


# -- classical polynomial reference ---------------------------------------


def cox_de_boor_knots(breakpoints, degree: int, interior_smoothness) -> np.ndarray:
    """Open knot vector for a uniform-degree polynomial space: endpoint
    multiplicity ``p + 1``, interior multiplicity ``p - r_i``."""
    bp = _numbers(breakpoints, "breakpoints must be numbers", ConfigError)
    p = _integer(degree, "degree", ConfigError)
    counts = [p + 1, *(p - _integer(r, "smoothness", ConfigError) for r in interior_smoothness)]
    if bp.ndim != 1 or len(counts) != bp.size - 1 or min(counts) < 0:
        raise ConfigError(f"need {bp.size - 2} interior smoothness orders in [-1, {p}]")
    return np.repeat(bp, counts + [p + 1])


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
    knots = _numbers(knots, "knots must be numbers", ConfigError)
    p = _integer(degree, "degree", ConfigError)
    max_order = _integer(max_order, "max_order", OrderError)
    n = knots.size - p - 1
    if knots.ndim != 1 or p < 0 or n < p + 1 or not knots[0] == knots[p] < knots[n] == knots[-1]:
        raise ConfigError(f"not an open knot vector of degree {p}: {knots!r}")
    if max_order < 0:
        raise OrderError(f"max_order={max_order} is negative")
    pts = np.atleast_1d(_points_in(x, knots[0], knots[-1]))
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
