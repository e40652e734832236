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
  Both recurrence oracles (:class:`RecurrenceEvaluator` and
  :class:`RecurrenceBernstein`) integrate through the same rule.
* The classical Cox-de Boor recursion for uniform-degree polynomial spaces,
  including derivatives, as an entirely separate reference.

Everything here is single-threaded and intended for test and verification
use, not production evaluation.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import numpy.polynomial.chebyshev as _cheb

from .errors import OracleUnsupportedError
from .sections import SectionSpace, weight_system
from .space import GTSplineSpace

__all__ = [
    "RecurrenceEvaluator",
    "local_recurrence_eval",
    "global_recurrence_eval",
    "RecurrenceBernstein",
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


_FIT_CACHE: dict[int, _Rule] = {}


def _fit_rule(n: int) -> _Rule:
    rule = _FIT_CACHE.get(n)
    if rule is None:
        t_nodes = _cheb.chebpts1(n)
        # Column j holds the coefficients of the antiderivative of T_j.
        antiderivative = _cheb.chebint(np.eye(n), axis=0)
        at_minus_one = _cheb.chebvander(-1.0, n)[0]
        rule = _Rule(
            t_nodes,
            np.linalg.inv(_cheb.chebvander(t_nodes, n - 1)),
            (_cheb.chebvander(t_nodes, n) - at_minus_one) @ antiderivative,
            (_cheb.chebvander(1.0, n)[0] - at_minus_one) @ antiderivative,
        )
        _FIT_CACHE[n] = rule
    return rule


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
    """Per-element Chebyshev pieces of one intermediate function, with its
    element masses and, for a positive total mass, its unit-mass cumulative
    on the nodes of each element it has a piece on."""

    def __init__(self, pieces: list[np.ndarray | None], elements: list[_Element]):
        self.pieces = pieces
        within: list[np.ndarray | None] = [None] * len(pieces)
        self.elem_integrals = np.zeros(len(pieces))
        for e, coef in enumerate(pieces):
            if coef is not None:
                within[e] = elements[e].cumulative(coef)
                self.elem_integrals[e] = elements[e].mass(coef)
        self.prefix = np.concatenate([[0.0], np.cumsum(self.elem_integrals)])
        self.total = float(self.prefix[-1])
        self.cumulative = [
            None if w is None or self.total <= 0.0 else (self.prefix[e] + w) / self.total
            for e, w in enumerate(within)
        ]


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
        self.u = space.knots.u
        self.v = space.knots.v
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

    def _support_elements(self, k: int, q: int) -> list[int]:
        """0-based element indices covered by the support of function (k, q)."""
        right_idx = k - self.p_max + q
        if right_idx < 1:
            return []
        lo, hi = self.u[k - 1], self.v[right_idx - 1]
        if lo >= hi:
            return []
        out = []
        for e, elem in enumerate(self.elements):
            if lo <= elem.lo and elem.hi <= hi:
                out.append(e)
        return out

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
            step = 1.0 if self.u[j - 1] <= elem.lo else 0.0
            return np.full(elem.n_nodes, step)
        cumulative = fn.cumulative[e]
        if cumulative is None:
            return np.full(elem.n_nodes, fn.prefix[e] / fn.total)
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
                pieces: list[np.ndarray | None] = [None] * len(self.elements)
                nonzero = False
                for e in cover:
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
                    pieces[e] = self.elements[e].fit(vals)
                    nonzero = True
                if nonzero:
                    level[k] = _LevelFunction(pieces, self.elements)
            self.levels.append(level)

    # -- queries -----------------------------------------------------------

    def level_integrals(self, q: int) -> dict[int, float]:
        """Masses of the level-``q`` intermediate functions."""
        return {k: fn.total for k, fn in self.levels[q].items()}

    def evaluate(self, k: int, x, level: int | None = None):
        """Value of intermediate function ``k`` at ``x`` (top level by default).

        A scalar ``x`` gives a float, a 1-D array of points the array of
        their values.  The points are located once, and only those on an
        element where the function has a piece are summed, each on its own:
        a Clenshaw step on the one or two points an element holds costs
        several times a step on a scalar.
        """
        q = self.p_max if level is None else level
        fn = self.levels[q].get(k)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(len(xs))
        if fn is not None:
            elems = self.space.partition.locate(xs) - 1
            for at, e in enumerate(elems.tolist()):
                coef = fn.pieces[e]
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


class RecurrenceBernstein:
    """Bernstein-like basis of one section built by the integral ladder.

    The construction starts from the normalized generator pair and repeatedly
    integrates unit-mass differences; only quadrature-level accuracy is
    claimed.  Evaluation supports derivatives through Chebyshev
    differentiation.
    """

    def __init__(self, section: SectionSpace):
        if section.degree < 1:
            raise OracleUnsupportedError(
                "the integral ladder needs a section of degree >= 1"
            )
        self.section = section
        self.element = _Element(section.x_lo, section.x_hi, _section_nodes(section))
        pair = section.normalized_pair_derivatives()
        values = np.array([pair(x) for x in self.element.nodes])
        ladder = [self.element.fit(values[:, 0]), self.element.fit(values[:, 1])]
        masses = self._masses(ladder)
        self.level_integrals: list[list[float]] = [masses]
        for q in range(2, section.degree + 1):
            ladder = self._lift(ladder, masses)
            masses = self._masses(ladder)
            self.level_integrals.append(masses)
        self.coefficients = ladder

    def _masses(self, ladder) -> list[float]:
        return [self.element.mass(coef) for coef in ladder]

    def _lift(self, ladder, masses):
        cums = [
            self.element.fit(self.element.cumulative(coef) / mass)
            for coef, mass in zip(ladder, masses)
        ]
        q = len(ladder)
        lifted = [np.zeros(1)] * (q + 1)
        lifted[0] = -cums[0]
        lifted[0][0] += 1.0
        for j in range(1, q):
            lifted[j] = cums[j - 1] - cums[j]
        lifted[q] = cums[q - 1]
        return lifted

    def evaluate(self, x: float, max_order: int = 0) -> np.ndarray:
        """(p+1, max_order+1) table of values and derivatives at ``x``."""
        p = self.section.degree
        out = np.zeros((p + 1, max_order + 1))
        t = self.element.to_t(x)
        scale = 1.0
        coefs = list(self.coefficients)
        for d in range(max_order + 1):
            for j in range(p + 1):
                out[j, d] = scale * _cheb.chebval(t, coefs[j])
            coefs = [_cheb.chebder(c) if len(c) > 1 else np.zeros(1) for c in coefs]
            scale /= self.element.half
            # chebder differentiates in t; each order picks up 1/half
        return out


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


def _cdb_values(knots: np.ndarray, degree: int, x: float) -> np.ndarray:
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


def cox_de_boor_basis(knots, degree: int, x: float, max_order: int = 0) -> np.ndarray:
    """Values and derivatives of all B-splines on an open knot vector.

    Returns ``(n_basis, max_order + 1)`` with ``n_basis = len(knots) - degree
    - 1``.  Derivatives use the standard difference formula applied to the
    lower-degree ladder.
    """
    knots = np.asarray(knots, dtype=float)
    n = len(knots) - degree - 1
    out = np.zeros((n, max_order + 1))
    for d in range(max_order + 1):
        if d > degree:
            break
        lower = _cdb_values(knots, degree - d, x)
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
