"""Bernstein-basis references that share no construction with the library.

* :func:`closed_form_bernstein`: closed-form Bernstein bases for polynomial
  sections of any degree, evaluated from ``math`` alone, and for
  trigonometric/exponential sections of degree one and two, re-expressed in
  the section's span basis.
* :class:`RecurrenceBernstein`: the Bernstein basis of one section built by
  the integral ladder on per-element Chebyshev interpolants, through the
  same cached rule as the library's recurrence evaluator.
* :class:`GroupedRecurrence`: the library's recurrence evaluator run group
  by group -- one sort of the (function, element) pairs per level and one
  Clenshaw pass per group of elements -- the reference that the evaluator's
  single layout and single pass must equal bit for bit.

The library takes a polynomial section's basis from its exact endpoint
tables and builds every other one by a stacked Hermite solve; these are the
independent cross-checks of both constructions.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.polynomial.chebyshev as _cheb

from gtbsplines import (
    BernsteinBasis,
    ConfigError,
    ExponentialFamily,
    OracleUnsupportedError,
    PolynomialFamily,
    SectionSpace,
    TrigonometricFamily,
)
from gtbsplines.oracle import RecurrenceEvaluator, _clenshaw, _fit_rule, _section_nodes
from gtbsplines.sections import _family_groups, _integer, _numbers, _points_in, normalized_pair


class _Element:
    """One interval with the recurrence oracle's Chebyshev rule."""

    def __init__(self, lo: float, hi: float, n_nodes: int):
        self.half = 0.5 * (hi - lo)
        self.mid = 0.5 * (lo + hi)
        self.rule = _fit_rule(n_nodes)
        self.nodes = self.mid + self.half * self.rule.t_nodes

    def to_t(self, x):
        return (np.asarray(x) - self.mid) / self.half

    def fit(self, values) -> np.ndarray:
        return self.rule.fit @ np.asarray(values, dtype=float)

    def cumulative(self, coef: np.ndarray) -> np.ndarray:
        """Integral of the piece ``coef`` from the left end to each node."""
        return self.half * (self.rule.cumulative @ coef)

    def mass(self, coef: np.ndarray) -> float:
        """Integral of the piece ``coef`` over the element."""
        return float(self.half * (self.rule.mass @ coef))


def _basis(section: SectionSpace, coeffs: np.ndarray) -> BernsteinBasis:
    """The basis with span coefficients ``coeffs`` and its endpoint tables."""
    p = section.degree
    t_lo = section.span_derivatives(section.x_lo, p)
    t_hi = section.span_derivatives(section.x_hi, p)
    return BernsteinBasis(section, coeffs, coeffs @ t_lo, coeffs @ t_hi)


def _fit_span_coefficients(section: SectionSpace, values) -> np.ndarray:
    """Express a function in the span basis by collocation at Chebyshev
    points; ``values`` maps an array of points to the function's values."""
    p = section.degree
    k = np.arange(p + 1)
    t = np.cos((2 * k + 1) * math.pi / (2 * (p + 1)))
    xs = 0.5 * (section.x_lo + section.x_hi) + 0.5 * section.length * t
    return np.linalg.solve(section.span_derivatives(xs, 0)[:, :, 0], values(xs))


class BinomialBernstein:
    """The binomial Bernstein basis ``b_j = C(p, j) t^j s^(p-j)`` of a
    polynomial section, ``t = (x - x_lo)/L``, ``s = (x_hi - x)/L``, at one
    point from ``math`` alone.  Derivatives follow Leibniz's rule for the
    product ``t^j s^(p-j)``; the library differences lower-degree bases
    instead."""

    def __init__(self, section: SectionSpace):
        self.section = section

    def evaluate(self, x: float, max_order: int = 0) -> np.ndarray:
        """(p+1, max_order+1) table of values and derivatives at ``x``."""
        sec, p = self.section, self.section.degree
        t, s = (x - sec.x_lo) / sec.length, (sec.x_hi - x) / sec.length
        out = np.zeros((p + 1, max_order + 1))
        for j in range(p + 1):
            for d in range(max_order + 1):
                # r derivatives fall on t^j, d - r on s^(p-j); each of the
                # latter brings a factor -1
                out[j, d] = sum(
                    math.comb(d, r)
                    * math.perm(j, r)
                    * math.perm(p - j, d - r)
                    * (-1) ** (d - r)
                    * t ** (j - r)
                    * s ** (p - j - d + r)
                    for r in range(max(0, d - p + j), min(d, j) + 1)
                ) * math.comb(p, j) / sec.length**d
        return out


def closed_form_bernstein(section: SectionSpace) -> BernsteinBasis | BinomialBernstein | None:
    """Closed-form Bernstein basis where one is known, else ``None``.

    Supported: polynomial sections of any degree (binomial form, see
    :class:`BinomialBernstein`), and trigonometric/exponential sections of
    degree 1 and 2 (sine/cosine and sinh/cosh forms), re-expressed in the
    section's span basis.
    """
    fam = section.family
    p = section.degree
    lo, hi, L = section.x_lo, section.x_hi, section.length

    if isinstance(fam, PolynomialFamily):
        return BinomialBernstein(section)

    if isinstance(fam, (TrigonometricFamily, ExponentialFamily)):
        w = fam.omega
        trig = isinstance(fam, TrigonometricFamily)
        f = np.sin if trig else np.sinh
        g = np.cos if trig else np.cosh
        if p == 1:
            funcs = [
                lambda x: f(w * (hi - x)) / f(w * L),
                lambda x: f(w * (x - lo)) / f(w * L),
            ]
        elif p == 2:
            den = 1.0 - g(w * L)
            funcs = [
                lambda x: (1.0 - g(w * (hi - x))) / den,
                lambda x: (g(w * (hi - x)) + g(w * (x - lo)) - g(w * L) - 1.0) / den,
                lambda x: (1.0 - g(w * (x - lo))) / den,
            ]
        else:
            return None
        coeffs = np.array([_fit_span_coefficients(section, fn) for fn in funcs])
        return _basis(section, coeffs)

    return None


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
        u, v = normalized_pair([section], self.element.nodes, 0, [0])
        ladder = [self.element.fit(u), self.element.fit(v)]
        for q in range(2, section.degree + 1):
            ladder = self._lift(ladder, self._masses(ladder))
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


class GroupedRecurrence(RecurrenceEvaluator):
    """The integral recurrence of :class:`~gtbsplines.oracle.RecurrenceEvaluator`
    with its weights, run on per-group arrays: each level sorts its
    (function, element) pairs by ``np.lexsort`` for the masses before each
    element, and ``evaluate`` runs :func:`_clenshaw` once per group of the
    elements present.  ``_top`` is the list of each group's ``(n, G, K)``
    top-level coefficients."""

    def __init__(self, space):
        self.space = space
        self.p_max, self.n_basis = max(space.degrees), space.n_basis
        bp = np.array(space.partition.breakpoints)
        self._mid, self._half = 0.5 * (bp[:-1] + bp[1:]), 0.5 * (bp[1:] - bp[:-1])
        self._degree = np.array(space.degrees)
        self._first = space.knots.sigma[1:] - self._degree
        sections = [basis.section for basis in space.bases]
        count = [_section_nodes(section) for section in sections]
        groups: dict[tuple, list[int]] = {}
        for key, es in _family_groups(enumerate(sections)).items():
            for e in es:
                groups.setdefault((key, count[e]), []).append(e)
        self._groups = [
            (count[es[0]], sections[es[0]].degree, np.array(es)) for es in groups.values()
        ]
        self._group, self._row = np.zeros((2, len(sections)), dtype=int)
        for g, (_, _, es) in enumerate(self._groups):
            self._group[es], self._row[es] = g, np.arange(len(es))
        self.levels = []
        self._top = self._build(self._weights(sections))

    def _build(self, weights):
        p = self.p_max
        previous = {}
        for q in range(p + 1):
            level, functions, elements, masses = [], [], [], []
            for g, (n, p_e, es) in enumerate(self._groups):
                K = q - (p - p_e) + 1
                if K < 1:
                    continue
                rule = _fit_rule(n)
                if K == 1:
                    vals = weights[g][1][:, :, None]
                else:
                    stencil = np.ones((n, len(es), K + 1))
                    stencil[:, :, K] = 0.0
                    coef, before, total = previous[g]
                    within = (rule.cumulative @ coef).reshape(n, len(es), K - 1)
                    within *= self._half[es, None]
                    np.divide(before + within, total, out=stencil[:, :, 1:K], where=total > 0)
                    vals = stencil[:, :, :-1] - stencil[:, :, 1:]
                    if K == 2:
                        vals = weights[g][0][:, :, None] * vals
                coef = rule.fit @ vals.reshape(n, -1)
                level.append((g, coef))
                masses.append(self._half[es, None] * (rule.mass @ coef).reshape(-1, K))
                functions.append(self._first[es, None] + p_e - K + 1 + np.arange(K))
                elements.append(np.broadcast_to(es[:, None], (len(es), K)))
            befores, totals = self._mass_before(functions, elements, masses)
            previous = {g: (coef, b, t) for (g, coef), b, t in zip(level, befores, totals)}
        return [coef.reshape(n, len(es), -1) for (n, _, es), (_, coef) in zip(self._groups, level)]

    def _mass_before(self, functions, elements, masses):
        k, e, mass = (
            np.concatenate([a.ravel() for a in pairs]) for pairs in (functions, elements, masses)
        )
        order = np.lexsort((e, k))
        k = k[order]
        head = np.flatnonzero(np.concatenate([[True], k[1:] != k[:-1]]))
        segment = np.repeat(np.arange(len(head)), np.diff(np.append(head, len(k))))
        pos = np.arange(len(k)) - head[segment]
        running = np.zeros((len(head), pos.max() + 1))
        running[segment, pos] = mass[order]
        running = np.cumsum(running, axis=1)
        self.levels.append(dict(zip(k[head].tolist(), running[:, -1].tolist())))
        before, total = np.empty((2, len(k)))
        before[order] = np.where(pos > 0, running[segment, pos - 1], 0.0)
        total[order] = running[segment, -1]
        ends = np.cumsum([m.size for m in masses])[:-1]
        return [
            [a.reshape(m.shape) for a, m in zip(np.split(b, ends), masses)] for b in (before, total)
        ]

    def evaluate(self, k, x):
        ks = _numbers(k, "basis index must be an integer", ConfigError)
        whole = [_integer(v, "basis index", ConfigError) for v in ks.ravel().tolist()]
        ks = np.array(whole, dtype=int).reshape(ks.shape)
        xs = np.atleast_1d(_points_in(x, *self.space.domain))
        elems = self.space.partition.locate(xs) - 1
        local = np.atleast_1d(ks)[None, :] - self._first[elems, None]
        at, col = np.nonzero((local >= 0) & (local <= self._degree[elems, None]))
        e, i = elems[at], local[at, col]
        t, group = (xs[at] - self._mid[e]) / self._half[e], self._group[e]
        out = np.zeros(local.shape)
        for g in np.flatnonzero(np.bincount(group)):
            sel = group == g
            out[at[sel], col[sel]] = _clenshaw(t[sel], self._top[g][:, self._row[e[sel]], i[sel]])
        out = out if ks.ndim else out[:, 0]
        return out[0] if np.ndim(x) == 0 else out
