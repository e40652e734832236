import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtbsplines import (
    ConditioningWarning,
    EctViolationError,
    ExponentialFamily,
    GeneralizedPolynomialFamily,
    GTBError,
    PolynomialFamily,
    SectionSpace,
    SpaceConfig,
    TrigonometricFamily,
    build_bernstein,
    build_space,
    eval_basis,
)
from gtbsplines.config import conic_profile_demo_config, mixed_family_demo_config

from helpers import random_config, sections_of, sequential_bernstein
from oracles import closed_form_bernstein

SECTIONS = [
    SectionSpace(0.0, 1.0, PolynomialFamily(0)),
    SectionSpace(0.0, 1.0, PolynomialFamily(1)),
    SectionSpace(0.0, 1.0, PolynomialFamily(2)),
    SectionSpace(-1.0, 2.0, PolynomialFamily(4)),
    SectionSpace(1.0, 2.5, TrigonometricFamily(3, math.pi / 2)),
    SectionSpace(0.0, 1.0, TrigonometricFamily(2, 2.5)),
    SectionSpace(2.5, 5.0, ExponentialFamily(4, 10.0)),
    SectionSpace(0.0, 0.8, ExponentialFamily(3, 2.0)),
]

# sections built by the stacked Hermite solve: every family but the polynomial
# one, whose span basis is its Bernstein basis
SOLVED_SECTIONS = [s for s in SECTIONS if not isinstance(s.family, PolynomialFamily)] + [
    SectionSpace(0.0, 1.0, TrigonometricFamily(1, 1.0)),
    SectionSpace(-1.0, 2.0, ExponentialFamily(5, 1.5)),
    SectionSpace(
        0.0,
        1.0,
        GeneralizedPolynomialFamily(
            3, u=lambda x, d: math.exp(x), v=lambda x, d: 2.0**d * math.exp(2.0 * x)
        ),
    ),
]

CLOSED_FORM_SECTIONS = [
    SectionSpace(0.0, 1.0, PolynomialFamily(3)),
    SectionSpace(0.5, 2.0, PolynomialFamily(4)),
    SectionSpace(0.0, 1.0, TrigonometricFamily(1, 1.0)),
    SectionSpace(0.0, 1.0, TrigonometricFamily(2, 2.0)),
    SectionSpace(1.0, 2.5, TrigonometricFamily(2, math.pi / 2)),
    SectionSpace(0.0, 1.0, ExponentialFamily(1, 3.0)),
    SectionSpace(2.5, 5.0, ExponentialFamily(2, 10.0)),
]


class TestHermiteConstruction:
    def test_quadratic_is_binomial(self):
        basis = build_bernstein(SectionSpace(0.0, 1.0, PolynomialFamily(2)))
        xs = np.linspace(0, 1, 21)
        for x in xs:
            vals = basis.evaluate(float(x))[:, 0]
            assert vals[0] == pytest.approx((1 - x) ** 2, abs=1e-14)
            assert vals[1] == pytest.approx(2 * x * (1 - x), abs=1e-14)
            assert vals[2] == pytest.approx(x**2, abs=1e-14)

    @pytest.mark.parametrize("section", SECTIONS, ids=lambda s: repr(s.family))
    def test_endpoint_values(self, section):
        basis = build_bernstein(section)
        p = section.degree
        assert basis.left_table[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert basis.right_table[p, 0] == pytest.approx(1.0, rel=1e-12)
        for j in range(1, p + 1):
            assert abs(basis.left_table[j, 0]) < 1e-12
        for j in range(p):
            assert abs(basis.right_table[j, 0]) < 1e-12

    @pytest.mark.parametrize("section", SECTIONS, ids=lambda s: repr(s.family))
    def test_endpoint_vanishing_orders(self, section):
        basis = build_bernstein(section)
        p = section.degree
        scale = max(1.0, np.max(np.abs(basis.left_table)), np.max(np.abs(basis.right_table)))
        for j in range(p + 1):
            for order in range(j):
                assert abs(basis.left_table[j, order]) <= 1e-12 * scale
            for order in range(p - j):
                assert abs(basis.right_table[j, order]) <= 1e-12 * scale

    @pytest.mark.parametrize("section", SECTIONS, ids=lambda s: repr(s.family))
    def test_partition_of_unity_and_positivity(self, section):
        basis = build_bernstein(section)
        xs = np.linspace(section.x_lo, section.x_hi, 200)
        for x in xs:
            vals = basis.evaluate(float(x))[:, 0]
            assert abs(vals.sum() - 1.0) <= 1e-12
            assert np.all(vals > -1e-14)
        mid = basis.evaluate(0.5 * (section.x_lo + section.x_hi))[:, 0]
        assert np.all(mid > 1e-10)

    def test_trig_degree_two_matches_closed_form_value(self):
        omega = 1.3
        section = SectionSpace(0.0, 1.0, TrigonometricFamily(2, omega))
        basis = build_bernstein(section)
        for x in np.linspace(0, 1, 17):
            expected = (1 - math.cos(omega * (1 - x))) / (1 - math.cos(omega))
            assert basis.evaluate(float(x))[0, 0] == pytest.approx(expected, abs=1e-13)

    def test_singular_custom_pair_raises(self):
        # u and v are linearly dependent after p-1 derivatives: not an
        # extended Tchebycheff section.
        fam = GeneralizedPolynomialFamily(
            2,
            u=lambda x, d: (x, 1.0, 0.0)[min(d, 2)],
            v=lambda x, d: (2 * x, 2.0, 0.0)[min(d, 2)],
        )
        section = SectionSpace(0.0, 1.0, fam)
        # The ECT check of a custom pair names the first failing endpoint
        # collocation split before any Hermite system warns.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(EctViolationError, match=r"split 0/3 of SectionSpace\(\[0\.0, 1\.0\]"):
                build_bernstein(section)
        assert caught == []


class TestDegreeRange:
    def test_overflowing_degree_raises_before_lapack(self, monkeypatch):
        # From p = 171 on the factorials of the span tables overflow; the
        # build must stop before LAPACK sees the NaN entries.
        def unreachable(*args, **kwargs):
            raise AssertionError("LAPACK reached with non-finite tables")

        monkeypatch.setattr(np.linalg, "cond", unreachable)
        monkeypatch.setattr(np.linalg, "solve", unreachable)
        for degree in (171, 200):
            with pytest.raises(EctViolationError, match=f"degree={degree}"):
                build_bernstein(SectionSpace(0.0, 1.0, PolynomialFamily(degree)))

    def test_overflowing_length_scale_names_section(self):
        # 1e-9 ** -40 is past the float range: the scaled exact tables are
        # not finite, and the build stops without a numpy warning
        with pytest.raises(EctViolationError, match=r"\[0\.0, 1e-09\].*degree=40"):
            build_bernstein(SectionSpace(0.0, 1e-9, PolynomialFamily(40)))

    def test_failed_condition_check_names_section(self, monkeypatch):
        def diverging(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "cond", diverging)
        with pytest.raises(EctViolationError, match=r"TrigonometricFamily\(degree=3, "):
            build_bernstein(SectionSpace(0.0, 1.0, TrigonometricFamily(3, 1.0)))


def _assert_same_warnings(got, want):
    """Conditioning warnings for the same ``b_j`` in the same order, with
    condition numbers within 1e-8 relative."""
    assert [str(w.message).split()[3] for w in got] == [
        str(w.message).split()[3] for w in want
    ]
    for g, w in zip(got, want):
        assert g.message.condition == pytest.approx(w.message.condition, rel=1e-8)


def _assert_matches_sequential(section):
    stacked, reference = build_bernstein(section), sequential_bernstein(section)
    for name in ("coeffs", "left_table", "right_table"):
        got, want = getattr(stacked, name), getattr(reference, name)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name


class TestStackedSolve:
    """The stacked Hermite solve against the one-solve-per-function reference."""

    @pytest.mark.parametrize("section", SOLVED_SECTIONS, ids=lambda s: repr(s.family))
    def test_matches_sequential_reference(self, section):
        _assert_matches_sequential(section)

    def test_matches_sequential_reference_on_spaces(self):
        configs = [mixed_family_demo_config(), conic_profile_demo_config()]
        rng = np.random.default_rng(777)
        configs += [random_config(rng) for _ in range(300)]
        for config in configs:
            for section in sections_of(config):
                if not isinstance(section.family, PolynomialFamily):
                    _assert_matches_sequential(section)

    @pytest.mark.parametrize(
        "family, length",
        [(TrigonometricFamily(6, 1.0), 0.01), (ExponentialFamily(8, 1.0), 0.1)],
        ids=["6", "8"],
    )
    def test_conditioning_warnings_match_reference(self, family, length):
        # short sections: the Hermite systems are solved in units of x, where
        # conditions of order d scale as L^-d, so every system of the section
        # warns
        degree, section = family.degree, SectionSpace(0.0, length, family)
        with pytest.warns(ConditioningWarning) as stacked:
            build_bernstein(section)
        with pytest.warns(ConditioningWarning) as sequential:
            sequential_bernstein(section)
        assert len(stacked) == len(sequential) == degree + 1
        _assert_same_warnings(stacked, sequential)


class TestClosedForms:
    def test_cubic_middle_function(self):
        basis = closed_form_bernstein(SectionSpace(0.0, 1.0, PolynomialFamily(3)))
        for x in np.linspace(0, 1, 13):
            assert basis.evaluate(float(x))[1, 0] == pytest.approx(
                3 * x * (1 - x) ** 2, abs=1e-14
            )

    def test_exponential_degree_one(self):
        omega = 3.0
        basis = closed_form_bernstein(SectionSpace(0.0, 1.0, ExponentialFamily(1, omega)))
        for x in np.linspace(0, 1, 13):
            expected = math.sinh(omega * (1 - x)) / math.sinh(omega)
            assert basis.evaluate(float(x))[0, 0] == pytest.approx(expected, abs=1e-14)

    def test_unsupported_returns_none(self):
        assert closed_form_bernstein(SectionSpace(0, 1, TrigonometricFamily(3, 1.0))) is None
        assert closed_form_bernstein(SectionSpace(0, 1, ExponentialFamily(4, 1.0))) is None

    @pytest.mark.parametrize("section", CLOSED_FORM_SECTIONS, ids=lambda s: repr(s.family))
    def test_agrees_with_hermite_construction(self, section):
        closed = closed_form_bernstein(section)
        hermite = build_bernstein(section)
        max_order = min(2, section.degree)
        for x in np.linspace(section.x_lo, section.x_hi, 50):
            delta = closed.evaluate(float(x), max_order) - hermite.evaluate(
                float(x), max_order
            )
            assert np.max(np.abs(delta)) <= 1e-12 * max(
                1.0, np.max(np.abs(hermite.evaluate(float(x), max_order)))
            )


class TestEndpointJumpTable:
    def test_linear_hat_rows(self):
        basis01 = build_bernstein(SectionSpace(0.0, 1.0, PolynomialFamily(1)))
        assert np.allclose(basis01.right_table[:, 0], [0.0, 1.0])
        basis12 = build_bernstein(SectionSpace(1.0, 2.0, PolynomialFamily(1)))
        assert np.allclose(basis12.left_table[:, 0], [1.0, 0.0])

    def test_quadratic_first_derivative_row(self):
        basis = build_bernstein(SectionSpace(0.0, 1.0, PolynomialFamily(2)))
        assert np.allclose(basis.left_table[:, 1], [-2.0, 2.0, 0.0], atol=1e-13)


class TestPolynomialEnvelope:
    """Polynomial sections take their exact Bernstein tables: three-element
    C^(p-1) and C^(p-2) spaces build without a warning up to the degrees and
    down to the interval lengths the README states, with partition of unity
    and nonnegativity to rounding."""

    @staticmethod
    def _space(p, length, smoothness):
        breakpoints = [0.0, length, 2.0 * length, 3.0 * length]
        return build_space(SpaceConfig(breakpoints, [PolynomialFamily(p)] * 3, [smoothness] * 2))

    @pytest.mark.parametrize(
        "p, length",
        [(3, 1.0), (11, 1.0), (20, 1.0), (30, 1.0), (6, 0.01), (12, 0.01), (3, 1e-9), (25, 1e3)],
    )
    @pytest.mark.parametrize("drop", [1, 2], ids=["C(p-1)", "C(p-2)"])
    def test_builds_at_the_edge(self, p, length, drop):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            space = self._space(p, length, p - drop)
        assert caught == []
        values = eval_basis(space, np.linspace(*space.domain, 601))[:, :, 0]
        assert np.max(np.abs(values.sum(axis=1) - 1.0)) <= 1e-12
        assert values.min() >= -1e-14

    def test_degree_forty_names_its_constraint(self):
        with pytest.raises(GTBError, match=r"constraint \(breakpoint \d+, order \d+\): "):
            self._space(40, 1.0, 39)

    def test_tables_are_the_span_tables_at_the_ends(self):
        # the exact tables and the product-form kernel agree bit for bit
        for section in (SECTIONS[3], SectionSpace(0.0, 1e-9, PolynomialFamily(12))):
            basis, p = build_bernstein(section), section.degree
            assert basis.coeffs is None
            assert np.array_equal(basis.left_table, section.span_derivatives(section.x_lo, p))
            assert np.array_equal(basis.right_table, section.span_derivatives(section.x_hi, p))


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=16),
    scale=st.floats(min_value=1e-3, max_value=1e3),
    offset=st.floats(min_value=-10.0, max_value=10.0),
)
def test_polynomial_tables_under_affine_change(p, scale, offset):
    """Moving a polynomial section from [0, 1] to [c, c + s] keeps its values
    and scales derivative d by L^-d, L the moved section's length.  The
    offset c = offset * s keeps the points' own rounding, relative to L,
    at the level of a unit interval."""
    unit = build_bernstein(SectionSpace(0.0, 1.0, PolynomialFamily(p)))
    c = offset * scale
    moved = build_bernstein(SectionSpace(c, c + scale, PolynomialFamily(p)))
    L, orders = moved.section.length, min(p, 4)
    u = np.linspace(0.0, 1.0, 33)
    xs = np.clip(c + u * L, moved.section.x_lo, moved.section.x_hi)
    xs[0], xs[-1] = moved.section.x_lo, moved.section.x_hi
    want = unit.evaluate(u, orders)
    got = moved.evaluate(xs, orders) * L ** np.arange(orders + 1)
    for d in range(orders + 1):
        tol = 1e-12 * np.max(np.abs(want[..., d]))
        assert np.max(np.abs(got[..., d] - want[..., d])) <= tol, d
    for got, want in ((moved.left_table, unit.left_table), (moved.right_table, unit.right_table)):
        got = got * L ** np.arange(p + 1)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _mp_bernstein(mp, p, lo, hi, x, max_order):
    """Bernstein table at ``x`` in the working precision of the mpmath module
    ``mp``: Leibniz's rule on ``C(p, j) t^j s^(p-j)``, the float inputs taken
    exactly."""
    lo, hi, x = mp.mpf(lo), mp.mpf(hi), mp.mpf(x)
    L = hi - lo
    t, s = (x - lo) / L, (hi - x) / L
    out = np.zeros((p + 1, max_order + 1))
    for j in range(p + 1):
        for d in range(max_order + 1):
            total = mp.mpf(0)
            for r in range(max(0, d - p + j), min(d, j) + 1):
                total += (
                    mp.binomial(d, r) * mp.ff(j, r) * mp.ff(p - j, d - r) * (-1) ** (d - r)
                    * t ** (j - r) * s ** (p - j - d + r)
                )
            out[j, d] = float(mp.binomial(p, j) * total / L**d)
    return out


@pytest.mark.parametrize("p, lo, hi", [(25, 0.0, 1.0), (25, -3.0, 997.0), (12, 0.0, 1e-9)])
def test_polynomial_tables_match_mpmath(p, lo, hi):
    # mpmath is in the test extra; without it the test skips
    mpmath = pytest.importorskip("mpmath")
    xs = np.linspace(lo, hi, 41)
    got = build_bernstein(SectionSpace(lo, hi, PolynomialFamily(p))).evaluate(xs, 2)
    with mpmath.workdps(50):
        want = np.array([_mp_bernstein(mpmath, p, lo, hi, float(x), 2) for x in xs])
    for d in range(3):
        assert np.max(np.abs(got[..., d] - want[..., d])) <= 1e-13 * np.max(np.abs(want[..., d]))
