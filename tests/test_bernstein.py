import math
import re
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
    build_space,
    eval_basis,
)
from gtbsplines.bernstein import build_bases, build_bernstein
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


def test_non_finite_hermite_condition_names_the_function(monkeypatch):
    section = SectionSpace(0.0, 1.0, TrigonometricFamily(3, 1.0))
    # every Hermite system of the section reports a NaN condition number
    monkeypatch.setattr(np.linalg, "cond", lambda systems: np.full(systems.shape[:-2], np.nan))
    message = f"singular collocation matrix while building b_0 of {section!r}"
    with pytest.raises(EctViolationError, match=f"^{re.escape(message)}$"):
        build_bernstein(section)


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


@pytest.mark.parametrize(
    "family",
    [PolynomialFamily(5000), TrigonometricFamily(5000, 1.0), ExponentialFamily(5000, 1.0)],
    ids=lambda family: type(family).__name__,
)
def test_certain_overflow_computes_no_factorial(family, monkeypatch):
    # q! is past the float range from q = 171 on, so the tables could only
    # be non-finite: the build raises before any big-integer work
    def perm(*args):
        raise AssertionError(f"math.perm{args} called")

    monkeypatch.setattr(math, "perm", perm)
    with pytest.raises(EctViolationError, match="non-finite endpoint derivative tables"):
        build_space(SpaceConfig([0.0, 1.0], [family], []))


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


def _jittered_config(m: int, rng: np.random.Generator, cycle, joints) -> SpaceConfig:
    """``m`` intervals on a repeated ``(family, length)`` cycle, each length
    stretched by up to 10 % with its frequency following, so that omega *
    length stays the cycle's, and interior joints on the ``joints`` cycle."""
    breakpoints, families = [0.0], []
    for i in range(m):
        family, length = cycle[i % len(cycle)]
        stretch = 1.0 + float(rng.uniform(-0.1, 0.1))
        breakpoints.append(breakpoints[-1] + length * stretch)
        if hasattr(family, "omega"):
            family = type(family)(family.degree, family.omega / stretch)
        families.append(family)
    smoothness = [joints[(i - 1) % len(joints)] for i in range(1, m)]
    return SpaceConfig(breakpoints, families, smoothness)


# a cubic, a trigonometric cubic, an exponential quartic and a quartic,
# joined C^2 and C^1 in turn
MIXED_CYCLE = (
    (PolynomialFamily(3), 1.0),
    (TrigonometricFamily(3, 1.2), 1.25),
    (ExponentialFamily(4, 6.0), 1.0),
    (PolynomialFamily(4), 1.0),
)


def _recorded(build):
    """``build()``'s result or exception and its warnings as (class,
    message, condition) triples, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = build()
        except Exception as exc:  # compared with the reference's
            result = exc
    events = [(w.category, str(w.message), getattr(w.message, "condition", None)) for w in caught]
    return result, events


def _one_by_one(sections):
    return [build_bernstein(s) for s in sections]


def _assert_same_outcome(got, want):
    (got, got_warnings), (want, want_warnings) = got, want
    assert got_warnings == want_warnings
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a.coeffs is None) == (b.coeffs is None)
            for name in ("coeffs", "left_table", "right_table"):
                if getattr(b, name) is not None:
                    assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestGroupedBuild:
    """:func:`build_bases` builds each (family kind, degree) group in one
    stacked pass; its bases, warnings and errors are those of one
    :func:`build_bernstein` call per section, in section order."""

    PAIR = GeneralizedPolynomialFamily(
        3, u=lambda x, d: math.exp(x), v=lambda x, d: 2.0**d * math.exp(2.0 * x), name="exp-pair"
    )

    def test_bases_equal_one_section_builds(self):
        configs = [mixed_family_demo_config(), conic_profile_demo_config()]
        jitter = np.random.default_rng(1)
        configs += [
            _jittered_config(80, jitter, [(PolynomialFamily(3), 1.0)], [2]),
            _jittered_config(48, jitter, MIXED_CYCLE, [2, 1]),
            _jittered_config(12, jitter, MIXED_CYCLE, [2, 1]),
        ]
        rng = np.random.default_rng(777)
        configs += [
            random_config(rng, int(rng.integers(1, 9)), max_degree=7) for _ in range(300)
        ]
        configs.append(
            SpaceConfig(
                [0.0, 1.0, 2.0, 3.0, 4.0],
                [PolynomialFamily(3), self.PAIR, TrigonometricFamily(3, 1.0), self.PAIR],
                [1, 1, 1],
            )
        )
        built = 0
        for config in configs:
            sections = sections_of(config)
            want = _recorded(lambda: _one_by_one(sections))
            _assert_same_outcome(_recorded(lambda: build_bases(sections)), want)
            space = _recorded(lambda: build_space(config))[0]
            if not isinstance(space, Exception):  # some random cascades degenerate
                _assert_same_outcome((space.bases, want[1]), want)
                built += 1
        assert built > 250

    def test_interleaved_warnings_come_in_section_order(self):
        # short sections in two groups, interleaved: every Hermite system
        # warns, section by section and then b_j by b_j
        sections = [
            SectionSpace(0.0, 0.01, TrigonometricFamily(6, 1.0)),
            SectionSpace(0.01, 0.11, ExponentialFamily(8, 1.0)),
            SectionSpace(0.11, 0.12, TrigonometricFamily(6, 1.0)),
        ]
        got = _recorded(lambda: build_bases(sections))
        assert [w[0] for w in got[1]] == [ConditioningWarning] * 23
        assert [w[1].split(" of ")[1][:20] for w in (got[1][0], got[1][7], got[1][16])] == [
            "SectionSpace([0.0, 0",
            "SectionSpace([0.01, ",
            "SectionSpace([0.11, ",
        ]
        _assert_same_outcome(got, _recorded(lambda: _one_by_one(sections)))

    @pytest.mark.parametrize(
        "middle",
        [PolynomialFamily(40), TrigonometricFamily(60, 1.0)],
        ids=["polynomial", "trigonometric"],
    )
    def test_non_finite_middle_section_stops_the_build(self, middle):
        # the last section is in the first one's group and would warn too
        sections = [
            SectionSpace(0.0, 0.01, TrigonometricFamily(6, 1.0)),
            SectionSpace(0.01, 0.01 + 1e-9, middle),
            SectionSpace(1.0, 1.01, TrigonometricFamily(6, 1.0)),
        ]
        got = _recorded(lambda: build_bases(sections))
        assert isinstance(got[0], EctViolationError)
        assert "non-finite endpoint derivative tables of SectionSpace([0.01, " in str(got[0])
        assert len(got[1]) == 7 and all("[0.0, 0.01]" in w[1] for w in got[1])
        _assert_same_outcome(got, _recorded(lambda: _one_by_one(sections)))

    @pytest.mark.parametrize("routine", ["cond", "solve"])
    @pytest.mark.parametrize("length", [0.01, 1.0], ids=["warning", "clean"])
    def test_lapack_failure_names_its_section(self, routine, length, monkeypatch):
        # LAPACK fails on the systems of the fourth of six sections of one
        # group; the failure is found section by section and raised after
        # the warnings of the sections before it, if short sections warn
        sections = [
            SectionSpace(k, k + length * (1.0 + 0.1 * k), TrigonometricFamily(6, 1.0))
            for k in range(6)
        ]
        # D b_0 at x_lo, -4/L: in the systems of that section only
        marked = sections[3].span_derivatives(sections[3].x_lo, 6)[0, 1]
        original = getattr(np.linalg, routine)

        def failing(a, *args, **kwargs):
            if np.any(a == marked):
                raise np.linalg.LinAlgError("marked section")
            return original(a, *args, **kwargs)

        for section in sections[:3] + sections[4:]:
            tables = [section.span_derivatives(x, 6) for x in (section.x_lo, section.x_hi)]
            assert not np.any(np.array(tables) == marked)
        monkeypatch.setattr(np.linalg, routine, failing)
        got = _recorded(lambda: build_bases(sections))
        assert isinstance(got[0], EctViolationError)
        assert f"[3.0, {sections[3].x_hi}]" in str(got[0])
        assert isinstance(got[0].__cause__, np.linalg.LinAlgError)
        warned = 3 * 7 + (7 if routine == "solve" else 0)
        assert len(got[1]) == (warned if length < 1.0 else 0)
        _assert_same_outcome(got, _recorded(lambda: _one_by_one(sections)))

    def test_custom_pair_error_is_raised_in_section_order(self):
        def broken(x, d):
            raise ValueError("user function failed")

        pair = GeneralizedPolynomialFamily(3, u=broken, v=broken, name="broken")
        sections = [
            SectionSpace(0.0, 1.0, PolynomialFamily(200)),
            SectionSpace(1.0, 2.0, pair),
        ]
        got = _recorded(lambda: build_bases(sections))
        assert isinstance(got[0], EctViolationError) and "degree=200" in str(got[0])
        _assert_same_outcome(got, _recorded(lambda: _one_by_one(sections)))


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
