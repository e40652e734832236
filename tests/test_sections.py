import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtbsplines.sections as sections_module

from gtbsplines import (
    DomainError,
    EctViolationError,
    ExponentialFamily,
    GeneralizedPolynomialFamily,
    InvalidFamilyError,
    OrderError,
    Partition,
    PolynomialFamily,
    SectionSpace,
    SpaceConfig,
    TrigonometricFamily,
    build_space,
    eval_basis,
)
from gtbsplines.bernstein import COND_LIMIT, _endpoint_systems, build_bases
from gtbsplines.sections import (
    _bernstein_layout,
    _end_tables,
    _weight_rows,
    normalized_pair,
    weight_system,
)

from helpers import (
    central_diff,
    random_config,
    reference_span_derivatives,
    reference_weight_system,
    sections_of,
)

ALL_SECTIONS = [
    SectionSpace(0.0, 1.0, PolynomialFamily(0)),
    SectionSpace(0.0, 1.0, PolynomialFamily(2)),
    SectionSpace(-1.0, 2.0, PolynomialFamily(4)),
    SectionSpace(1.0, 2.5, TrigonometricFamily(3, math.pi / 2)),
    SectionSpace(0.0, 1.0, TrigonometricFamily(2, 2.0)),
    SectionSpace(2.5, 5.0, ExponentialFamily(4, 10.0)),
    SectionSpace(0.0, 0.7, ExponentialFamily(2, 1.5)),
]

# span {1, x, e^x, e^(2x)}
EXP_PAIR = GeneralizedPolynomialFamily(
    3, u=lambda x, d: math.exp(x), v=lambda x, d: (2.0**d) * math.exp(2.0 * x), name="exp-pair"
)

# a custom pair on [0, 1] with U* = D u = 1 + 3x - 4x^2 and V* = D v = x, whose
# order-2 values (DU*, DV*) are -+1.5e308 inside the interval and -+1 at its ends,
# so that U* DV* - V* DU* overflows where U* + V* > 1.2
OVERFLOWING_PAIR = GeneralizedPolynomialFamily(
    2,
    u=lambda x, d: (0.0, 1.0 + 3.0 * x - 4.0 * x * x, -1.5e308 if 0.0 < x < 1.0 else -1.0)[d],
    v=lambda x, d: (0.0, x, 1.5e308 if 0.0 < x < 1.0 else 1.0)[d],
    name="overflowing-pair",
)

# one section of each family, the exponential one at omega * length = 25
# and 40
ARRAY_SECTIONS = [
    SectionSpace(-1.0, 2.0, PolynomialFamily(4)),
    SectionSpace(0.0, 1e-3, PolynomialFamily(9)),
    SectionSpace(1.0, 2.5, TrigonometricFamily(3, math.pi / 2)),
    SectionSpace(0.0, 1.0, EXP_PAIR),
    SectionSpace(2.5, 5.0, ExponentialFamily(4, 10.0)),  # omega * length = 25
    SectionSpace(0.0, 1.0, ExponentialFamily(4, 40.0)),  # omega * length = 40
]


# non-polynomial sections with p >= 2: trigonometric, exponential at
# omega * length from 1.05 to 40, and custom pairs
LAYOUT_SECTIONS = [
    SectionSpace(0.0, 1.0, TrigonometricFamily(2, 2.0)),
    SectionSpace(1.0, 2.5, TrigonometricFamily(3, math.pi / 2)),
    SectionSpace(-0.3, 0.2, TrigonometricFamily(8, 5.0)),
    SectionSpace(0.0, 0.7, ExponentialFamily(2, 1.5)),
    SectionSpace(2.5, 5.0, ExponentialFamily(4, 10.0)),  # omega * length = 25
    SectionSpace(0.0, 1.0, ExponentialFamily(6, 40.0)),  # omega * length = 40
    SectionSpace(0.0, 1.0, EXP_PAIR),
    SectionSpace(-2.0, 3.0, GeneralizedPolynomialFamily(5, EXP_PAIR.u, EXP_PAIR.v)),
]


def _points(section, rng) -> np.ndarray:
    """Both ends, random interior points, unsorted and repeated."""
    inner = rng.uniform(section.x_lo, section.x_hi, 30)
    return np.concatenate([[section.x_hi], inner, [section.x_lo], inner[:4]])


class TestPartition:
    def test_rejects_non_increasing(self):
        with pytest.raises(InvalidFamilyError):
            Partition((0.0, 1.0, 1.0))

    def test_rejects_overflowing_length(self):
        # b - a is inf although both ends are finite
        with pytest.raises(InvalidFamilyError, match=r"\[-1e\+308, 1e\+308\].* overflows"):
            Partition((-1e308, 1e308))
        with pytest.raises(InvalidFamilyError, match=r"\[-1e\+308, 1e\+308\].* overflows"):
            SectionSpace(-1e308, 1e308, PolynomialFamily(3))
        # each interval's length is finite, the domain's is not: no false
        # BasisNonexistenceError from the C^2 cubic
        config = SpaceConfig([-1e308, 0.0, 1e308], [PolynomialFamily(3)] * 2, [2])
        with pytest.raises(InvalidFamilyError, match=r"domain \[-1e\+308, 1e\+308\]"):
            build_space(config)
        Partition((-1e308, 0.0))  # the longest domains still pass

    @pytest.mark.parametrize(
        "x_lo, x_hi",
        [(1.0, 1.0), (2.0, 1.0), (math.nan, 1.0), (0.0, math.nan)],
        ids=["empty", "reversed", "nan-start", "nan-end"],
    )
    def test_section_interval_must_not_be_empty(self, x_lo, x_hi):
        # a NaN end must not pass for a long section: its length is NaN too
        with pytest.raises(InvalidFamilyError, match=r"^empty section interval \["):
            SectionSpace(x_lo, x_hi, PolynomialFamily(2))

    @pytest.mark.parametrize(
        "ends", [(0.5, 2.0), (-1.0, 0.5), (0.7, 0.3)], ids=["past-end", "before-start", "reversed"]
    )
    def test_restricted_needs_a_subinterval(self, ends):
        section = SectionSpace(0.0, 1.0, TrigonometricFamily(3, 1.0))
        message = f"[{ends[0]}, {ends[1]}] is not a subinterval of [0.0, 1.0]"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            section.restricted(*ends)

    def test_locate_uses_right_limits(self):
        part = Partition((0.0, 1.0, 2.0))
        assert part.locate(0.0) == 1
        assert part.locate(1.0) == 2
        assert part.locate(2.0) == 2
        with pytest.raises(DomainError):
            part.locate(2.5)


class TestSpanDerivatives:
    def test_bernstein_table(self):
        # (1-t)^2, 2t(1-t), t^2 with t = (x - 1)/2 = 1/4; each derivative
        # brings a factor 1/L = 1/2
        section = SectionSpace(1.0, 3.0, PolynomialFamily(2))
        table = section.span_derivatives(1.5, 2)
        assert np.allclose(table[0], [0.5625, -0.75, 0.5], rtol=0.0, atol=1e-15)
        assert np.allclose(table[1], [0.375, 0.5, -1.0], rtol=0.0, atol=1e-15)
        assert np.allclose(table[2], [0.0625, 0.25, 0.5], rtol=0.0, atol=1e-15)

    def test_trig_pair_endpoint_derivative(self):
        # V* = sin(omega (x - lo)) / sin(omega L): value 0, slope omega/sin(omega L).
        section = SectionSpace(1.0, 2.5, TrigonometricFamily(3, math.pi / 2))
        table = section.span_derivatives(1.0, 1)
        omega, length = math.pi / 2, 1.5
        assert table[3, 0] == pytest.approx(0.0, abs=1e-15)
        assert table[3, 1] == pytest.approx(omega / math.sin(omega * length), rel=1e-14)

    def test_exponential_normalized_endpoint(self):
        section = SectionSpace(2.5, 5.0, ExponentialFamily(4, 10.0))
        table = section.span_derivatives(5.0, 0)
        assert table[4, 0] == pytest.approx(1.0, rel=1e-14)
        assert abs(table[3, 0]) < 1e-15

    def test_domain_and_order_errors(self):
        section = SectionSpace(0.0, 1.0, PolynomialFamily(2))
        with pytest.raises(DomainError):
            section.span_derivatives(1.5, 0)
        with pytest.raises(OrderError):
            section.span_derivatives(0.5, 3)

    def test_order_is_an_integer(self):
        section = SectionSpace(0.0, 1.0, TrigonometricFamily(3, 1.0))
        for x in (0.5, np.array([0.2, 0.5])):
            assert np.array_equal(section.span_derivatives(x, 2.0), section.span_derivatives(x, 2))
            for order in (1.5, True, np.bool_(False), "1", None):
                with pytest.raises(OrderError, match="must be an integer"):
                    section.span_derivatives(x, order)

    @pytest.mark.parametrize("section", ARRAY_SECTIONS, ids=lambda s: repr(s.family))
    def test_array_equals_scalar_calls(self, section, rng):
        xs = _points(section, rng)
        for order in range(section.degree + 1):
            table = section.span_derivatives(xs, order)
            assert table.shape == (len(xs), section.dim, order + 1)
            stacked = np.array([section.span_derivatives(float(x), order) for x in xs])
            assert np.array_equal(table, stacked)
        assert section.span_derivatives(np.array([]), 1).shape == (0, section.dim, 2)

    @pytest.mark.parametrize("section", LAYOUT_SECTIONS, ids=lambda s: repr(s.family))
    def test_rows_below_the_pair_are_the_polynomial_table(self, section, rng):
        # One layout for every family: rows 0 .. p-2 are the span table of
        # the degree p-2 polynomial section on the same interval, bit for
        # bit, and exact zeros above order p-2.
        p = section.degree
        poly = SectionSpace(section.x_lo, section.x_hi, PolynomialFamily(p - 2))
        for x in (section.x_lo, 0.5 * (section.x_lo + section.x_hi), section.x_hi):
            for xs in (x, _points(section, rng)):
                for order in range(p + 1):
                    rows = section.span_derivatives(xs, order)[..., : p - 1, :]
                    low = min(order, p - 2)
                    assert np.array_equal(rows[..., : low + 1], poly.span_derivatives(xs, low))
                    assert np.all(rows[..., low + 1 :] == 0.0)

    def test_array_errors_name_first_offending_point(self):
        section = SectionSpace(0.0, 1.0, ExponentialFamily(4, 40.0))
        for xs, bad in (([0.5, 1.5, -1.0], 1.5), ([0.2, math.nan, 2.0], math.nan)):
            with pytest.raises(DomainError, match=re.escape(f"x={bad!r} outside")):
                section.span_derivatives(np.array(xs), 0)
        with pytest.raises(DomainError):
            section.span_derivatives(np.full((2, 2), 0.5), 0)
        with pytest.raises(OrderError) as scalar:
            section.span_derivatives(0.5, 5)
        with pytest.raises(OrderError) as array:
            section.span_derivatives(np.array([0.2, 0.5]), 5)
        assert str(array.value) == str(scalar.value)

    @pytest.mark.parametrize("section", ALL_SECTIONS, ids=lambda s: repr(s.family))
    def test_first_derivative_matches_finite_differences(self, section, rng):
        if section.degree == 0:
            pytest.skip("no first derivative available")
        pad = 1e-3 * section.length
        xs = rng.uniform(section.x_lo + pad, section.x_hi - pad, 100)
        for j in range(section.dim):
            fn = lambda t, j=j: section.span_derivatives(t, 0)[j, 0]
            for x in xs:
                exact = section.span_derivatives(float(x), 1)[j, 1]
                approx = central_diff(fn, float(x), 1e-6 * max(1.0, section.length))
                scale = max(1.0, abs(exact))
                assert abs(exact - approx) <= 1e-6 * scale

    @pytest.mark.parametrize(
        "section", ALL_SECTIONS + [SectionSpace(0.0, 1.0, EXP_PAIR)], ids=lambda s: repr(s.family)
    )
    def test_endpoint_collocation_nonsingular(self, section):
        p = section.degree
        t_lo, t_hi = (section.span_derivatives(x, p) for x in (section.x_lo, section.x_hi))
        rows, _ = _endpoint_systems(p)
        systems = np.concatenate([t_lo, t_hi], axis=1).T[rows]
        assert systems.shape == (p + 3, p + 1, p + 1)
        for mat in systems:
            assert abs(np.linalg.det(mat)) > 0.0
        assert np.linalg.cond(systems).max() <= COND_LIMIT

    @pytest.mark.parametrize(
        "section", ALL_SECTIONS + [SectionSpace(0.0, 1.0, EXP_PAIR)], ids=lambda s: repr(s.family)
    )
    def test_build_space_gathers_endpoint_systems_once(self, section, monkeypatch):
        calls = {"span": 0, "cond": 0}
        span, cond = SectionSpace.span_derivatives, np.linalg.cond

        def counted_span(self, x, max_order):
            calls["span"] += 1
            return span(self, x, max_order)

        def counted_cond(x, *args, **kwargs):
            calls["cond"] += 1
            return cond(x, *args, **kwargs)

        monkeypatch.setattr(SectionSpace, "span_derivatives", counted_span)
        monkeypatch.setattr(np.linalg, "cond", counted_cond)
        build_space(SpaceConfig([section.x_lo, section.x_hi], [section.family], []))
        # every section reads its exact tables and its pair rows: no span
        # table; a polynomial section needs no check either
        polynomial = isinstance(section.family, PolynomialFamily)
        assert calls == {"span": 0, "cond": 0 if polynomial else 1}


def _random_group(rng, kind: str, size: int) -> list:
    """``size`` adjoining sections of one kind and a random degree (degree-1
    pairs included), of lengths in 1e-3 .. 10 and random omega; a custom
    pair is a group of one."""
    if kind == "custom":
        c = float(rng.uniform(-2.0, 2.0))
        family = GeneralizedPolynomialFamily(
            int(rng.integers(2, 12)),
            u=lambda x, d: math.exp(c * x) * c**d,
            v=lambda x, d: math.cos(x + d * math.pi / 2),
        )
        return [SectionSpace(0.1, 0.1 + 10.0 ** rng.uniform(-3.0, 1.0), family)]
    p, group, x = int(rng.integers(1, 12)), [], float(rng.uniform(-5.0, 5.0))
    for length in 10.0 ** rng.uniform(-3.0, 1.0, size):
        if kind == "trigonometric":
            family = TrigonometricFamily(p, rng.uniform(0.01, 0.99) * math.pi / length)
        else:
            family = ExponentialFamily(p, 10.0 ** rng.uniform(-3.0, 1.5) / length)
        group.append(SectionSpace(x, x + length, family))
        x += length
    return group


class TestEndTables:
    """The one endpoint-table path: the pair rows are the span table's bits
    at both ends, the Bernstein rows its values (up to the sign of zeros)."""

    @pytest.mark.parametrize("kind", ["trigonometric", "exponential", "custom"])
    def test_match_span_tables_at_the_ends(self, kind):
        rng = np.random.default_rng(23)
        for size in range(1, 15):
            group = _random_group(rng, kind, size)
            tables, p = _end_tables(group), group[0].degree
            assert tables.shape == (len(group), 2, p + 1, p + 1)
            for section, ends in zip(group, tables):
                for got, x in zip(ends, (section.x_lo, section.x_hi)):
                    want = section.span_derivatives(x, p)
                    assert got[p - 1 :].tobytes() == want[p - 1 :].tobytes()
                    assert np.array_equal(got[: p - 1], want[: p - 1])

    @pytest.mark.parametrize("length", [1e-3, 1e-9, 1e-40, 1e-300])
    @pytest.mark.parametrize("omega_length", [1e-300, 1e-9, 1.0, 3.0])
    @pytest.mark.parametrize("kind", [TrigonometricFamily, ExponentialFamily])
    @pytest.mark.parametrize("p", [1, 3, 8, 40])
    def test_non_finite_exactly_where_the_span_tables_are(self, p, kind, omega_length, length):
        section = SectionSpace(0.0, length, kind(p, omega_length / length))
        with np.errstate(all="ignore"):
            want = [section.span_derivatives(x, p) for x in (section.x_lo, section.x_hi)]
        finite = np.isfinite(want).all()
        assert np.isfinite(_end_tables([section])).all() == finite
        if not finite:
            with pytest.raises(EctViolationError, match="non-finite endpoint derivative tables"):
                build_space(SpaceConfig([0.0, length], [section.family], []))


class TestCustomPairCheck:
    """A custom pair that is no ECT section, or whose functions overflow on
    the section, ends the build in an error naming the section, with no
    conditioning warning before it."""

    SINGULAR = GeneralizedPolynomialFamily(
        2,
        u=lambda x, d: (x, 1.0, 0.0)[min(d, 2)],
        v=lambda x, d: (2 * x, 2.0, 0.0)[min(d, 2)],
        name="dependent-pair",
    )

    @pytest.mark.parametrize(
        "config, match",
        [
            (SpaceConfig([0.0, 1.0], [SINGULAR], []), r"split 0/3 of .*dependent-pair"),
            (SpaceConfig([0.0, 800.0], [EXP_PAIR], []), r"\[0\.0, 800\.0\].*exp-pair.* overflow"),
        ],
        ids=["singular", "overflow"],
    )
    def test_build_space_raises_naming_section(self, config, match):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(EctViolationError, match=match):
                build_space(config)
        assert caught == []


def _layout_term_by_term(q: int, width: int) -> tuple[tuple, tuple]:
    """``_bernstein_layout`` as first written, in the flat format: the
    monomials, then every term ``(entry, factor, monomial)``, each factor its
    own product of ``perm`` and ``comb``, rounded once."""
    monomials, terms, start = [], [], []
    for d in range(width):
        start.append(len(monomials))
        monomials += [(k, q - d - k, d) for k in range(q - d + 1)]
    for j in range(q + 1):
        for d in range(min(width, q + 1)):
            r = q - d
            terms += [
                (
                    j * width + d,
                    float((-1) ** (d - i) * math.perm(q, d) * math.comb(d, i) * math.comb(r, j - i)),
                    start[d] + j - i,
                )
                for i in range(max(0, j - r), min(d, j) + 1)
            ]
    return tuple(monomials), tuple(terms)


@pytest.mark.parametrize("q", range(-1, 13))
def test_bernstein_layout_equals_term_by_term_formula(q):
    # every width up to q + 3: the orders of a pair section run past q
    for width in range(1, q + 4):
        monomials, *columns = _bernstein_layout(q, width)
        assert all(not column.flags.writeable for column in columns)
        got = monomials, tuple(zip(*(column.tolist() for column in columns)))
        assert repr(got) == repr(_layout_term_by_term(q, width)), width


@pytest.mark.parametrize("p", range(13))
def test_polynomial_span_table_is_eval_basis_bit_for_bit(p):
    # A polynomial section's span basis is its Bernstein basis and the basis
    # of its one-interval space: one term layout and one product for all three.
    rng = np.random.default_rng(1300 + p)
    for length in 10.0 ** rng.uniform(-2.0, 2.0, 3):
        a = float(rng.uniform(-10.0, 10.0))
        space = build_space(SpaceConfig([a, a + length], [PolynomialFamily(p)], []))
        basis, (a, b) = space.bases[0], space.domain
        xs = np.array([a, b, 0.5 * (a + b), *rng.uniform(a, b, 4)])
        for order in range(p + 1):
            want = eval_basis(space, xs, order)
            for got in (basis.section.span_derivatives(xs, order), basis.evaluate(xs, order)):
                assert got.tobytes() == want.tobytes(), (length, order)
            for x, table in zip(xs.tolist(), want):
                for got in (basis.section.span_derivatives(x, order), basis.evaluate(x, order)):
                    assert got.tobytes() == table.tobytes(), (length, x, order)


class TestSpanBlocks:
    """A section builds the Bernstein block of its span tables once per width
    and keeps it: later calls, points or arrays, span tables or Bernstein
    evaluations, build no map and give the same bits."""

    @staticmethod
    def count_maps(monkeypatch) -> list[int]:
        builds, build = [], sections_module._feature_map
        monkeypatch.setattr(
            sections_module, "_feature_map", lambda *a: builds.append(a[1]) or build(*a)
        )
        return builds

    @pytest.mark.parametrize("template", ALL_SECTIONS, ids=repr)
    def test_second_call_builds_no_map(self, template, monkeypatch):
        section = SectionSpace(template.x_lo, template.x_hi, template.family)  # none kept yet
        builds, p = self.count_maps(monkeypatch), section.degree
        basis = build_bases([section])[0]
        xs = np.linspace(section.x_lo, section.x_hi, 5)
        for order in range(p + 1):
            first = section.span_derivatives(xs, order)
            assert builds == [order + 1]  # one map, at the first call of this width
            again = [section.span_derivatives(x, order) for x in xs.tolist()]
            again += [section.span_derivatives(xs, order), basis.evaluate(xs, order)]
            again += [basis.evaluate(x, order) for x in xs.tolist()]
            assert builds == [order + 1]
            assert np.stack(again[:5]).tobytes() == first.tobytes() == again[5].tobytes()
            builds.clear()

    @pytest.mark.parametrize("kind", [PolynomialFamily, TrigonometricFamily, ExponentialFamily])
    def test_kept_block_keeps_zero_entries_when_the_scale_overflows(self, kind):
        # L^-d is inf from d = 2 on: a kept block holds the scaled factors at
        # the layout's terms only, so the Bernstein rows of the orders above
        # q stay exact zeros and a second call repeats the first bit for bit.
        section = SectionSpace(0.0, 1e-200, kind(4) if kind is PolynomialFamily else kind(4, 1.0))
        assert section._scale[2] == math.inf
        q, xs = section._q, np.array([0.0, 0.3e-200, 1e-200])
        with np.errstate(all="ignore"):
            first = section.span_derivatives(xs, 4)
            second = [section.span_derivatives(x, 4) for x in xs.tolist()]
        assert np.stack(second).tobytes() == first.tobytes()
        assert np.all(first[:, : q + 1, q + 1 :] == 0.0)
        assert np.all(np.isfinite(first[:, :, :2]))


class TestFamilyValidation:
    @pytest.mark.parametrize("kind", [TrigonometricFamily, ExponentialFamily])
    def test_rejects_omega_length_underflowing_to_zero(self, kind):
        # omega and the length are positive, their product is 0.0: the pair's
        # normalizer sin(wL) or 1 - e^(-2 wL) vanishes
        family = kind(3, 1e-200)
        with pytest.raises(InvalidFamilyError, match=r"omega\*length of .*\[0\.0, 1e-200\].* underflows to 0"):
            SectionSpace(0.0, 1e-200, family)
        with pytest.raises(InvalidFamilyError, match="underflows to 0"):
            build_space(SpaceConfig([-1.0, 0.0, 1e-200], [PolynomialFamily(3), family], [1]))
        SectionSpace(0.0, 1e-200, kind(3, 1e-100))  # omega * length = 1e-300 still passes

    def test_trig_rejects_omega_length_at_pi(self):
        with pytest.raises(InvalidFamilyError):
            SectionSpace(0.0, 1.0, TrigonometricFamily(2, math.pi))
        # just below the bound is fine
        SectionSpace(0.0, 1.0, TrigonometricFamily(2, math.pi * (1 - 1e-9)))

    def test_exponential_needs_positive_omega(self):
        with pytest.raises(InvalidFamilyError):
            ExponentialFamily(2, 0.0)

    def test_polynomial_degree_bound(self):
        with pytest.raises(InvalidFamilyError):
            PolynomialFamily(-1)

    def test_whole_numbers_are_converted(self):
        for family in (TrigonometricFamily(3.0, 1), TrigonometricFamily(np.int64(3), np.float64(1))):
            assert (type(family.degree), type(family.omega)) == (int, float)
            assert family == TrigonometricFamily(3, 1.0)
            section = SectionSpace(0.0, 1.0, family)
            assert section.span_derivatives(0.5, 3).shape == (4, 4)

    @pytest.mark.parametrize(
        "family, args, match",
        [
            (PolynomialFamily, (2.5,), "polynomial degree must be an integer"),
            (PolynomialFamily, ("3",), "polynomial degree must be an integer"),
            (PolynomialFamily, (True,), "polynomial degree must be an integer"),
            (TrigonometricFamily, (3.5, 1.0), "trigonometric degree must be an integer"),
            (TrigonometricFamily, (3, "1.0"), "trigonometric omega must be a number"),
            (ExponentialFamily, (3, True), "exponential omega must be a number"),
            (ExponentialFamily, (np.bool_(True), 2.0), "exponential degree must be an integer"),
            (
                GeneralizedPolynomialFamily,
                (2.5, EXP_PAIR.u, EXP_PAIR.v),
                "generalized polynomial degree must be an integer",
            ),
        ],
        ids=[
            "poly-fraction",
            "poly-string",
            "poly-bool",
            "trig-fraction",
            "trig-omega-string",
            "exp-omega-bool",
            "exp-degree-bool",
            "custom-fraction",
        ],
    )
    def test_parameters_are_checked(self, family, args, match):
        with pytest.raises(InvalidFamilyError, match=match):
            family(*args)

    @pytest.mark.parametrize(
        "family, length",
        [
            (ExponentialFamily(3, 1e200), 1.0),
            (ExponentialFamily(4, 1e80), 1.0),
            (TrigonometricFamily(3, 1e200), 1e-201),  # omega * length = 0.1 < pi
        ],
        ids=["exp-1e200", "exp-p4-1e80", "trig-1e200"],
    )
    def test_huge_omega_raises_naming_section(self, family, length):
        # omega^d overflows: the tables are not finite, and the build says so
        section = SectionSpace(0.0, length, family)
        with pytest.raises(EctViolationError, match=re.escape(f"tables of {section!r}")):
            build_space(SpaceConfig([0.0, length], [family], []))


def _pair(section, x, order=0) -> tuple:
    """``(D^order U*, D^order V*)`` of one section at a point or an array."""
    return tuple(normalized_pair([section], x, 0, [order]))


class TestNormalizedPair:
    def test_degenerate_custom_endpoint_system(self):
        # u = v: the reduced pair's values at the two ends cannot separate them
        same = lambda x, d: 1.0 + x  # noqa: E731
        section = SectionSpace(0.0, 1.0, GeneralizedPolynomialFamily(3, same, same, name="equal"))
        with pytest.raises(InvalidFamilyError, match="^degenerate endpoint system: "):
            normalized_pair([section], 0.5, 0, [0])

    def test_affine_pair(self):
        section = SectionSpace(0.0, 1.0, PolynomialFamily(2))
        xs = np.linspace(0, 1, 11)
        assert np.allclose([_pair(section, x)[0] for x in xs], 1 - xs)
        assert np.allclose([_pair(section, x)[1] for x in xs], xs)

    def test_trig_pair_closed_form(self):
        # On [1, 5/2] with omega = pi/2 the normalized pair is
        # -sqrt(2) cos(pi/4 + pi x / 2) and -sqrt(2) cos(pi x / 2).
        section = SectionSpace(1.0, 2.5, TrigonometricFamily(3, math.pi / 2))
        for x in np.linspace(1.0, 2.5, 17):
            u_star, v_star = _pair(section, float(x))
            assert u_star == pytest.approx(
                -math.sqrt(2) * math.cos(math.pi / 4 + math.pi * x / 2), abs=1e-14
            )
            assert v_star == pytest.approx(
                -math.sqrt(2) * math.cos(math.pi * x / 2), abs=1e-14
            )

    def test_exp_pair_closed_form(self):
        section = SectionSpace(2.5, 5.0, ExponentialFamily(4, 10.0))
        for x in np.linspace(2.5, 5.0, 9):
            expected = math.sinh(50 - 10 * x) / math.sinh(25)
            assert _pair(section, float(x))[0] == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize(
        "section", [s for s in ALL_SECTIONS if s.degree >= 1], ids=lambda s: repr(s.family)
    )
    def test_endpoint_conditions(self, section):
        u_lo, v_lo = _pair(section, section.x_lo)
        u_hi, v_hi = _pair(section, section.x_hi)
        assert u_lo == pytest.approx(1.0, abs=1e-14)
        assert u_hi == pytest.approx(0.0, abs=1e-14)
        assert v_lo == pytest.approx(0.0, abs=1e-14)
        assert v_hi == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize(
        "section", [SectionSpace(0.0, 1.0, PolynomialFamily(2))] + ARRAY_SECTIONS[2:],
        ids=lambda s: repr(s.family),
    )
    def test_array_equals_scalar_calls(self, section, rng):
        xs = _points(section, rng)
        for order in range(3):
            stacked = np.array([_pair(section, float(x), order) for x in xs]).T
            assert np.array_equal(np.array(_pair(section, xs, order)), stacked)

    def test_custom_pair_solves_endpoint_system(self):
        fam = GeneralizedPolynomialFamily(
            3,
            u=lambda x, d: (math.sin(x), math.cos(x), -math.sin(x), -math.cos(x))[d % 4],
            v=lambda x, d: (math.cos(x), -math.sin(x), -math.cos(x), math.sin(x))[d % 4],
        )
        section = SectionSpace(0.0, 1.0, fam)
        assert _pair(section, 0.0)[0] == pytest.approx(1.0, abs=1e-14)
        assert _pair(section, 1.0)[1] == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("kind", ["polynomial", "trigonometric", "exponential", "custom"])
    def test_group_equals_each_section_alone(self, kind):
        # one call for a group, unsorted points, every order: each section's
        # rows bit for bit, the exponential group up to omega * length = 40
        rng = np.random.default_rng(47)
        for size in (1, 2, 7):
            if kind == "polynomial":
                p, bp = int(rng.integers(1, 6)), np.cumsum(rng.uniform(0.1, 3.0, size + 1))
                group = [SectionSpace(a, b, PolynomialFamily(p)) for a, b in zip(bp, bp[1:])]
            else:
                group = _random_group(rng, kind, size)
            if kind == "exponential":
                end, p = group[-1].x_hi, group[0].degree
                group.append(SectionSpace(end, end + 1.0, ExponentialFamily(p, 40.0)))
            orders = range(group[0].degree + 1)
            at = rng.permutation(np.repeat(np.arange(len(group)), 9))
            xs = np.array([rng.uniform(group[i].x_lo, group[i].x_hi) for i in at])
            rows = np.array(normalized_pair(group, xs, at, orders))
            for i, section in enumerate(group):
                want = np.array(normalized_pair([section], xs[at == i], 0, orders))
                assert rows[:, at == i].tobytes() == want.tobytes()
                x = float(xs[at == i][0])
                alone = [float(v) for v in normalized_pair([section], x, 0, orders)]
                assert alone == want[:, 0].tolist()

    @pytest.mark.parametrize(
        "family, order",
        [
            (PolynomialFamily(1), 2),
            (TrigonometricFamily(1, 2.0), 2),
            (ExponentialFamily(1, 2.0), 2),
            (EXP_PAIR, 4),
            (ExponentialFamily(3, 2.0), -1),
        ],
        ids=["polynomial-p1", "trigonometric-p1", "exponential-p1", "custom-p3", "negative"],
    )
    def test_order_outside_degree_raises(self, family, order):
        # the cached pair numbers stop at order p: a higher order is a
        # library error, not an IndexError
        section = SectionSpace(0.0, 1.0, family)
        for x in (0.5, np.linspace(0.0, 1.0, 5)):
            with pytest.raises(OrderError, match="outside"):
                normalized_pair([section], x, 0, [0, order])

    def test_degree_zero_has_no_pair(self):
        with pytest.raises(InvalidFamilyError, match="degree >= 1"):
            normalized_pair([SectionSpace(0.0, 1.0, PolynomialFamily(0))], 0.5, 0, [0])


class TestGpbWeights:
    # rows p - 1 and p of the weight system are the two non-trivial weights
    def test_polynomial_weights_are_one_on_unit_interval(self):
        xs = np.linspace(0, 1, 11)
        w1, w2 = weight_system(SectionSpace(0.0, 1.0, PolynomialFamily(2)), xs)[1:]
        assert np.allclose(w1, 1.0)
        assert np.allclose(w2, 1.0)

    def test_trig_weight_endpoint_value(self):
        section = SectionSpace(1.0, 2.5, TrigonometricFamily(3, math.pi / 2))
        w_lower = weight_system(section, [1.0, 2.5])[2]
        assert w_lower[0] == pytest.approx(1.0, abs=1e-14)
        assert w_lower[1] == pytest.approx(1.0, abs=1e-14)

    def test_exponential_weights_positive(self):
        section = SectionSpace(2.5, 5.0, ExponentialFamily(4, 10.0))
        w_lower, w_top = weight_system(section, np.linspace(2.5, 5.0, 100))[3:]
        assert np.all(w_lower > 0.0)
        assert np.all(w_top > 0.0)

    def test_nonpositive_wronskian_weight_raises(self):
        # D u = 1 and D v = x^3: the Wronskian weight changes sign at x = 0
        def u(x, d):
            return (x, 1.0, 0.0)[d]

        def v(x, d):
            return (x**4 / 4, x**3, 3 * x**2)[d]

        section = SectionSpace(-0.5, 1.0, GeneralizedPolynomialFamily(2, u, v))
        message = "weight wronskian weight is not strictly positive on [-0.5, 1.0]"
        with pytest.raises(InvalidFamilyError, match=re.escape(message)):
            weight_system(section, np.linspace(-0.5, 1.0, 5))

    @pytest.mark.parametrize(
        "section",
        [
            # U* + V* underflows to 0 mid-interval: the Wronskian weight is 0/0
            SectionSpace(0.0, 1.0, ExponentialFamily(3, 800.0)),
            # U* DV* overflows mid-interval: the Wronskian weight is +inf
            SectionSpace(0.0, 1.0, OVERFLOWING_PAIR),
        ],
        ids=["underflow", "overflow"],
    )
    def test_nonfinite_weight_raises_without_warning(self, section):
        message = "weight wronskian weight is not strictly positive on [0.0, 1.0]"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidFamilyError, match=re.escape(message)):
                weight_system(section, np.linspace(0.0, 1.0, 5))

    @pytest.mark.parametrize("kind", ["polynomial", "trigonometric", "exponential", "custom"])
    def test_group_rows_equal_each_section_alone(self, kind):
        # one array evaluation for a group, unsorted points, gives each
        # section's weights bit for bit
        rng = np.random.default_rng(31)
        for size in (1, 2, 7):
            if kind == "polynomial":
                p, bp = int(rng.integers(1, 6)), np.cumsum(rng.uniform(0.1, 3.0, size + 1))
                group = [SectionSpace(a, b, PolynomialFamily(p)) for a, b in zip(bp, bp[1:])]
            elif kind == "custom":  # a group of one
                group = [SectionSpace(0.0, 1.0, EXP_PAIR)]
            else:
                group = _random_group(rng, kind, size)
            at = rng.permutation(np.repeat(np.arange(len(group)), 9))
            xs = np.array([rng.uniform(group[i].x_lo, group[i].x_hi) for i in at])
            rows = _weight_rows(group, xs, at)
            for i, section in enumerate(group):
                want = weight_system(section, xs[at == i])[section.degree - 1 :]
                assert rows[:, at == i].tobytes() == want.tobytes()


def _assert_close_to_reference(section):
    """Span tables (per derivative order) and weights within 1e-14 of the
    ``math``-based per-point reference, relative to each array's largest
    entry."""
    p = section.degree
    xs = np.linspace(section.x_lo, section.x_hi, 17)
    table = section.span_derivatives(xs, p)
    want = np.array([reference_span_derivatives(section, x, p) for x in xs])
    for d in range(p + 1):
        err = np.max(np.abs(table[..., d] - want[..., d]))
        assert err <= 1e-14 * np.max(np.abs(want[..., d])), (section, d)
    weights, want = weight_system(section, xs), reference_weight_system(section, xs)
    assert np.max(np.abs(weights - want)) <= 1e-14 * np.max(np.abs(want)), section


class TestMathReference:
    """The numpy kernel moves the span tables and weights of the point-by-point
    ``math`` evaluation in the last bits only."""

    @pytest.mark.parametrize("section", ALL_SECTIONS + ARRAY_SECTIONS, ids=lambda s: repr(s.family))
    def test_sections(self, section):
        _assert_close_to_reference(section)

    def test_random_spaces(self):
        rng = np.random.default_rng(777)
        for _ in range(300):
            for section in sections_of(random_config(rng)):
                _assert_close_to_reference(section)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    family=st.sampled_from([TrigonometricFamily, ExponentialFamily]),
    p=st.integers(min_value=2, max_value=8),
    lo=st.floats(min_value=-1.0, max_value=1.0),
    length=st.floats(min_value=0.5, max_value=2.0),
    u=st.floats(min_value=0.0, max_value=1.0),
    scale=st.floats(min_value=1e-6, max_value=1e3),
    shift=st.floats(min_value=-10.0, max_value=10.0),
)
def test_span_table_is_invariant_under_change_of_unit(
    data, family, p, lo, length, u, scale, shift
):
    # Under x -> s x + c and omega -> omega / s, column d of the span table
    # scales by s^-d: a section does not depend on the unit of x.
    top = math.pi - 0.1 if family is TrigonometricFamily else 40.0
    wl = data.draw(st.floats(min_value=1e-3, max_value=top), label="omega * length")
    section = SectionSpace(lo, lo + length, family(p, wl / length))
    c = shift * scale
    mapped = SectionSpace(scale * lo + c, scale * (lo + length) + c, family(p, wl / length / scale))
    xs = lo + length * np.array([0.0, u, 1.0])
    table = section.span_derivatives(xs, p)
    got = mapped.span_derivatives(np.clip(scale * xs + c, mapped.x_lo, mapped.x_hi), p)
    for d in range(p + 1):
        want = table[..., d] * scale**-d
        assert np.max(np.abs(got[..., d] - want)) <= 1e-12 * np.max(np.abs(want)), d


def _eight_bits(v: float) -> float:
    """``v`` rounded to 8 significant bits."""
    mantissa, exponent = math.frexp(v)
    return math.ldexp(round(mantissa * 256), exponent - 8)


@pytest.mark.parametrize("wl", [1e-6, 1e-2, 1.0, 6.0, 29.9, 30.1, 100.0, 700.0])
def test_exponential_pair_matches_mpmath(wl):
    # U* = sinh(w (1 - x))/sinh(w), V* = sinh(w x)/sinh(w) on [0, 1] with
    # w = omega L, against 50 digits.  With w rounded to 8 significant bits
    # and x = k/8, w x and w (1 - x) are exact, so what is measured is the
    # formula's own rounding, not the conditioning of sinh in its argument.
    mpmath = pytest.importorskip("mpmath")
    p, w = 4, _eight_bits(wl)
    xs = np.arange(9) / 8.0
    got = SectionSpace(0.0, 1.0, ExponentialFamily(p, w)).span_derivatives(xs, p)[:, p - 1 :]
    with mpmath.workdps(50):
        w_mp = mpmath.mpf(w)

        def rows(v, sign):  # D^0 .. D^p in x of sinh(w v) / sinh(w), dv/dx = sign
            ratio = [f(w_mp * v) / mpmath.sinh(w_mp) for f in (mpmath.sinh, mpmath.cosh)]
            return [float((sign * w_mp) ** d * ratio[d % 2]) for d in range(p + 1)]

        want = np.array([[rows(1 - mpmath.mpf(x), -1), rows(mpmath.mpf(x), 1)] for x in xs.tolist()])
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(min_value=0.05, max_value=0.95),
    omega=st.floats(min_value=0.1, max_value=3.0),
)
def test_trig_second_derivative_identity(x, omega):
    # sin/cos span functions satisfy f'' = -omega^2 f; the normalized pair
    # inherits the identity exactly.
    section = SectionSpace(0.0, 1.0, TrigonometricFamily(2, omega))
    table = section.span_derivatives(x, 2)
    for j in (1, 2):
        assert table[j, 2] == pytest.approx(-(omega**2) * table[j, 0], rel=1e-12, abs=1e-12)
