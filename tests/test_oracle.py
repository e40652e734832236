import math
import re

import numpy as np
import numpy.polynomial.chebyshev as cheb
import pytest
from scipy.interpolate import BSpline

from gtbsplines import (
    ConfigError,
    DomainError,
    ExponentialFamily,
    GeneralizedPolynomialFamily,
    OracleUnsupportedError,
    PolynomialFamily,
    SectionSpace,
    SpaceConfig,
    TrigonometricFamily,
    build_space,
    eval_basis,
)
from gtbsplines import oracle
from gtbsplines.bernstein import build_bernstein
from gtbsplines.config import conic_profile_demo_config, mixed_family_demo_config
from gtbsplines.oracle import (
    RecurrenceEvaluator,
    _fit_rule,
    _section_nodes,
    cox_de_boor_basis,
    cox_de_boor_knots,
    local_recurrence_eval,
)
from gtbsplines.sections import normalized_pair

from helpers import bench_generator, random_config, reference_cox_de_boor
from oracles import GroupedRecurrence, RecurrenceBernstein


def _used_node_counts() -> list[int]:
    """Chebyshev node counts of the sections of both demo spaces and of the
    three benchmark spaces (seed 1)."""
    gen = bench_generator()
    configs = [mixed_family_demo_config(), conic_profile_demo_config()]
    configs += [SpaceConfig.from_dict(gen.generate(w, 1)[0]) for w in gen.WORKLOADS]
    return sorted(
        {
            _section_nodes(SectionSpace(lo, hi, family))
            for cfg in configs
            for lo, hi, family in zip(cfg.breakpoints, cfg.breakpoints[1:], cfg.sections)
        }
    )


def test_stretched_sections_share_one_node_count():
    # The benchmark generator scales omega by 1/stretch and the length by
    # stretch, so the rounded product omega * L of one nominal stiffness lands
    # on either side of the whole number; every section of one family and
    # nominal stiffness gets one node count.
    gen = bench_generator()
    for seed in range(6):
        cfg = SpaceConfig.from_dict(gen.generate("sample-mixed", seed)[0])
        counts: dict[tuple, set[int]] = {}
        for lo, hi, family in zip(cfg.breakpoints, cfg.breakpoints[1:], cfg.sections):
            key = (type(family).__name__, family.degree)
            counts.setdefault(key, set()).add(_section_nodes(SectionSpace(lo, hi, family)))
        assert all(len(c) == 1 for c in counts.values()), (seed, counts)
    # the same count exactly at, and within 1e-12 above, a whole number; one
    # more step beyond it
    omegas = (6.0, 6.0 * (1 + 2e-16), 6.0 * (1 + 1e-13), 6.0 * (1 + 1e-9))
    nodes = [_section_nodes(SectionSpace(0.0, 1.0, ExponentialFamily(4, w))) for w in omegas]
    assert nodes == [nodes[0]] * 3 + [nodes[0] + 8]


def test_integration_matrices_match_chebint(rng):
    counts = _used_node_counts()
    assert len(counts) >= 5
    for n in counts:
        rule = _fit_rule(n)
        for _ in range(3):
            coef = rng.standard_normal(n)
            anti = cheb.chebint(coef)
            offset = cheb.chebval(-1.0, anti)
            cumulative = cheb.chebval(rule.t_nodes, anti) - offset
            mass = cheb.chebval(1.0, anti) - offset
            scale = max(np.max(np.abs(cumulative)), abs(mass))
            assert np.max(np.abs(rule.cumulative @ coef - cumulative)) <= 1e-13 * scale, n
            assert abs(rule.mass @ coef - mass) <= 1e-13 * scale, n


def test_evaluator_cache_keeps_last_space_only(monkeypatch):
    monkeypatch.setattr(oracle, "_EVALUATOR_CACHE", {})
    spaces = [
        build_space(SpaceConfig([0.0, 1.0, 2.0], [PolynomialFamily(p)] * 2, [p - 1]))
        for p in (1, 2, 3)
    ]
    for space in spaces:
        local_recurrence_eval(space, 1, 0.5)
        assert len(oracle._EVALUATOR_CACHE) == 1
    last = spaces[-1]
    assert all(ev.space is last for ev in oracle._EVALUATOR_CACHE.values())
    cached = oracle._EVALUATOR_CACHE["local"]
    for k in range(1, last.n_basis + 1):
        local_recurrence_eval(last, k, 1.5)
    assert oracle._EVALUATOR_CACHE["local"] is cached


class TestLocalRecurrence:
    def test_single_quadratic_patch(self):
        space = build_space(SpaceConfig([0.0, 1.0], [PolynomialFamily(2)], []))
        assert local_recurrence_eval(space, 2, 0.5) == pytest.approx(0.5, abs=1e-8)

    def test_two_hats_peak(self):
        space = build_space(
            SpaceConfig([0.0, 1.0, 2.0], [PolynomialFamily(1)] * 2, [0])
        )
        assert local_recurrence_eval(space, 2, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_array_equals_scalar_calls(self, mixed_space):
        # unsorted and repeated points, breakpoints and both domain ends
        bp = mixed_space.partition.breakpoints
        xs = np.concatenate([np.linspace(5.0, 0.0, 23), bp, bp[1:2]])
        for k in range(1, mixed_space.n_basis + 1):
            got = local_recurrence_eval(mixed_space, k, xs)
            want = [local_recurrence_eval(mixed_space, k, float(x)) for x in xs]
            assert all(isinstance(v, float) for v in want)
            assert got.shape == xs.shape and np.array_equal(got, want)

    def test_many_functions_equal_single_calls(self, mixed_space):
        # a sequence of k adds a trailing axis; every entry has the bits of
        # the single-k call, at a point and at an array of points (unsorted,
        # repeated, the breakpoints and both ends)
        bp = mixed_space.partition.breakpoints
        xs = np.concatenate([np.linspace(5.0, 0.0, 23), bp, bp[1:2]])
        ks = [3, 1, mixed_space.n_basis, 3, 2]
        got = local_recurrence_eval(mixed_space, ks, xs)
        assert got.shape == (len(xs), len(ks))
        for j, k in enumerate(ks):
            assert np.array_equal(got[:, j], local_recurrence_eval(mixed_space, k, xs))
        for x in xs:
            at_x = local_recurrence_eval(mixed_space, ks, float(x))
            assert at_x.shape == (len(ks),)
            assert np.array_equal(at_x, [local_recurrence_eval(mixed_space, k, float(x)) for k in ks])

    def test_basis_index_is_a_whole_number(self, mixed_space):
        assert local_recurrence_eval(mixed_space, 2.0, 0.5) == local_recurrence_eval(mixed_space, 2, 0.5)
        assert np.array_equal(
            local_recurrence_eval(mixed_space, np.array([1.0, 3.0]), [0.5, 2.0]),
            local_recurrence_eval(mixed_space, [1, 3], [0.5, 2.0]),
        )
        for bad in (2.5, [1, 2.5], True):
            with pytest.raises(ConfigError, match="basis index must be an integer"):
                local_recurrence_eval(mixed_space, bad, 0.5)

    def test_basis_indices_are_checked_as_one_array(self, mixed_space, monkeypatch):
        # One vectorized check of the whole sequence: _integer reads only the
        # first offending entry, so the messages name it as before, and an
        # index of every basis function costs no Python call per entry.
        calls = []

        def counted(*args):
            calls.append(args[0])
            return integer(*args)

        integer = oracle._integer
        monkeypatch.setattr(oracle, "_integer", counted)
        n = mixed_space.n_basis
        evaluator = RecurrenceEvaluator(mixed_space)
        evaluator.evaluate(range(1, n + 1), [0.5, 2.0])
        assert len(calls) <= 1
        cases = [
            ([1, 2, 1.5, 0, 3], "basis index must be an integer, got 1.5"),
            ([1, 2, 0, 3, 1.5], "basis index must be an integer, got 1.5"),
            ([1, 2, 0, n + 1, 3], f"basis index 0 outside [1, {n}]"),
            ([1, n + 1, 0, 3], f"basis index {n + 1} outside [1, {n}]"),
        ]
        for ks, message in cases:
            calls.clear()
            with pytest.raises(ConfigError) as info:
                evaluator.evaluate(ks, 0.5)
            assert str(info.value) == message
            assert len(calls) == 1

    def test_matches_extraction_on_mixed_cycle(self):
        # 48 intervals cycling through cubic, trigonometric, exponential
        # (omega * length 6) and quartic sections, joints C^2 and C^1
        cycle = [
            (PolynomialFamily(3), 1.0),
            (TrigonometricFamily(3, 1.2), 1.25),
            (ExponentialFamily(4, 6.0), 1.0),
            (PolynomialFamily(4), 1.0),
        ]
        sections = [cycle[i % 4][0] for i in range(48)]
        breakpoints = np.concatenate([[0.0], np.cumsum([cycle[i % 4][1] for i in range(48)])])
        space = build_space(SpaceConfig(list(breakpoints), sections, [2, 1] * 23 + [2]))
        xs = np.concatenate([np.linspace(0.0, breakpoints[-1], 301), breakpoints])
        got = local_recurrence_eval(space, range(1, space.n_basis + 1), xs)
        assert np.max(np.abs(got - eval_basis(space, xs)[:, :, 0])) <= 1e-12

    def test_failing_weights_name_the_first_section(self):
        # the custom pair raises off its ends: the build reads the ends
        # only, the oracle's weights need the inside
        def u(x, d):
            if not (x == math.floor(x)):
                raise ValueError("no value inside")
            return math.exp(x)

        family = GeneralizedPolynomialFamily(3, u=u, v=lambda x, d: (2.0**d) * math.exp(2.0 * x))
        config = SpaceConfig(
            [0.0, 1.0, 2.0, 3.0], [PolynomialFamily(3), family, family], [1, 1]
        )
        space = build_space(config)
        with pytest.raises(OracleUnsupportedError, match=re.escape(f"{space.bases[1].section!r}: no value inside")):
            RecurrenceEvaluator(space)

    def test_matches_extraction_on_mixed_demo(self, mixed_space):
        xs = np.linspace(0.0, 5.0, 20)
        for k in range(1, mixed_space.n_basis + 1):
            for x in xs:
                ref = eval_basis(mixed_space, float(x))[k - 1, 0]
                assert local_recurrence_eval(mixed_space, k, float(x)) == pytest.approx(
                    ref, abs=1e-7
                )

    def test_uniform_trig_space(self):
        cfg = SpaceConfig([0.0, 1.0, 2.0, 3.0], [TrigonometricFamily(3, 1.0)] * 3, [2, 2])
        space = build_space(cfg)
        xs = np.linspace(0.0, 3.0, 25)
        for k in range(1, space.n_basis + 1):
            for x in xs:
                ref = eval_basis(space, float(x))[k - 1, 0]
                assert local_recurrence_eval(space, k, float(x)) == pytest.approx(
                    ref, abs=1e-9
                )

    def test_right_endpoint_left_limit(self, mixed_space):
        assert local_recurrence_eval(mixed_space, mixed_space.n_basis, 5.0) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_intermediate_masses_positive(self, mixed_space):
        ev = RecurrenceEvaluator(mixed_space)
        assert len(ev.levels) == ev.p_max + 1
        for q, level in enumerate(ev.levels):
            for k, total in level.items():
                assert total > 0.0, (q, k)


class TestBernsteinRecurrence:
    def test_polynomial_matches_binomial(self):
        section = SectionSpace(0.0, 1.0, PolynomialFamily(2))
        ladder = RecurrenceBernstein(section)
        for x in np.linspace(0, 1, 17):
            vals = ladder.evaluate(float(x))[:, 0]
            assert vals[1] == pytest.approx(2 * x * (1 - x), abs=1e-9)

    def test_trig_matches_closed_form(self):
        omega = 1.0
        section = SectionSpace(0.0, 1.0, TrigonometricFamily(2, omega))
        ladder = RecurrenceBernstein(section)
        for x in np.linspace(0, 1, 17):
            expected = (1 - math.cos(omega * (1 - x))) / (1 - math.cos(omega))
            assert ladder.evaluate(float(x))[0, 0] == pytest.approx(expected, abs=1e-9)

    def test_base_level_is_normalized_pair(self):
        section = SectionSpace(0.0, 1.0, ExponentialFamily(1, 2.0))
        ladder = RecurrenceBernstein(section)
        for x in np.linspace(0, 1, 9):
            vals = ladder.evaluate(float(x))[:, 0]
            u_star, v_star = normalized_pair([section], float(x), 0, [0])
            assert vals[0] == pytest.approx(u_star, abs=1e-12)
            assert vals[1] == pytest.approx(v_star, abs=1e-12)

    def test_agrees_with_hermite_construction(self, rng):
        for section in (
            SectionSpace(1.0, 2.5, TrigonometricFamily(3, math.pi / 2)),
            SectionSpace(0.0, 1.5, ExponentialFamily(3, 2.0)),
            SectionSpace(-1.0, 1.0, PolynomialFamily(4)),
        ):
            ladder = RecurrenceBernstein(section)
            hermite = build_bernstein(section)
            for x in rng.uniform(section.x_lo, section.x_hi, 25):
                delta = ladder.evaluate(float(x))[:, 0] - hermite.evaluate(float(x))[:, 0]
                assert np.max(np.abs(delta)) <= 1e-9

    def test_degree_zero_unsupported(self):
        with pytest.raises(OracleUnsupportedError):
            RecurrenceBernstein(SectionSpace(0.0, 1.0, PolynomialFamily(0)))


class TestOracleAgreementOnRandomSpaces:
    def test_custom_pair_space(self):
        from gtbsplines import GeneralizedPolynomialFamily

        custom = GeneralizedPolynomialFamily(
            3,
            u=lambda x, d: math.exp(x),
            v=lambda x, d: (2.0**d) * math.exp(2.0 * x),
            name="exp-pair",
        )
        space = build_space(
            SpaceConfig([0.0, 1.0, 2.0], [custom, PolynomialFamily(3)], [1])
        )
        for x in np.linspace(0.0, 2.0, 21):
            vals = eval_basis(space, float(x))[:, 0]
            for k in range(1, space.n_basis + 1):
                assert local_recurrence_eval(space, k, float(x)) == pytest.approx(
                    vals[k - 1], abs=1e-9
                )

    def test_random_spaces(self):
        # degrees up to 5, smoothness from -1 up
        rng = np.random.default_rng(5)
        for _ in range(40):
            space = build_space(random_config(rng, int(rng.integers(1, 7)), max_degree=5))
            xs = np.concatenate([rng.uniform(*space.domain, 25), space.partition.breakpoints])
            want = eval_basis(space, xs)[:, :, 0]
            ks = range(1, space.n_basis + 1)
            assert np.max(np.abs(local_recurrence_eval(space, ks, xs) - want)) <= 1e-9

    def test_sampled_spaces(self, rng):
        for _ in range(4):
            space = build_space(random_config(rng, n_intervals=3))
            xs = rng.uniform(*space.domain, 10)
            for x in xs:
                vals = eval_basis(space, float(x))[:, 0]
                for k in range(1, space.n_basis + 1):
                    assert local_recurrence_eval(space, k, float(x)) == pytest.approx(
                        vals[k - 1], abs=1e-7
                    )


def _reference_spaces():
    """Both demo spaces, the three benchmark spaces for seeds 0-2 and 120
    random spaces of degree up to 5."""
    gen = bench_generator()
    configs = [mixed_family_demo_config(), conic_profile_demo_config()]
    configs += [SpaceConfig.from_dict(gen.generate(w, s)[0]) for w in gen.WORKLOADS for s in range(3)]
    rng = np.random.default_rng(35)
    configs += [random_config(rng, int(rng.integers(1, 7)), max_degree=5) for _ in range(120)]
    return [build_space(cfg) for cfg in configs]


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


class TestGroupedReference:
    """The evaluator's one pair layout and one Clenshaw pass against the
    group-by-group reference: every number equal bit for bit."""

    def test_levels_top_and_values_equal_reference(self):
        spaces = _reference_spaces()
        assert len(spaces) >= 131
        for space in spaces:
            ours, ref = RecurrenceEvaluator(space), GroupedRecurrence(space)
            assert len(ours.levels) == len(ref.levels) == ours.p_max + 1
            for mine, theirs in zip(ours.levels, ref.levels):
                assert list(mine) == list(theirs)
                assert _bits(list(mine.values())) == _bits(list(theirs.values()))
            for (n, p_e, es), top in zip(ref._groups, ref._top):
                rows = ours._top[ours._start[es, None] + np.arange(p_e + 1)]
                assert _bits(rows[:, :, :n].transpose(2, 0, 1)) == _bits(top)
                assert not rows[:, :, n:].any()
            a, b = space.domain
            xs = np.concatenate([np.linspace(b, a, 61), space.partition.breakpoints])
            ks = list(range(1, space.n_basis + 1))
            assert _bits(ours.evaluate(ks, xs)) == _bits(ref.evaluate(ks, xs))
            for k in (1, space.n_basis, ks[len(ks) // 2]):
                assert _bits(ours.evaluate(k, xs)) == _bits(ref.evaluate(k, xs))
            for x in xs[::10].tolist():
                assert _bits(ours.evaluate(ks[::-1], x)) == _bits(ref.evaluate(ks[::-1], x))
                got, want = ours.evaluate(space.n_basis, x), ref.evaluate(space.n_basis, x)
                assert isinstance(got, float) and _bits(got) == _bits(want)

    def test_custom_pair_space_equals_reference(self):
        custom = GeneralizedPolynomialFamily(
            3, u=lambda x, d: math.exp(x), v=lambda x, d: (2.0**d) * math.exp(2.0 * x)
        )
        space = build_space(SpaceConfig([0.0, 1.0, 2.0, 3.0], [custom, PolynomialFamily(3), custom], [1, 2]))
        ours, ref = RecurrenceEvaluator(space), GroupedRecurrence(space)
        assert ours.levels == ref.levels
        xs, ks = np.linspace(0.0, 3.0, 41), range(1, space.n_basis + 1)
        assert _bits(ours.evaluate(ks, xs)) == _bits(ref.evaluate(ks, xs))

    def test_one_sort_per_evaluator(self, monkeypatch, mixed_space):
        # the (function, element) layout is sorted once, not once per level
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda *args, **kw: calls.append(1) or lexsort(*args, **kw))
        ev = RecurrenceEvaluator(mixed_space)
        assert ev.p_max >= 2 and len(calls) == 1


class TestCoxDeBoor:
    def test_knot_vector_construction(self):
        knots = cox_de_boor_knots([0.0, 1.0, 2.0], 3, [1])
        assert np.array_equal(knots, [0, 0, 0, 0, 1, 1, 2, 2, 2, 2])

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_matches_scipy(self, degree, rng):
        breakpoints = [0.0, 0.8, 1.7, 2.4, 4.0]
        smoothness = [int(rng.integers(0, degree)) for _ in range(3)]
        knots = cox_de_boor_knots(breakpoints, degree, smoothness)
        n = len(knots) - degree - 1
        spline = BSpline(knots, np.eye(n), degree, extrapolate=False)
        for x in rng.uniform(0.01, 3.99, 60):
            ours = cox_de_boor_basis(knots, degree, float(x), min(degree, 2))
            ref_vals = spline(float(x))
            assert np.max(np.abs(ours[:, 0] - ref_vals)) <= 1e-12
            d1 = spline.derivative()(float(x))
            assert np.max(np.abs(ours[:, 1] - d1)) <= 1e-10

    def test_left_limit_at_right_end(self):
        knots = cox_de_boor_knots([0.0, 1.0, 2.0], 2, [1])
        vals = cox_de_boor_basis(knots, 2, 2.0)
        assert vals[-1, 0] == pytest.approx(1.0)
        assert abs(vals[:-1, 0]).max() == 0.0

    @pytest.mark.parametrize("degree", range(7))
    def test_matches_global_recursion(self, degree, rng):
        for _ in range(3):
            # interior multiplicities 1 .. p + 1, i.e. smoothness p - 1 .. -1
            breakpoints = np.cumsum(np.concatenate([[-1.0], rng.uniform(0.3, 1.5, 6)]))
            smoothness = rng.integers(-1, degree, 5)
            knots = cox_de_boor_knots(breakpoints, degree, smoothness)
            xs = np.concatenate([knots, rng.uniform(knots[0], knots[-1], 40)])
            # order degree + 1 is identically zero in both
            got = cox_de_boor_basis(knots, degree, xs, degree + 1)
            ref = np.array([reference_cox_de_boor(knots, degree, x, degree + 1) for x in xs])
            for d in range(degree + 2):
                scale = np.max(np.abs(ref[:, :, d]))
                assert np.max(np.abs(got[:, :, d] - ref[:, :, d])) <= 1e-14 * scale, d
            want = [cox_de_boor_basis(knots, degree, float(x), degree + 1) for x in xs]
            assert got.shape == (len(xs), len(knots) - degree - 1, degree + 2)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("bad", [2.5, -0.5, math.nan, math.inf, -math.inf])
    def test_point_outside_domain_raises(self, bad):
        knots = cox_de_boor_knots([0.0, 1.0, 2.0], 2, [1])
        with pytest.raises(DomainError):
            cox_de_boor_basis(knots, 2, bad)
        with pytest.raises(DomainError):
            cox_de_boor_basis(knots, 2, np.array([0.5, bad]), 1)

    def test_knot_vector_not_open_raises(self):
        with pytest.raises(ConfigError):
            cox_de_boor_basis([0.0, 0.0, 1.0, 2.0, 2.0, 2.0], 2, 1.0)
