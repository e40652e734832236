import collections
import dataclasses
import json
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import gtbsplines.extraction as extraction_module
import gtbsplines.sections as sections_module
import gtbsplines.space as space_module
from gtbsplines import (
    AdmissibilityWarning,
    BasisNonexistenceError,
    BernsteinBasis,
    ConfigError,
    DomainError,
    ExponentialFamily,
    ExtractionMatrix,
    GeneralizedPolynomialFamily,
    GTBError,
    InsertionError,
    InvalidFamilyError,
    OrderError,
    Partition,
    PolynomialFamily,
    SectionSpace,
    SpaceConfig,
    SplineCurve,
    TrigonometricFamily,
    build_space,
    eval_basis,
    eval_curve,
    insert_knot,
    jump_vector,
    unit_integral_scaling,
)
from gtbsplines.bernstein import build_bernstein
from gtbsplines.cli import main
from gtbsplines.quadrature import gauss_legendre, section_panels
from gtbsplines.extraction import build_knot_vectors
from gtbsplines.space import jump_residuals
from gtbsplines.config import mixed_family_demo_config
from gtbsplines.oracle import cox_de_boor_basis, cox_de_boor_knots

from helpers import (
    boehm_insert,
    central_diff,
    exact_eval_basis,
    random_config,
    reference_eval_basis,
    reference_magnitude,
    reference_transfer,
    reference_unit_integrals,
    uniform_cubic_config,
)


def custom_pair_space():
    """Span {1, x, e^x, e^(2x)} on [0, 1] glued C^1 to a cubic on [1, 2]."""
    from gtbsplines import GeneralizedPolynomialFamily

    custom = GeneralizedPolynomialFamily(
        3,
        u=lambda x, d: math.exp(x),
        v=lambda x, d: (2.0**d) * math.exp(2.0 * x),
        name="exp-pair",
    )
    return build_space(SpaceConfig([0.0, 1.0, 2.0], [custom, PolynomialFamily(3)], [1]))


def exp_stiff_config() -> SpaceConfig:
    """Exponential cubics with omega * length = 20, 40, 25, 36: stiff
    sections on both sides of omega * length = 30."""
    families = [ExponentialFamily(3, 10.0), ExponentialFamily(3, 20.0)] * 2
    return SpaceConfig([0.0, 2.0, 4.0, 6.5, 8.3], families, [1, 2, 1])


def jittered_cubic_config(n_intervals: int) -> SpaceConfig:
    """C^2 cubics on ``n_intervals`` intervals of random lengths in [0.5, 1.5]."""
    lengths = np.random.default_rng(80).uniform(0.5, 1.5, n_intervals)
    breakpoints = np.concatenate([[0.0], np.cumsum(lengths)]).tolist()
    return SpaceConfig(breakpoints, [PolynomialFamily(3)] * n_intervals, [2] * (n_intervals - 1))


EPS = np.finfo(float).eps


def count_span_tables(monkeypatch) -> list[int]:
    """Count the passes of the one feature routine that the point and the
    array kernel call (``space._features``, the features that the
    evaluation matrices map to span tables) and of the span-table
    arithmetic (``sections._span_table``); returns the one-element counter."""
    calls = [0]
    for module, name in ((sections_module, "_span_table"), (space_module, "_features")):
        original = getattr(module, name)

        def counted(*args, original=original):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def count_products(monkeypatch, space) -> list[str]:
    """Record every product taken with an evaluation matrix of ``space``
    (``dot`` or ``@``): the array kernel's, whose matrices come from
    ``_Elements.matrices``, and the point kernel's, whose records hold their
    matrix views and are built afresh, through ``matrices``, while the
    count runs; returns the record."""
    products = []

    class Counted(np.ndarray):
        def dot(self, *args, **kwargs):
            products.append("dot")
            return np.asarray(self).dot(*args, **kwargs)

        def __matmul__(self, other):
            products.append("@")
            return np.asarray(self) @ other

    matrices = space_module._Elements.matrices
    monkeypatch.setattr(
        space_module._Elements, "matrices", lambda *args: matrices(*args).view(Counted)
    )
    table = space._elements
    monkeypatch.setattr(table, "kernels", [[None] * len(slots) for slots in table.kernels])
    return products


def assert_near_reference(space, x: float, order: int, got: np.ndarray) -> None:
    """``got`` is the table of :func:`reference_eval_basis` to 8 eps of the
    magnitude of its terms, order by order (:func:`reference_magnitude`):
    the kernel and the reference sum the same products in another order."""
    want, scale = reference_eval_basis(space, x, order), reference_magnitude(space, x, order)
    assert np.all(np.abs(got - want) <= 8.0 * EPS * scale)


class TestBuildSpace:
    def test_demo_dimensions(self, mixed_space):
        assert (mixed_space.n_basis, mixed_space.n_bernstein, mixed_space.n_constraints) == (
            6,
            12,
            6,
        )

    def test_profile_dimension(self, profile_space):
        assert profile_space.n_basis == 4

    def test_single_cubic_patch_identity(self):
        space = build_space(SpaceConfig([0.0, 1.0], [PolynomialFamily(3)], []))
        assert space.n_basis == 4
        assert np.array_equal(space.operator, np.eye(4))

    def test_library_never_reads_dense_operator(self, monkeypatch, tmp_path):
        def dense(self):
            raise AssertionError("the dense operator view was read")

        monkeypatch.setattr(ExtractionMatrix, "operator", property(dense))
        config = mixed_family_demo_config()
        space = build_space(config)
        eval_basis(space, 1.7, 2)
        eval_basis(space, np.linspace(0.0, 5.0, 41), 1)
        curve = SplineCurve(space, np.arange(12.0).reshape(6, 2))
        eval_curve(curve, 3.3, 1)
        eval_curve(curve, np.linspace(0.0, 5.0, 11))
        jump_vector(space, 1, 2)
        unit_integral_scaling(space)
        insert_knot(space, 3.7)
        path = tmp_path / "space.json"
        path.write_text(json.dumps(config.to_dict()))
        assert main(["verify", str(path)]) == 0
        csv = str(tmp_path / "s.csv")
        assert main(["sample", str(path), "--n", "21", "--deriv", "1", "--csv", csv]) == 0

    def test_sample_builds_one_span_table_per_element(self, monkeypatch, tmp_path):
        calls = count_span_tables(monkeypatch)
        config = mixed_family_demo_config()
        build_space(config)
        build_calls = calls[0]
        path = tmp_path / "space.json"
        path.write_text(json.dumps(config.to_dict()))
        csv = str(tmp_path / "s.csv")
        calls[0] = 0
        assert main(["sample", str(path), "--n", "4001", "--deriv", "2", "--csv", csv]) == 0
        # three kernel groups: the quadratic, the trigonometric cubic and the
        # exponential quartic
        assert calls[0] <= build_calls + 3

    def test_arrays_build_one_span_table_per_group(self, monkeypatch):
        cubic = build_space(jittered_cubic_config(80))
        mixed = build_space(mixed_family_demo_config())
        stiff = build_space(exp_stiff_config())  # one group, whatever omega L
        calls = count_span_tables(monkeypatch)
        for space in (cubic, stiff):
            calls[0] = 0
            eval_basis(space, np.linspace(*space.domain, 400), 2)
            assert calls[0] == 1
        for space, groups in ((cubic, 1), (mixed, 3), (stiff, 1)):
            calls[0] = 0
            unit_integral_scaling(space)
            assert calls[0] == groups

    def test_piecewise_constants_merge(self):
        space = build_space(
            SpaceConfig([0.0, 1.0, 2.0], [PolynomialFamily(0)] * 2, [0])
        )
        assert space.n_basis == 1
        for x in (0.0, 0.5, 1.0, 2.0):
            assert eval_basis(space, x)[0, 0] == pytest.approx(1.0)

    def test_maximal_mixed_joint_warns(self):
        with pytest.warns(AdmissibilityWarning):
            build_space(mixed_family_demo_config())

    def test_maximal_joint_warning_names_the_caller(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", AdmissibilityWarning)
            build_space(mixed_family_demo_config())
        (warning,) = [w for w in caught if w.category is AdmissibilityWarning]
        assert warning.filename == __file__

    def test_degree_one_trig_section_rejected(self):
        from gtbsplines import ConfigError

        cfg = SpaceConfig(
            [0.0, 1.0, 2.0],
            [TrigonometricFamily(1, 1.0), PolynomialFamily(1)],
            [0],
        )
        with pytest.raises(ConfigError):
            build_space(cfg)

    def test_dimension_formula(self, rng):
        for _ in range(25):
            space = build_space(random_config(rng))
            assert space.n_basis == space.n_bernstein - space.n_constraints

    def test_custom_pair_section_space(self):
        # The custom pair goes through the same validation, extraction, and
        # evaluation machinery.
        space = custom_pair_space()
        assert space.n_basis == 6
        for x in np.linspace(0.0, 2.0, 101):
            vals = eval_basis(space, float(x))[:, 0]
            assert abs(vals.sum() - 1.0) <= 1e-12
            assert np.all(vals >= -1e-13)
        for order in (0, 1):
            assert np.max(np.abs(jump_vector(space, 1, order))) <= 1e-11


class TestEvalBasis:
    def test_partition_of_unity(self, rng):
        for _ in range(8):
            space = build_space(random_config(rng))
            a, b = space.domain
            for x in np.linspace(a, b, 200):
                assert abs(eval_basis(space, float(x))[:, 0].sum() - 1.0) <= 1e-12

    def test_left_end_interpolation(self, mixed_space):
        vals = eval_basis(mixed_space, 0.0)[:, 0]
        assert vals[0] == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(vals[1:])) <= 1e-14

    def test_right_end_left_limit(self, mixed_space):
        vals = eval_basis(mixed_space, 5.0)[:, 0]
        assert vals[-1] == pytest.approx(1.0, abs=1e-13)

    def test_matches_cox_de_boor_uniform_cubic(self):
        cfg = SpaceConfig(
            [0.0, 1.0, 2.0, 3.0, 4.0], [PolynomialFamily(3)] * 4, [2, 2, 2]
        )
        space = build_space(cfg)
        knots = cox_de_boor_knots(cfg.breakpoints, 3, cfg.smoothness)
        for x in np.linspace(0.0, 4.0, 500):
            ours = eval_basis(space, float(x), 1)
            ref = cox_de_boor_basis(knots, 3, float(x), 1)
            assert np.max(np.abs(ours - ref)) <= 1e-12

    def test_first_derivative_matches_finite_differences(self, mixed_space):
        a, b = mixed_space.domain
        for x in np.linspace(a + 0.01, b - 0.01, 60):
            table = eval_basis(mixed_space, float(x), 1)
            for k in range(mixed_space.n_basis):
                approx = central_diff(
                    lambda t, k=k: eval_basis(mixed_space, t)[k, 0], float(x)
                )
                scale = max(1.0, abs(table[k, 1]))
                assert abs(table[k, 1] - approx) <= 1e-5 * scale

    def test_support_and_nonnegativity(self, rng):
        for _ in range(6):
            space = build_space(random_config(rng))
            kv = space.knots
            a, b = space.domain
            for x in np.linspace(a, b, 150):
                vals = eval_basis(space, float(x))[:, 0]
                assert np.all(vals >= -1e-13)
                for k in range(space.n_basis):
                    if not (kv.u[k] <= x <= kv.v[k]):
                        assert abs(vals[k]) <= 1e-13

    def test_positive_inside_support(self, mixed_space):
        kv = mixed_space.knots
        for k in range(mixed_space.n_basis):
            mid = 0.5 * (kv.u[k] + kv.v[k])
            assert eval_basis(mixed_space, float(mid))[k, 0] > 1e-10

    def test_local_linear_independence(self, mixed_space):
        # On each interval the active functions must span the full section:
        # their Bernstein coordinate block has full rank.
        for i in range(1, mixed_space.partition.num_intervals + 1):
            k_lo, k_hi = mixed_space.knots.active_range(i)
            block = mixed_space.operator[
                k_lo - 1 : k_hi,
                mixed_space.knots.block_start[i - 1] : mixed_space.knots.block_start[i],
            ]
            assert block.shape[0] == block.shape[1]
            assert np.linalg.matrix_rank(block) == block.shape[0]

    def test_domain_and_order_errors(self, mixed_space):
        with pytest.raises(DomainError):
            eval_basis(mixed_space, 5.5)
        with pytest.raises(OrderError):
            eval_basis(mixed_space, 0.5, 3)  # first interval is quadratic

    @pytest.mark.parametrize("order", [-1, 4], ids=["negative", "too-large"])
    def test_order_error_names_the_admissible_range(self, mixed_space, order):
        # x = 1 and x = 2 lie on interval 2, the cubic one (right limits)
        message = f"max_order={order} outside [0, 3] on interval 2"
        for x in (1.0, np.array([1.0, 2.0])):
            with pytest.raises(OrderError, match=f"^{re.escape(message)}$"):
                eval_basis(mixed_space, x, order)

    def test_orders_are_integers(self, mixed_space, profile_space, profile_config):
        # A whole-number float is that order; a boolean or a fraction is
        # refused, never truncated.
        curve = SplineCurve(profile_space, profile_config.control_points)
        for x in (0.5, np.array([0.5, 3.0])):
            assert np.array_equal(eval_basis(mixed_space, x, 1.0), eval_basis(mixed_space, x, 1))
            assert np.array_equal(curve(x, np.int64(1)), curve(x, 1))
            assert np.array_equal(curve(x, 1.0), curve(x, 1))
            for order in (1.5, True, np.bool_(True), -0.5, "1", None):
                with pytest.raises(OrderError, match="must be an integer"):
                    eval_basis(mixed_space, x, order)
                with pytest.raises(OrderError, match="must be an integer"):
                    curve(x, order)


@pytest.fixture(params=["mixed", "profile", "custom-pair", "random", "cubic-80", "poly-234", "exp-stiff"])
def space(request, mixed_space, profile_space):
    """The spaces of the evaluation tests."""
    if request.param == "mixed":  # polynomial, trigonometric, exponential
        return mixed_space
    if request.param == "profile":
        return profile_space
    if request.param == "custom-pair":
        return custom_pair_space()
    if request.param == "cubic-80":  # many elements, one group
        return build_space(jittered_cubic_config(80))
    if request.param == "poly-234":  # polynomial degrees 2, 3, 4
        families = [PolynomialFamily(p) for p in (3, 2, 4, 3, 4)]
        return build_space(SpaceConfig([0.0, 0.7, 1.5, 2.0, 3.1, 4.0], families, [1, 2, 2, 1]))
    if request.param == "exp-stiff":
        return build_space(exp_stiff_config())
    return build_space(random_config(np.random.default_rng(7), n_intervals=5))


class TestEvalBasisPoint:
    """The scalar call: one feature vector and one product with its
    interval's evaluation matrix, with the errors of the per-section calls
    and their values to rounding."""

    @staticmethod
    def assert_equals_reference(space, xs):
        for x in xs:
            e = space.partition.locate(x)
            for order in range(space.degrees[e - 1] + 1):
                assert_near_reference(space, x, order, eval_basis(space, x, order))

    def test_equals_per_section_calls(self, space, rng):
        # interior points, every breakpoint and both domain ends
        inner = rng.uniform(*space.domain, 25).tolist()
        self.assert_equals_reference(space, inner + list(space.partition.breakpoints))

    def test_equals_per_section_calls_on_random_spaces(self):
        rng = np.random.default_rng(2029)
        for _ in range(100):
            space = build_space(random_config(rng))
            inner = rng.uniform(*space.domain, 5).tolist()
            self.assert_equals_reference(space, inner + list(space.partition.breakpoints))

    @pytest.mark.parametrize(
        "x, order, error, message",
        [
            (5.5, 0, DomainError, "x=5.5 outside [0.0, 5.0]"),
            (math.nan, 0, DomainError, "x=nan outside [0.0, 5.0]"),
            (True, 0, DomainError, "points must be numbers, got bool entries"),
            (np.float64(6.0), 0, DomainError, "x=6.0 outside [0.0, 5.0]"),
            (0.5, 3, OrderError, "max_order=3 outside [0, 2] on interval 1"),
            (4.0, 5, OrderError, "max_order=5 outside [0, 4] on interval 3"),
            (0.5, -1, OrderError, "max_order=-1 outside [0, 2] on interval 1"),
            (0.5, 1.5, OrderError, "max_order must be an integer, got 1.5"),
        ],
        ids=[
            "outside", "nan", "bool", "numpy-scalar", "order-p-plus-one", "order-p-plus-one-last",
            "order-negative", "order-fraction",
        ],
    )
    def test_errors_are_unchanged(self, mixed_space, x, order, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            eval_basis(mixed_space, x, order)

    def test_one_span_table_and_no_per_section_call(self, space, monkeypatch):
        tables = count_span_tables(monkeypatch)
        called = []
        for owner, name in ((BernsteinBasis, "evaluate"), (SectionSpace, "span_derivatives")):
            method = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, m=method, n=name: called.append(n) or m(*a))
        for x in list(space.partition.breakpoints) + [sum(space.domain) / 2.0]:
            tables[0] = 0
            eval_basis(space, x, 1 if min(space.degrees) > 0 else 0)
            assert (tables[0], called) == (1, [])


class TestEvalBasisArrays:
    def test_rows_equal_scalar_calls(self, space, rng):
        a, b = space.domain
        inner = rng.uniform(a, b, 40)
        bp = np.array(space.partition.breakpoints)
        # unsorted, repeated, both domain ends and every interior breakpoint
        xs = np.concatenate([[b], inner, bp[1:-1], [a], inner[:5], bp[::-1]])
        for order in range(min(space.degrees) + 1):
            table = eval_basis(space, xs, order)
            assert table.shape == (len(xs), space.n_basis, order + 1)
            for x, row in zip(xs, table):
                assert np.array_equal(row, eval_basis(space, float(x), order))

    def test_empty_array(self, space):
        for order in (0, 1):
            assert eval_basis(space, np.array([]), order).shape == (0, space.n_basis, order + 1)

    def test_errors_match_scalar_calls(self, mixed_space):
        a, b = mixed_space.domain
        cases = [  # points, the one point among them that fails alone, order
            ([1.0, b + 0.5, 2.0], b + 0.5, 0, DomainError),
            ([a - 1e-9], a - 1e-9, 0, DomainError),
            ([3.0, math.nan], math.nan, 0, DomainError),
            ([3.0, 4.0, 0.5], 0.5, 3, OrderError),  # first interval is quadratic
        ]
        for xs, bad, order, error in cases:
            with pytest.raises(error):
                eval_basis(mixed_space, bad, order)
            with pytest.raises(error):
                eval_basis(mixed_space, np.array(xs), order)
        assert eval_basis(mixed_space, np.array([3.0, 4.0]), 3).shape == (2, 6, 4)
        # the failing quadratic interval is in a later group than the first point's
        families = [PolynomialFamily(4), TrigonometricFamily(3, 1.0), PolynomialFamily(2)]
        space = build_space(SpaceConfig([0.0, 1.0, 2.0, 3.0], families, [1, 1]))
        with pytest.raises(OrderError) as alone:
            eval_basis(space, 2.5, 3)
        with pytest.raises(OrderError) as within:
            eval_basis(space, np.array([0.5, 1.5, 2.5, 0.2]), 3)
        assert str(within.value) == str(alone.value)
        with pytest.raises(DomainError):
            eval_basis(mixed_space, np.ones((2, 2)))

    def test_memory_is_bounded_at_full_order(self):
        # 2,000 points at all 21 orders of the three-interval C^18 space of
        # degree 20 gather 1.6 GB of evaluation matrices in one product; in
        # runs under the gather budget the call peaks near 31 MB, with an
        # 8.4 MB output.
        families = [PolynomialFamily(20)] * 3
        space = build_space(SpaceConfig([0.0, 1.0, 2.0, 3.0], families, [18, 18]))
        xs = np.linspace(0.0, 3.0, 2000)
        tracemalloc.start()
        try:
            table = eval_basis(space, xs, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape == (2000, space.n_basis, 21)
        assert peak <= 100e6

    def test_runs_of_points_keep_every_bit(self, mixed_space, profile_space, monkeypatch):
        # With a gather budget below one evaluation matrix every point is a
        # run of its own, and every table, curve point and integral keeps
        # the bits of one run per group.
        rng = np.random.default_rng(3)
        cases = [
            (space, rng.uniform(*space.domain, 60), rng.normal(size=(space.n_basis, 2)))
            for space in (mixed_space, profile_space, build_space(uniform_cubic_config(12)))
        ]
        outputs = []
        for budget in (space_module._GATHER_BYTES, 1):
            monkeypatch.setattr(space_module, "_GATHER_BYTES", budget)
            outputs.append([])
            for space, xs, control in cases:
                outputs[-1] += [eval_basis(space, xs, 1), unit_integral_scaling(space)]
                outputs[-1].append(eval_curve(SplineCurve(space, control), xs, 1))
        assert all(np.array_equal(a, b) for a, b in zip(*outputs))

    def test_curve_rows_equal_scalar_calls(self, profile_space, profile_config):
        curve = SplineCurve(profile_space, profile_config.control_points)
        xs = np.linspace(*profile_space.domain, 31)[::-1]
        for order in (0, 1):
            points = eval_curve(curve, xs, order)
            assert points.shape == (len(xs), 2)
            for x, point in zip(xs, points):
                assert np.array_equal(point, eval_curve(curve, float(x), order))


class TestElementTable:
    """Evaluation reads one element table per space, built on the space's
    first evaluation; building or refining a space does not build it."""

    @pytest.mark.parametrize("make", ["mixed", "custom-pair", "cubic-80"])
    def test_later_calls_gather_nothing(self, make, monkeypatch):
        space = {
            "mixed": lambda: build_space(mixed_family_demo_config()),
            "custom-pair": custom_pair_space,
            "cubic-80": lambda: build_space(jittered_cubic_config(80)),
        }[make]()
        builds, stacks = [], []
        build, stack = space_module._Elements, np.stack
        monkeypatch.setattr(space_module, "_Elements", lambda s: builds.append(s) or build(s))
        monkeypatch.setattr(np, "stack", lambda *a, **k: stacks.append(a) or stack(*a, **k))
        xs = np.linspace(*space.domain, 50)
        first = eval_basis(space, xs, 1)
        assert builds == [space]
        builds.clear()
        stacks.clear()
        assert np.array_equal(eval_basis(space, xs, 1), first)
        eval_basis(space, float(xs[7]), 1)
        eval_curve(SplineCurve(space, np.ones((space.n_basis, 2))), xs)
        unit_integral_scaling(space)
        assert (builds, stacks) == ([], [])

    @pytest.mark.parametrize(
        "make, knots",
        [
            # splits of the exponential, trigonometric and quadratic sections,
            # and two dropped orders at x = 2.5
            (lambda: build_space(mixed_family_demo_config()), (3.7, 1.7, 2.5, 0.4, 2.5)),
            # splits of the custom pair and of the cubic, two dropped orders at x = 1
            (custom_pair_space, (0.4, 1.5, 1.0, 0.7, 1.0)),
        ],
        ids=["mixed", "custom-pair"],
    )
    def test_refined_spaces_read_their_own_tables(self, make, knots, rng):
        space = make()
        assert "_elements" not in space.__dict__
        for x_new in knots:
            space, _ = insert_knot(space, x_new)
            assert "_elements" not in space.__dict__  # neither build nor insertion builds it
            bp = list(space.partition.breakpoints)
            xs = np.array(rng.uniform(*space.domain, 10).tolist() + bp)
            for order in range(min(space.degrees) + 1):
                table = eval_basis(space, xs, order)
                for x, row in zip(xs.tolist(), table):
                    assert np.array_equal(row, eval_basis(space, x, order))
                    assert_near_reference(space, x, order, row)

    def test_built_objects_are_frozen(self):
        # No field of a space or of its parts can be reassigned, also after
        # the first evaluation has cached the element table and the bounds.
        space = build_space(mixed_family_demo_config())
        split, _ = insert_knot(space, 3.7)
        dropped, _ = insert_knot(split, 2.5)
        assert len(split.bases) == len(space.bases) + 1
        assert dropped.partition is split.partition and dropped.smoothness != split.smoothness
        curve = SplineCurve(dropped, np.ones((dropped.n_basis, 2)))
        frozen = [curve]
        for s in (space, split, dropped):
            eval_basis(s, np.linspace(*s.domain, 5), 1)
            assert [f.name for f in dataclasses.fields(s)] == ["partition", "bases", "extraction"]
            assert s.knots is s.extraction.knots
            for sequence in (s.bases, s.extraction.blocks, s.extraction.factors):
                assert type(sequence) is tuple
            sections = [b.section for b in s.bases]
            frozen += [s, s.extraction, s.knots, *s.bases, *sections]
            for name in ("degree", "length", "_pair", "_q", "_scale"):  # set once, not fields
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(sections[1], name, getattr(sections[1], name))
            assert type(sections[1]._scale) is tuple
        for obj in frozen:
            for f in dataclasses.fields(obj):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, f.name, getattr(obj, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            space.knots = split.knots


class TestEvaluationMatrices:
    """The evaluation kernel: a point is one feature vector and one product
    with its interval's evaluation matrix, a space builds its matrices once
    per width, on its first evaluation at that width, and the kernel is as
    accurate as the per-section calls."""

    def test_point_is_one_product_and_no_span_table(self, space, monkeypatch):
        top = min(space.degrees)
        for order in range(top + 1):  # builds the matrices of every width
            eval_basis(space, np.linspace(*space.domain, 7), order)
        spans, table = [], sections_module._span_table
        monkeypatch.setattr(sections_module, "_span_table", lambda *a: spans.append(a) or table(*a))
        products = count_products(monkeypatch, space)
        for x in list(space.partition.breakpoints) + [sum(space.domain) / 2.0]:
            for order in range(top + 1):
                for _ in range(2):  # the call that builds the point's record, and one after it
                    products.clear()
                    eval_basis(space, x, order)
                    assert (spans, products) == ([], ["dot"])

    def test_matrices_are_built_once_per_width(self, monkeypatch):
        builds, build = [], space_module._feature_map
        monkeypatch.setattr(space_module, "_feature_map", lambda *a: builds.append(a[1]) or build(*a))
        space = build_space(mixed_family_demo_config())
        split, _ = insert_knot(space, 3.7)
        dropped, _ = insert_knot(split, 2.5)
        assert builds == []  # neither building nor refining a space builds them
        for s in (space, split, dropped):
            xs = np.linspace(*s.domain, 40)
            groups = len(s._elements.groups)
            curve = SplineCurve(s, np.ones((s.n_basis, 2)))
            for order in (0, 2):
                eval_basis(s, xs, order)
                assert builds == [order + 1] * groups
                builds.clear()
                eval_basis(s, xs, order)
                eval_basis(s, 2.2, order)
                eval_curve(curve, xs, order)
                eval_curve(curve, 4.1, order)
                if order == 0:
                    unit_integral_scaling(s)
                assert builds == []

    def test_point_reads_its_kernel_record(self, monkeypatch):
        # A record is filled per (interval, width) on the interval's first
        # scalar call at that width, and the array kernel fills none.  A
        # filled record holds its interval's matrix view and feature plan,
        # so a later point builds, looks up and plans nothing.
        space = build_space(mixed_family_demo_config())
        table, bp = space._elements, space.partition.breakpoints
        assert not hasattr(table, "records")
        assert table.kernels == [[None] * (p + 1) for p in space.degrees]
        for order in range(3):
            eval_basis(space, np.linspace(*space.domain, 9), order)
        assert table.kernels == [[None] * (p + 1) for p in space.degrees]
        mids = [(a + b) / 2.0 for a, b in zip(bp, bp[1:])]
        eval_basis(space, mids[1], 2)
        filled = [
            (e, d) for e, slots in enumerate(table.kernels, 1) for d, r in enumerate(slots) if r
        ]
        assert filled == [(2, 2)]
        stack = table.matrices(table.group.item(2), 3)
        assert table.kernels[1][2][0].base is stack.base
        assert np.array_equal(table.kernels[1][2][0], stack[table.slot.item(2)])
        for x, p in zip(mids, space.degrees):
            for order in range(p + 1):
                eval_basis(space, x, order)
        assert all(all(slots) for slots in table.kernels)
        calls = []
        for owner, name in (
            (space_module._Elements, "kernel"),
            (space_module._Elements, "matrices"),
            (space_module, "_feature_plan"),
            (sections_module, "_bernstein_layout"),
        ):
            original = getattr(owner, name)
            monkeypatch.setattr(
                owner, name, lambda *a, f=original, n=name: calls.append(n) or f(*a)
            )
        for x in mids + list(bp):
            e = space.partition.locate(x)
            for order in range(space.degrees[e - 1] + 1):
                eval_basis(space, x, order)
        assert calls == []

    def test_concurrent_first_evaluations_agree(self):
        # Threads evaluating one fresh space at once, with frequent switches,
        # scalar calls in every interval at every width and arrays at every
        # width, read the same matrices and fill the same point-kernel
        # records as a serial run.
        import sys
        import threading

        config = mixed_family_demo_config()
        xs = np.linspace(0.0, 5.0, 23)
        serial = build_space(config)
        want = [eval_basis(serial, xs, order) for order in range(3)]
        # each point at each order up to the degree of its interval
        calls = [
            (x, order)
            for order in range(max(serial.degrees) + 1)
            for x in xs.tolist()
            if order <= serial.degrees[serial.partition.locate(x) - 1]
        ]
        points = {call: eval_basis(serial, *call) for call in calls}
        space, got, interval = build_space(config), {}, sys.getswitchinterval()

        def work(i):
            start = i * len(calls) // 6  # each thread starts at another width
            for call in calls[start:] + calls[:start]:
                got[i, call] = eval_basis(space, *call)
            for order in (i % 3, (i + 1) % 3, (i + 2) % 3):
                got[i, order] = eval_basis(space, xs, order)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == 6 * (len(calls) + 3)
        for (i, key), table in got.items():
            assert table.tobytes() == (want[key] if key in (0, 1, 2) else points[key]).tobytes()
        assert all(all(slots) for slots in space._elements.kernels)
        for order in range(3):
            for x, row in zip(xs.tolist(), want[order]):
                assert points[x, order].tobytes() == row.tobytes()

    @pytest.mark.parametrize(
        "families",
        [("polynomial",), ("polynomial", "trigonometric", "exponential")],
        ids=["polynomial", "mixed"],
    )
    def test_deviation_from_fifty_digits(self, families):
        # Per space and order, the kernel's largest deviation from a 50-digit
        # evaluation of the same blocks, coefficients and pair constants, at
        # random points and every breakpoint, is at most twice the
        # per-section calls' or 4 eps of the magnitude of the summed terms.
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(len(families))
        for _ in range(20):
            space = build_space(random_config(rng, families=families, max_degree=6))
            top = min(space.degrees)
            got, ref, scale = np.zeros((3, top + 1))
            for x in rng.uniform(*space.domain, 5).tolist() + list(space.partition.breakpoints):
                exact = exact_eval_basis(space, x, top)
                got = np.maximum(got, np.abs(eval_basis(space, x, top) - exact).max(axis=0))
                want = reference_eval_basis(space, x, top)
                ref = np.maximum(ref, np.abs(want - exact).max(axis=0))
                scale = np.maximum(scale, reference_magnitude(space, x, top))
            assert np.all(got <= np.maximum(2.0 * ref, 4.0 * EPS * scale))

    def test_custom_pair_return_names_the_section(self):
        # u returns no number inside its section, a number at its ends
        from gtbsplines import EctViolationError, GeneralizedPolynomialFamily

        family = GeneralizedPolynomialFamily(
            3,
            u=lambda x, d: math.exp(x) if x in (0.0, 1.0) else None,
            v=lambda x, d: (2.0**d) * math.exp(2.0 * x),
            name="exp-pair",
        )
        space = build_space(SpaceConfig([0.0, 1.0, 2.0], [family, PolynomialFamily(3)], [1]))
        section = space.bases[0].section
        message = f"u(x, 0) of {section!r} must be a number, got None"
        with pytest.raises(EctViolationError, match=f"^{re.escape(message)}$"):
            eval_basis(space, 0.5)
        message = f"u(x, 0) of {section!r} must be numbers, got object entries"
        with pytest.raises(EctViolationError, match=f"^{re.escape(message)}$"):
            eval_basis(space, np.array([0.25, 1.5]))


class TestJumps:
    def test_smooth_orders_vanish(self, mixed_space):
        for i in (1, 2):
            r = mixed_space.smoothness[i]
            for order in range(r + 1):
                vec = jump_vector(mixed_space, i, order)
                scale = max(
                    1.0,
                    max(
                        np.max(np.abs(eval_basis(mixed_space, float(x), order)[:, order]))
                        for x in np.linspace(*mixed_space.domain, 50)
                    ),
                )
                assert np.max(np.abs(vec)) <= 1e-9 * scale

    def test_band_pattern_above_smoothness(self, mixed_space):
        # behind breakpoint 2 the space is C^2 with cubic/quartic neighbors,
        # so the order-3 jumps are nonzero exactly for functions mu..sigma+1.
        i = 2
        r = mixed_space.smoothness[i]
        vec = jump_vector(mixed_space, i, r + 1)
        lo = int(mixed_space.knots.mu[i])
        hi = int(mixed_space.knots.sigma[i]) + 1
        for k in range(1, mixed_space.n_basis + 1):
            if lo <= k <= hi:
                assert abs(vec[k - 1]) > 1e-8
            else:
                assert abs(vec[k - 1]) <= 1e-10

    def test_index_validation(self, mixed_space):
        with pytest.raises(DomainError):
            jump_vector(mixed_space, 3, 0)
        with pytest.raises(OrderError):
            jump_vector(mixed_space, 1, 3)

    @pytest.mark.parametrize("orders", [[0, -1], [0, 3]], ids=["negative", "too-large"])
    def test_order_error_names_the_admissible_range(self, mixed_space, orders):
        # the quadratic and the cubic meet at x_1: orders 0 .. 2 jump there
        message = f"jump order {orders[1]} outside [0, 2] at breakpoint 1"
        with pytest.raises(OrderError, match=f"^{re.escape(message)}$"):
            jump_vector(mixed_space, 1, orders)

    def test_index_and_orders_are_integers(self, mixed_space):
        # A whole-number float is that index or order; a boolean or a
        # fraction is refused, never truncated.
        want = jump_vector(mixed_space, 1, [0, 2])
        assert np.array_equal(jump_vector(mixed_space, 1.0, 0), want[:, 0])
        assert np.array_equal(jump_vector(mixed_space, np.int64(1), np.array([0.0, 2.0])), want)
        for i in (1.5, True, np.bool_(True), "1", None):
            with pytest.raises(DomainError, match="must be an integer"):
                jump_vector(mixed_space, i, 0)
        for order in (1.5, True, np.bool_(True), "1", None, [0, 1.7], [True], np.array([0.5])):
            with pytest.raises(OrderError, match="must be an integer"):
                jump_vector(mixed_space, 1, order)

    def test_sequence_of_orders(self, mixed_space, profile_space):
        for space in (mixed_space, profile_space, custom_pair_space()):
            for i in range(1, space.partition.num_intervals):
                top = min(space.degrees[i - 1], space.degrees[i])
                orders = list(range(top, -1, -1)) + [0]
                table = jump_vector(space, i, orders)
                assert table.shape == (space.n_basis, len(orders))
                for column, order in zip(table.T, orders):
                    want = jump_vector(space, i, order)
                    assert np.max(np.abs(column - want)) <= 1e-15 * np.max(np.abs(want))
                for bad in ([top + 1], [0, top + 1, 1], np.array([1, top + 2])):
                    with pytest.raises(OrderError):
                        jump_vector(space, i, bad)


    def test_residuals_equal_jump_vector_bit_for_bit(self, mixed_space, profile_space):
        # One stacked product per side and (p_i, p_(i+1), r_i) group against
        # one jump_vector call per breakpoint; r_i = -1 gives zero.
        rng = np.random.default_rng(777)
        cycle = (
            (PolynomialFamily, 3, None, 1.0),
            (TrigonometricFamily, 3, 1.2, 1.25),
            (ExponentialFamily, 4, 6.0, 1.0),
            (PolynomialFamily, 4, None, 1.0),
        )
        breakpoints, sections = [0.0], []
        for e in range(48):
            family, degree, omega, length = cycle[e % 4]
            stretch = 1.0 + rng.uniform(-0.1, 0.1)
            breakpoints.append(breakpoints[-1] + length * stretch)
            args = (degree,) if omega is None else (degree, omega / stretch)
            sections.append(family(*args))
        joints = [(2, 1)[e % 2] for e in range(47)]
        spaces = [mixed_space, profile_space, custom_pair_space()]
        spaces.append(build_space(SpaceConfig(breakpoints, sections, joints)))
        spaces += [build_space(random_config(rng, int(rng.integers(1, 9)))) for _ in range(60)]
        assert any(-1 in space.smoothness[1:-1] for space in spaces)
        for space in spaces:
            want = [
                np.max(np.abs(jump_vector(space, i, range(r + 1)))) if r >= 0 else 0.0
                for i, r in enumerate(space.smoothness[1:-1], start=1)
            ]
            assert np.array_equal(jump_residuals(space), want)


class TestCurve:
    def test_profile_endpoints_and_midpoint(self, profile_space, profile_config):
        curve = SplineCurve(profile_space, profile_config.control_points)
        a, b = profile_space.domain
        s = math.sqrt(2.0)
        assert np.allclose(curve(a), [2 + s / 2, -s / 2], atol=1e-12)
        assert np.allclose(curve(b), [-2.0, 3.0], atol=1e-12)
        assert np.allclose(curve(0.0), [2.0, 1.0], atol=1e-12)

    def test_profile_circle_residual(self, profile_space, profile_config):
        curve = SplineCurve(profile_space, profile_config.control_points)
        for x in np.linspace(profile_space.domain[0], 0.0, 100):
            X, Y = curve(float(x))
            assert abs((X - 2.0) ** 2 + Y**2 - 1.0) <= 1e-12

    def test_control_rows_must_match_dimension(self, profile_space):
        with pytest.raises(ConfigError, match="control net has 5 rows, space has dimension 4"):
            SplineCurve(profile_space, np.zeros((5, 2)))

    def test_convex_hull_of_active_controls(self, mixed_space, rng):
        control = rng.uniform(-1.0, 1.0, size=(mixed_space.n_basis, 2))
        curve = SplineCurve(mixed_space, control)
        for x in rng.uniform(*mixed_space.domain, 50):
            i = mixed_space.partition.locate(float(x))
            k_lo, k_hi = mixed_space.knots.active_range(i)
            active = control[k_lo - 1 : k_hi]
            pt = curve(float(x))
            assert np.all(pt >= active.min(axis=0) - 1e-12)
            assert np.all(pt <= active.max(axis=0) + 1e-12)

    def test_derivative_evaluation(self, profile_space, profile_config):
        curve = SplineCurve(profile_space, profile_config.control_points)
        # on the first arc the parameterization is (2 - sin x, cos x)
        for x in np.linspace(profile_space.domain[0] + 0.01, -0.01, 20):
            dx, dy = eval_curve(curve, float(x), 1)
            assert dx == pytest.approx(-math.cos(x), abs=1e-12)
            assert dy == pytest.approx(-math.sin(x), abs=1e-12)


class TestInsertKnot:
    def test_existing_breakpoint_dimension_and_rows(self, mixed_space):
        refined, transfer = insert_knot(mixed_space, 1.0)
        assert refined.n_basis == 7
        assert transfer.shape == (7, 6)
        assert np.max(np.abs(transfer.sum(axis=1) - 1.0)) <= 1e-13
        assert refined.smoothness[1] == 1

    def test_curve_preservation(self, mixed_space, rng):
        xs = np.linspace(*mixed_space.domain, 200)
        for _ in range(5):
            control = rng.normal(size=(mixed_space.n_basis, 3))
            curve = SplineCurve(mixed_space, control)
            for x_new in (1.0, 3.7):
                fine = curve.insert_knot(x_new)
                for x in xs:
                    assert np.max(np.abs(curve(float(x)) - fine(float(x)))) <= 1e-12

    @staticmethod
    def _cycle_space(repeats: int = 3):
        """A ``4 * repeats``-interval cycle of a cubic, a trigonometric cubic
        (omega 1.2 on length 1.25), an exponential quartic and a quartic,
        joined C^2 and C^1 in turn, and the ends of its trigonometric
        element."""
        cycle = [
            (PolynomialFamily(3), 1.0),
            (TrigonometricFamily(3, 1.2), 1.25),
            (ExponentialFamily(4, 6.0), 1.0),
            (PolynomialFamily(4), 1.0),
        ] * repeats
        breakpoints = [0.0]
        for _, length in cycle:
            breakpoints.append(breakpoints[-1] + length)
        smoothness = [(2, 1)[i % 2] for i in range(len(cycle) - 1)]
        space = build_space(SpaceConfig(breakpoints, [f for f, _ in cycle], smoothness))
        return space, breakpoints[1:3]

    def test_rows_sum_to_one_near_element_end(self):
        # The knot goes 1 % of the trigonometric element's length from its
        # right end, where the computed band-end coefficient is off one by
        # rounding.
        space, (lo, hi) = self._cycle_space()
        refined, transfer = insert_knot(space, hi - 0.01 * (hi - lo))
        assert refined.n_basis == space.n_basis + 1
        assert np.max(np.abs(transfer.sum(axis=1) - 1.0)) <= 4.5e-16

    @pytest.mark.parametrize("e", [2, 6, 10])
    def test_cascade_failure_names_its_constraint(self, e):
        # 0.3 % from the right end of trigonometric element e, the refined
        # cascade finds jump entries outside their band at the new knot,
        # refined breakpoint e; the error names the breakpoint and order as
        # a rebuild of the whole refined space does, also where the rerun
        # sub-space starts past the first breakpoint (e = 6, 10).
        space, _ = self._cycle_space()
        lo, hi = space.partition.breakpoints[e - 1 : e + 1]
        x_new = hi - 0.003 * (hi - lo)
        pattern = rf"^constraint \(breakpoint {e}, order 0\): constraint"
        with pytest.raises(GTBError, match=pattern) as local:
            insert_knot(space, x_new)
        with pytest.raises(GTBError, match=pattern) as full:
            space_module._assemble(*space_module._refined_components(space, x_new)[:3])
        assert str(local.value) == str(full.value)

    def test_basis_nonexistence_names_the_refined_breakpoint(self, monkeypatch):
        # x = 40.5 becomes refined breakpoint 41 of the cubic; the changed
        # functions 41 .. 45 cover refined intervals 38 .. 45, whose first
        # active function starts at x_34, so the rerun sub-space runs from
        # x_34 to x_45 and its cascade's first constraint sits at refined
        # breakpoint 35.
        def degenerate(a, band):
            raise BasisNonexistenceError("degenerate")

        space = build_space(uniform_cubic_config(80))
        monkeypatch.setattr(extraction_module, "nullspace_step", degenerate)
        pattern = r"^constraint \(breakpoint 35, order 0\): degenerate$"
        with pytest.raises(BasisNonexistenceError, match=pattern) as exc:
            insert_knot(space, 40.5)
        assert (exc.value.breakpoint_index, exc.value.order) == (35, 0)

    @classmethod
    def _rerun_cases(cls):
        """``(space, x_new)`` on random spaces, the uniform cubic and the
        mixed cycle, at every interior breakpoint with ``r >= 0`` and every
        midpoint; on the cycle also 1 % and 0.3 % from each element's right
        end, where some rebuilds raise."""
        rng = np.random.default_rng(777)
        spaces = [build_space(random_config(rng)) for _ in range(100)]
        spaces += [build_space(uniform_cubic_config(80)), cls._cycle_space()[0]]
        for space in spaces:
            bp = space.partition.breakpoints
            targets = [x for i, x in enumerate(bp[1:-1], 1) if space.smoothness[i] >= 0]
            targets += [0.5 * (x + y) for x, y in zip(bp, bp[1:])]
            if space is spaces[-1]:
                targets += [x + f * (y - x) for x, y in zip(bp, bp[1:]) for f in (0.99, 0.997)]
            for x_new in targets:
                yield space, x_new

    # The short right piece of the cycle's exponential quartic at 0.3 % is
    # ill-conditioned (about 4e14) on both paths alike.
    @pytest.mark.filterwarnings("ignore::gtbsplines.errors.ConditioningWarning")
    def test_local_rerun_equals_full_rebuild(self, monkeypatch):
        # Blocks, factors and maps of the spliced refined space against the
        # cascade over the whole refined space, at every case of
        # _rerun_cases; an insertion raises as the rebuild does.
        splice = space_module._spliced
        compared = raised = 0
        for space, x_new in self._rerun_cases():
            components = space_module._refined_components(space, x_new)
            try:
                full = space_module._assemble(*components[:3])
            except GTBError as exc:
                with pytest.raises(type(exc)) as local:
                    insert_knot(space, x_new)
                assert type(local.value) is type(exc) and str(local.value) == str(exc)
                raised += 1
                continue
            refined, transfer = insert_knot(space, x_new)
            monkeypatch.setattr(space_module, "_spliced", lambda *args: full)
            _, full_transfer = insert_knot(space, x_new)
            monkeypatch.setattr(space_module, "_spliced", splice)
            ours, theirs = refined.extraction, full.extraction
            assert len(ours.blocks) == len(theirs.blocks)
            for a, b in zip(ours.blocks, theirs.blocks):
                assert np.max(np.abs(a - b)) <= 1e-15
            assert len(ours.factors) == len(theirs.factors)
            for a, b in zip(ours.factors, theirs.factors):
                assert np.max(np.abs(a - b)) <= 1e-15
            assert np.max(np.abs(transfer - full_transfer)) <= 1e-15
            compared += 1
        assert compared > 500 and raised > 0

    @pytest.mark.filterwarnings("ignore::gtbsplines.errors.ConditioningWarning")
    def test_spliced_layout_equals_direct_build(self):
        # The refined partition and the knot vectors spliced from the old
        # ones against a direct Partition and build_knot_vectors of the
        # refined configuration: every field equal, with the same types and
        # dtypes.  An insertion that raises raises as the direct build does.
        compared = raised = 0
        for space, x_new in self._rerun_cases():
            partition, bases, smoothness, _, _ = space_module._refined_components(space, x_new)
            direct = Partition(tuple(partition.breakpoints))
            knots = build_knot_vectors(direct, [b.degree for b in bases], smoothness)
            try:
                refined, _ = insert_knot(space, x_new)
            except GTBError as exc:
                with pytest.raises(type(exc)) as full:
                    space_module._assemble(direct, bases, smoothness)
                assert type(full.value) is type(exc) and str(full.value) == str(exc)
                raised += 1
                continue
            assert refined.partition == direct
            assert [type(x) for x in refined.partition.breakpoints] == [float] * (len(bases) + 1)
            assert refined.smoothness == knots.smoothness
            for name in [f.name for f in dataclasses.fields(knots)]:
                ours, theirs = getattr(refined.knots, name), getattr(knots, name)
                if isinstance(theirs, tuple):
                    assert ours == theirs and [type(v) for v in ours] == [int] * len(theirs)
                else:
                    assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
            compared += 1
        assert compared > 500 and raised > 0

    @staticmethod
    def _insertion_layout(space, x_new):
        """Inserting ``x_new`` into ``space``: the refined knot vectors, the
        refined breakpoint ``i`` of the knot, whether it splits interval
        ``i``, and the band ``(lo, hi)`` of the changed functions."""
        partition, bases, smoothness, i, order = space_module._refined_components(space, x_new)
        knots = build_knot_vectors(partition, [b.degree for b in bases], smoothness)
        return knots, i, len(bases) > len(space.bases), knots.band(i, order)

    @pytest.mark.filterwarnings("ignore::gtbsplines.errors.ConditioningWarning")
    def test_unchanged_rows_are_the_old_blocks(self):
        # On every interval that is not a half of a split one, the row of a
        # function the knot leaves unchanged is the old block's row of that
        # function bit for bit: old function k for refined k < lo, k - 1
        # for refined k > hi, on old interval e, or e - 1 past a split.
        compared = 0
        for space, x_new in self._rerun_cases():
            try:
                refined, _ = insert_knot(space, x_new)
            except GTBError:
                continue
            knots, i, split, (lo, hi) = self._insertion_layout(space, x_new)
            for e, block in enumerate(refined.extraction.blocks, 1):
                if split and e in (i, i + 1):
                    continue
                old_e = e - 1 if split and e > i else e
                ks = np.arange(knots.active_range(e)[0], knots.active_range(e)[1] + 1)
                kept = (ks < lo) | (ks > hi)
                old_rows = np.where(ks < lo, ks, ks - 1)[kept] - space.knots.active_range(old_e)[0]
                assert np.array_equal(block[kept], space.extraction.blocks[old_e - 1][old_rows])
            compared += 1
        assert compared > 500

    @pytest.mark.filterwarnings("ignore::gtbsplines.errors.ConditioningWarning")
    def test_insertion_steps_are_the_rerun_constraints(self, monkeypatch):
        # An insertion takes one nullspace step per constraint at x_(s+1) ..
        # x_(e_hi - 1), with x_s the support start of the first function
        # active on the first interval e_lo that the changed functions cover
        # and x_(e_hi) the end of the last one's support: 30 on the cubic.
        steps = [0]
        step = extraction_module.nullspace_step

        def counted(*args):
            steps[0] += 1
            return step(*args)

        monkeypatch.setattr(extraction_module, "nullspace_step", counted)
        cubic = build_space(uniform_cubic_config(80))
        steps[0] = 0
        insert_knot(cubic, 40.5)
        assert steps[0] == 30
        compared = 0
        for space, x_new in self._rerun_cases():
            knots, _, _, (lo, hi) = self._insertion_layout(space, x_new)
            e_lo, e_hi = knots.support(lo)[0] + 1, knots.support(hi)[1]
            s = knots.support(knots.active_range(e_lo)[0])[0]
            steps[0] = 0
            try:
                insert_knot(space, x_new)
            except GTBError:
                continue
            assert steps[0] == sum(r + 1 for r in knots.smoothness[s + 1 : e_hi])
            compared += 1
        assert compared > 500

    @staticmethod
    def _chain(space, rng):
        """An insertion chain of the refine-mixed shape on the mixed cycle
        ``space``: new knots at 30 .. 70 % of two distinct elements of each
        of its four families, and the smoothness of one C^2 and one C^1
        breakpoint dropped by one, in shuffled order."""
        bp, r = space.partition.breakpoints, space.smoothness
        chain = []
        for family in range(4):
            for e in rng.choice(range(family, len(bp) - 1, 4), 2, replace=False).tolist():
                chain.append(bp[e] + float(rng.uniform(0.3, 0.7)) * (bp[e + 1] - bp[e]))
        for order in (2, 1):
            chain.append(bp[rng.choice([i for i in range(1, len(bp) - 1) if r[i] == order])])
        rng.shuffle(chain)
        return chain

    @pytest.mark.filterwarnings("ignore::gtbsplines.errors.ConditioningWarning")
    def test_chained_insertions_equal_full_rebuilds(self, monkeypatch):
        # Each step of a chain copies its unchanged rows from a space that
        # was itself spliced; after every step the blocks, factors and map
        # stay within the bound of test_local_rerun_equals_full_rebuild of
        # a cascade over the whole refined space.
        splice = space_module._spliced
        cycle = self._cycle_space()[0]
        chains = [(cycle, self._chain(cycle, np.random.default_rng(seed))) for seed in range(4)]
        chains.append((build_space(uniform_cubic_config(80)), [40.5, 41.25]))
        steps = 0
        for space, chain in chains:
            for x_new in chain:
                full = space_module._assemble(*space_module._refined_components(space, x_new)[:3])
                refined, transfer = insert_knot(space, x_new)
                monkeypatch.setattr(space_module, "_spliced", lambda *args: full)
                _, full_transfer = insert_knot(space, x_new)
                monkeypatch.setattr(space_module, "_spliced", splice)
                ours, theirs = refined.extraction, full.extraction
                assert len(ours.blocks) == len(theirs.blocks)
                for a, b in zip(ours.blocks, theirs.blocks):
                    assert np.max(np.abs(a - b)) <= 1e-15
                assert len(ours.factors) == len(theirs.factors)
                for a, b in zip(ours.factors, theirs.factors):
                    assert np.max(np.abs(a - b)) <= 1e-15
                assert np.max(np.abs(transfer - full_transfer)) <= 1e-15
                space = refined
                steps += 1
        assert steps == 4 * 10 + 2

    def test_split_partition_checks_the_new_breakpoint(self):
        partition = Partition((0.0, 1.0, 2.5))
        assert partition._split(2, 2.0) == Partition((0.0, 1.0, 2.0, 2.5))
        for x in (1.0, 2.5, 3.0, math.nan):
            with pytest.raises(InvalidFamilyError, match="^breakpoints must be strictly increasing$"):
                partition._split(2, x)

    def test_insertion_work_does_not_grow_with_m(self, monkeypatch):
        # One insertion reads as many numbers and integers and checks as many
        # partitions at m = 640 as at m = 80, and builds knot vectors once:
        # for the sub-space its changed functions cover.
        counts = collections.Counter()
        built = []

        def counted(name, function):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)

            return wrapper

        for name in ("_integer", "_number"):
            original = getattr(sections_module, name)
            for module in [m for n, m in sys.modules.items() if n.startswith("gtbsplines")]:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted(name, original))
        check = Partition.__post_init__
        monkeypatch.setattr(Partition, "__post_init__", counted("partition", check))
        build = space_module.build_knot_vectors

        def recorded(partition, *args):
            built.append(partition.num_intervals)
            return build(partition, *args)

        monkeypatch.setattr(space_module, "build_knot_vectors", recorded)
        seen = []
        for m in (80, 640):
            space = build_space(uniform_cubic_config(m))
            counts.clear()
            built.clear()
            insert_knot(space, m / 2 + 0.5)
            assert len(built) == 1 and built[0] < 20
            seen.append((dict(counts), built[0]))
        assert seen[0] == seen[1] and seen[0][0]["partition"] == 1

    def test_nullspace_steps_do_not_grow_with_m(self, monkeypatch):
        steps = [0]
        step = extraction_module.nullspace_step

        def counted(*args):
            steps[0] += 1
            return step(*args)

        monkeypatch.setattr(extraction_module, "nullspace_step", counted)
        calls = []
        for m in (80, 640):
            space = build_space(uniform_cubic_config(m))
            steps[0] = 0
            insert_knot(space, m / 2 + 0.5)
            calls.append(steps[0])
        assert calls[0] == calls[1]

    def test_hermite_systems_stack_per_group(self, monkeypatch):
        # The 12-interval cycle has two non-polynomial (family, degree)
        # groups of three sections, the 48-interval one two groups of twelve,
        # whose endpoint tables come from one array call each: one condition
        # call and one solve per group, not one per section.  Polynomial
        # sections solve nothing.
        calls = {"cond": 0, "solve": 0}
        for name in calls:
            routine = getattr(np.linalg, name)

            def counted(*args, name=name, routine=routine, **kwargs):
                calls[name] += 1
                return routine(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        for repeats in (3, 12):
            calls.update(cond=0, solve=0)
            self._cycle_space(repeats)
            assert calls == {"cond": 2, "solve": 2}
        calls.update(cond=0, solve=0)
        build_space(uniform_cubic_config(80))
        assert calls == {"cond": 0, "solve": 0}

    @pytest.mark.parametrize(
        "x_new",
        [None, 1.5 + 0.0j, "1.5", True, np.True_, np.array([1.5]), np.array([0.5, 1.5]), [1.5]],
        ids=["None", "complex", "str", "bool", "numpy-bool", "one-element", "array", "list"],
    )
    def test_insertion_point_must_be_a_number(self, mixed_space, x_new):
        # no builtin TypeError, no True read as 1.0, and no float() of an
        # array, which numpy deprecates
        with pytest.raises(InsertionError, match="insertion point must be a number, got "):
            insert_knot(mixed_space, x_new)

    @pytest.mark.parametrize("x_new", [2, np.int64(2), np.float64(1.5), np.float32(1.5)])
    def test_insertion_point_ints_and_numpy_scalars(self, mixed_space, x_new):
        refined, transfer = insert_knot(mixed_space, x_new)
        want_refined, want_transfer = insert_knot(mixed_space, float(x_new))
        assert refined.partition == want_refined.partition
        assert np.array_equal(transfer, want_transfer)

    def test_insertion_does_not_warn(self):
        space = build_space(mixed_family_demo_config())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", AdmissibilityWarning)
            insert_knot(space, 3.7)
        assert not [w for w in caught if w.category is AdmissibilityWarning]

    def test_transfer_is_the_only_dense_allocation(self):
        space = build_space(uniform_cubic_config(640))
        tracemalloc.start()
        try:
            _, transfer = insert_knot(space, 320.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert transfer.shape == (space.n_basis + 1, space.n_basis)
        assert peak <= 1.5 * transfer.nbytes

    def test_band_edge_coefficients(self, mixed_space):
        refined, transfer = insert_knot(mixed_space, 1.0)
        factor = transfer.T
        lo = int(refined.knots.mu[1])
        hi = int(refined.knots.sigma[1]) + 1
        assert factor[lo - 1, lo - 1] == 1.0
        assert factor[hi - 2, hi - 1] == pytest.approx(1.0, abs=1e-10)

    def test_matches_boehm_on_cubic_patch(self, rng):
        cfg = SpaceConfig([0.0, 1.0], [PolynomialFamily(3)], [])
        space = build_space(cfg)
        control = rng.normal(size=(4, 2))
        refined, transfer = insert_knot(space, 0.5)
        assert refined.n_basis == 5
        knots = np.array([0.0, 0, 0, 0, 1, 1, 1, 1])
        _, expected = boehm_insert(knots, 3, control, 0.5)
        assert np.max(np.abs(transfer @ control - expected)) <= 1e-13

    def test_matches_boehm_on_multi_interval_space(self, rng):
        cfg = SpaceConfig([0.0, 1.0, 2.0, 3.0], [PolynomialFamily(3)] * 3, [2, 2])
        space = build_space(cfg)
        control = rng.normal(size=(space.n_basis, 2))
        refined, transfer = insert_knot(space, 1.6)
        knots = cox_de_boor_knots(cfg.breakpoints, 3, cfg.smoothness)
        _, expected = boehm_insert(knots, 3, control, 1.6)
        assert np.max(np.abs(transfer @ control - expected)) <= 1e-13

    def test_matches_boehm_near_element_end(self):
        # a knot 0.5 % of the element from its end: the short piece's basis
        # comes from the exact Bernstein tables, with no Hermite solve
        cfg = SpaceConfig([0.0, 1.0, 2.0, 3.0], [PolynomialFamily(4)] * 3, [3, 3])
        space = build_space(cfg)
        _, transfer = insert_knot(space, 1.995)
        knots = cox_de_boor_knots(cfg.breakpoints, 4, cfg.smoothness)
        _, expected = boehm_insert(knots, 4, np.eye(space.n_basis), 1.995)
        assert np.max(np.abs(transfer - expected)) <= 1e-12

    def test_insert_into_constant_sections(self):
        space = build_space(SpaceConfig([0.0, 2.0], [PolynomialFamily(0)], []))
        refined, transfer = insert_knot(space, 1.0)
        assert refined.n_basis == 2
        assert np.allclose(transfer, [[1.0], [1.0]])

    def test_preservation_on_random_spaces(self, rng):
        for _ in range(4):
            space = build_space(random_config(rng, n_intervals=3))
            a, b = space.domain
            bp = space.partition.breakpoints
            targets = [float(rng.uniform(bp[1], bp[2]))]
            targets += [bp[i] for i in (1, 2) if space.smoothness[i] >= 0][:1]
            control = rng.normal(size=(space.n_basis, 2))
            curve = SplineCurve(space, control)
            for x_new in targets:
                fine = curve.insert_knot(x_new)
                for x in np.linspace(a, b, 120):
                    assert np.max(np.abs(curve(float(x)) - fine(float(x)))) <= 1e-11

    def test_maps_equal_reference_value_matching(self):
        # Every interior breakpoint and interval midpoint: the band read off
        # the refined knot vectors is the support of the jumps the
        # refinement no longer enforces, and on 2,001 points the map keeps
        # the basis, sum_k |(T^T B_new - B_old)_k|, within twice the
        # deviation of the value-matched reference map, or within 1e-13.
        rng = np.random.default_rng(777)
        for _ in range(60):
            space = build_space(random_config(rng))
            bp = space.partition.breakpoints
            xs = np.linspace(*space.domain, 2001)
            before = eval_basis(space, xs)[:, :, 0]
            targets = [x for i, x in enumerate(bp[1:-1], 1) if space.smoothness[i] >= 0]
            targets += [0.5 * (x + y) for x, y in zip(bp, bp[1:])]
            for x_new in targets:
                refined, transfer = insert_knot(space, x_new)
                i = refined.partition.breakpoints.index(x_new)
                kv = refined.knots
                band = kv.band(i, refined.smoothness[i] + 1)
                assert band == (int(kv.mu[i]), int(kv.sigma[i]) + 1)
                after = eval_basis(refined, xs)[:, :, 0]

                def moved(t):
                    return np.max(np.abs(after @ t - before).sum(axis=1))

                reference = moved(reference_transfer(space, refined, i))
                assert moved(transfer) <= max(2.0 * reference, 1e-13)

    def test_no_evaluation_per_insertion(self, mixed_space, monkeypatch):
        def evaluating(*args, **kwargs):
            raise AssertionError("insert_knot evaluated a basis")

        monkeypatch.setattr(space_module, "eval_basis", evaluating)
        for x_new in (1.0, 1.7, 4.0):  # a breakpoint, a trig and an exp split
            insert_knot(mixed_space, x_new)

    # -1 makes beta_{lo+2} negative, 1e3 makes it exceed one, so that the
    # interior alpha_{lo+2} = 1 - beta_{lo+2} is negative.
    @pytest.mark.parametrize("scale", [-1.0, 1e3])
    def test_nonpositive_coefficient_is_named(self, mixed_space, monkeypatch, scale):
        refined, _ = insert_knot(mixed_space, 1.0)
        lo, hi = refined.knots.band(1, refined.smoothness[1] + 1)
        assert hi - lo >= 3
        real = ExtractionMatrix.window

        def scaled(self, row_lo, *args):
            out = real(self, row_lo, *args)
            if self.knots.n_basis == mixed_space.n_basis:
                out[lo - row_lo] *= scale  # old function lo + 1 (1-based)
            return out

        monkeypatch.setattr(ExtractionMatrix, "window", scaled)
        with pytest.raises(GTBError, match=f"x=1.0: .* refined basis function {lo + 2}$"):
            insert_knot(mixed_space, 1.0)

    def test_singular_half_end_table_is_a_library_error(self):
        # a stiff exponential cubic: the end table of one half of the split
        # section is singular in floats, which numpy reports as LinAlgError
        space = build_space(SpaceConfig([0.0, 1.0], [ExponentialFamily(3, 3000.0)], []))
        message = (
            "insertion at x=0.37 splits "
            "SectionSpace([0.0, 1.0], ExponentialFamily(degree=3, omega=3000.0)): Singular matrix"
        )
        with pytest.raises(GTBError) as info:
            insert_knot(space, 0.37)
        assert type(info.value) is GTBError and str(info.value) == message
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("x_new", [1e-13, 5.0 - 1e-13])
    def test_point_at_domain_end_is_named(self, mixed_space, x_new):
        # within the breakpoint tolerance of a domain end, not of a breakpoint
        with pytest.raises(InsertionError, match="domain end"):
            insert_knot(mixed_space, x_new)

    @pytest.mark.parametrize(
        "breakpoints, x_new, hit",
        [
            # Breakpoint 3 lies just over the tolerance left of x_new, yet
            # x_new - tol rounds down onto it; breakpoint 4 lies 2.9e-13 right
            # of it, an interval shorter than the tolerance.
            (
                (0.0, 8.205282341294896e-09, 8.553399672618982e-09, 0.11677484415029879,
                 0.11677484415058922, 0.26329393249878896, 1.0),
                0.1167748441512988,
                4,
            ),
            # Breakpoint 1 lies within the tolerance, yet x_new - tol rounds
            # up past it.
            ((-1.0, -1.5693309651152338e-12, 1.0), 4.306690348847663e-13, 1),
            # Both ends of an interval of 5e-10, against a tolerance of
            # 1.024e-9, lie within the tolerance: the left one is the knot.
            (tuple(range(513)) + (512 + 5e-10,) + tuple(range(513, 1025)), 512 + 2.5e-10, 512),
        ],
        ids=["left-of-rounded-bisection", "right-of-rounded-bisection", "short-interval"],
    )
    def test_breakpoint_within_tolerance_is_located_by_bisection(self, breakpoints, x_new, hit):
        class Counted(tuple):
            """Breakpoints that count the entries read from them."""

            reads = 0

            def __getitem__(self, i):
                self.reads += len(range(len(self))[i]) if isinstance(i, slice) else 1
                return super().__getitem__(i)

            def __iter__(self):
                self.reads += len(self)
                return super().__iter__()

        m = len(breakpoints) - 1
        space = build_space(SpaceConfig(breakpoints, [PolynomialFamily(1)] * m, [0] * (m - 1)))
        counted = Counted(space.partition.breakpoints)
        object.__setattr__(space.partition, "breakpoints", counted)
        assert space_module._refined_components(space, x_new)[3:] == (hit, 0)
        # the lowest breakpoint within the tolerance, as a scan finds it
        tol = 1e-12 * (breakpoints[-1] - breakpoints[0])
        assert hit == min(i for i, x in enumerate(breakpoints) if abs(x - x_new) <= tol)
        assert counted.reads <= 4 * len(breakpoints).bit_length()

    def test_split_halves_equal_two_section_builds(self):
        # The halves of a split section, built in one pass, against one
        # build_bernstein call per half: the same bases bit for bit and the
        # same warnings (class, message, order), or the same error.  Split
        # at the midpoint and 1 % and 0.3 % from the right end of every
        # section of random spaces of degree up to 6 and of custom pairs,
        # one of whose functions fails off the whole numbers.
        def off_whole(x, d):
            if not x == math.floor(x):
                raise ValueError(f"no value at {x!r}")
            return math.exp(x)

        exp_pair = GeneralizedPolynomialFamily(
            3, u=lambda x, d: math.exp(x), v=lambda x, d: (2.0**d) * math.exp(2.0 * x)
        )
        whole_pair = GeneralizedPolynomialFamily(3, u=off_whole, v=lambda x, d: (3.0**d) * math.exp(3.0 * x))
        rng = np.random.default_rng(3535)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spaces = [build_space(random_config(rng, max_degree=6)) for _ in range(40)]
            spaces.append(build_space(SpaceConfig([0.0, 1.0, 2.0, 3.0], [exp_pair, PolynomialFamily(3), whole_pair], [1, 1])))

        def outcome(build):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    bases = build()
                except Exception as exc:
                    bases = (type(exc), str(exc))
            return bases, [(w.category, str(w.message)) for w in caught]

        kinds, seen = set(), set()
        for space in spaces:
            for e, basis in enumerate(space.bases, 1):
                section = basis.section
                kinds.add(type(section.family).__name__)
                for f in (0.5, 0.99, 0.997):
                    x_new = section.x_lo + f * (section.x_hi - section.x_lo)
                    halves = ((section.x_lo, x_new), (x_new, section.x_hi))
                    ours, our_warnings = outcome(
                        lambda: space_module._refined_components(space, x_new)[1][e - 1 : e + 1]
                    )
                    theirs, their_warnings = outcome(
                        lambda: [build_bernstein(section.restricted(*ends)) for ends in halves]
                    )
                    assert our_warnings == their_warnings
                    if isinstance(theirs, tuple):
                        assert ours == theirs
                        seen.add("error")
                        continue
                    seen.add("warning" if their_warnings else "clean")
                    for a, b in zip(ours, theirs, strict=True):
                        assert (a.section.x_lo, a.section.x_hi) == (b.section.x_lo, b.section.x_hi)
                        assert a.section.family is b.section.family
                        assert (a.coeffs is None) == (b.coeffs is None)
                        if a.coeffs is not None:
                            assert a.coeffs.tobytes() == b.coeffs.tobytes()
                        assert a.left_table.tobytes() == b.left_table.tobytes()
                        assert a.right_table.tobytes() == b.right_table.tobytes()
        assert kinds == {
            "PolynomialFamily", "TrigonometricFamily", "ExponentialFamily", "GeneralizedPolynomialFamily"
        }
        assert seen == {"clean", "warning", "error"}

    def test_precondition_errors(self, mixed_space, profile_space):
        with pytest.raises(InsertionError):
            insert_knot(mixed_space, 0.0)  # domain endpoint
        with pytest.raises(InsertionError):
            insert_knot(mixed_space, 6.0)
        # fully discontinuous joint cannot lose more smoothness
        cfg = SpaceConfig([0.0, 1.0, 2.0], [PolynomialFamily(2)] * 2, [-1])
        space = build_space(cfg)
        with pytest.raises(InsertionError):
            insert_knot(space, 1.0)


class TestUnitIntegralScaling:
    def test_linear_hat(self):
        space = build_space(
            SpaceConfig([0.0, 1.0, 2.0], [PolynomialFamily(1)] * 2, [0])
        )
        scalings = unit_integral_scaling(space)
        assert scalings[1] == pytest.approx(1.0, rel=1e-13)

    def test_single_quadratic_patch(self):
        space = build_space(SpaceConfig([0.0, 1.0], [PolynomialFamily(2)], []))
        assert np.allclose(unit_integral_scaling(space), [3.0, 3.0, 3.0], rtol=1e-13)

    def test_matches_element_by_element_reference(self, mixed_space, profile_space):
        rng = np.random.default_rng(16)
        spaces = [mixed_space, profile_space, custom_pair_space()]
        spaces += [build_space(random_config(rng, n_intervals=6)) for _ in range(3)]
        for space in spaces:
            want = reference_unit_integrals(space)
            got = 1.0 / unit_integral_scaling(space)
            assert np.max(np.abs(got - want) / want) <= 1e-14

    def test_reference_rule_is_computed_once(self):
        x, w = gauss_legendre(8)
        assert gauss_legendre(8)[0] is x
        assert not (x.flags.writeable or w.flags.writeable)
        want = np.polynomial.legendre.leggauss(8)
        assert np.array_equal(x, want[0]) and np.array_equal(w, want[1])

    def test_panel_count_ignores_rounding_above_a_whole_number(self):
        # omega * L / 2 is 3 plus one ulp: the rounding of the product adds
        # no panel; a quotient 1e-9 above 3 does
        omega = 2.0 * math.nextafter(3.0, math.inf)
        panels = [
            section_panels(SectionSpace(0.0, 1.0, ExponentialFamily(3, w)))
            for w in (6.0, omega, 6.0 * (1 + 1e-13), 6.0 * (1 + 1e-9))
        ]
        assert panels == [3, 3, 3, 4]

    def test_total_length(self, rng):
        for _ in range(6):
            space = build_space(random_config(rng))
            scalings = unit_integral_scaling(space)
            a, b = space.domain
            assert np.sum(1.0 / scalings) == pytest.approx(b - a, abs=1e-10)


class TestEndExactness:
    def test_first_nonzero_derivative_at_support_start(self, mixed_space):
        # The leading one-sided derivative at the support start must be a
        # stable nonzero: comparable to its own values just inside the
        # support (stiff exponential pieces make a global derivative scale
        # meaningless) and far above the rounding floor of the tables.
        kv = mixed_space.knots
        for k in range(1, mixed_space.n_basis + 1):
            r_u, _ = kv.supersmoothness(k)
            u_k, v_k = float(kv.u[k - 1]), float(kv.v[k - 1])
            i = mixed_space.partition.locate(u_k)
            p_i = mixed_space.degrees[i - 1]
            if r_u + 1 > p_i:
                continue
            table = eval_basis(mixed_space, u_k, r_u + 1)
            lead = table[k - 1, r_u + 1]
            nearby = max(
                abs(eval_basis(mixed_space, float(x), r_u + 1)[k - 1, r_u + 1])
                for x in np.linspace(u_k, u_k + 0.05 * (v_k - u_k), 7)
            )
            floor = 1e-13 * max(1.0, np.max(np.abs(table[:, r_u + 1])))
            assert abs(lead) > max(1e-8 * nearby, floor)
            for order in range(r_u + 1):
                assert abs(table[k - 1, order]) <= 1e-10 * max(
                    1.0, np.max(np.abs(table[:, order]))
                )
