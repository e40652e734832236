import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtbsplines.extraction as extraction_module
from gtbsplines import (
    BasisNonexistenceError,
    ConfigError,
    ExtractionMatrix,
    GTBError,
    Partition,
    PolynomialFamily,
    SectionSpace,
    TrigonometricFamily,
    build_knot_vectors,
    build_space,
    eval_basis,
)
from gtbsplines.bernstein import build_bernstein
from gtbsplines.config import (
    SpaceConfig,
    conic_profile_demo_config,
    mixed_family_demo_config,
)
from gtbsplines.extraction import (
    apply_factor,
    build_constraints,
    extraction_operator,
    jump_rows,
    nullspace_step,
)
from gtbsplines.oracle import cox_de_boor_basis, cox_de_boor_knots

from helpers import (
    classical_element_extraction,
    dense_cascade,
    random_config,
    reference_supersmoothness,
    uniform_cubic_config,
    uniform_poly_config,
)

DEMO_PARTITION = Partition((0.0, 1.0, 2.5, 5.0))
DEMO_DEGREES = (2, 3, 4)
DEMO_SMOOTHNESS = (-1, 2, 2, -1)


class TestKnotVectors:
    def test_demo_vectors(self):
        kv = build_knot_vectors(DEMO_PARTITION, DEMO_DEGREES, DEMO_SMOOTHNESS)
        assert kv.n_basis == 6
        assert np.array_equal(kv.u, [0.0, 0.0, 0.0, 1.0, 2.5, 2.5])
        assert np.array_equal(kv.v, [2.5, 5.0, 5.0, 5.0, 5.0, 5.0])
        assert list(kv.sigma) == [0, 3, 4, 6]
        assert list(kv.mu) == [0, 0, 1, 6]

    def test_demo_layout(self):
        kv = build_knot_vectors(DEMO_PARTITION, DEMO_DEGREES, DEMO_SMOOTHNESS)
        assert list(kv.block_start) == [0, 3, 7, 12]
        assert kv.n_bernstein == 12
        assert [kv.active_range(e) for e in (1, 2, 3)] == [(1, 3), (1, 4), (2, 6)]
        assert kv.columns == [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
        assert [kv.band(i, j) for i, j in kv.columns] == [
            (3, 4), (2, 4), (1, 4), (4, 5), (3, 5), (2, 5)
        ]
        # one order past the smoothness at x_2: the jump the space keeps
        assert kv.band(2, 3) == (int(kv.mu[2]), int(kv.sigma[2]) + 1) == (1, 5)

    def test_single_patch(self):
        kv = build_knot_vectors(Partition((0.0, 1.0)), (2,), (-1, -1))
        assert np.array_equal(kv.u, [0.0, 0.0, 0.0])
        assert np.array_equal(kv.v, [1.0, 1.0, 1.0])

    def test_matches_classical_open_knot_vector(self):
        # Two cubics joined C^2: the pair (u_k, v_k) must equal
        # (xi_k, xi_{k+p+1}) of the open knot vector (0,0,0,0,1,2,2,2,2).
        kv = build_knot_vectors(Partition((0.0, 1.0, 2.0)), (3, 3), (-1, 2, -1))
        xi = np.array([0, 0, 0, 0, 1, 2, 2, 2, 2], dtype=float)
        n = kv.n_basis
        assert np.array_equal(kv.u, xi[:n])
        assert np.array_equal(kv.v, xi[4 : 4 + n])

    def test_ordering_invariants(self, rng):
        for _ in range(25):
            cfg = random_config(rng)
            kv = build_knot_vectors(
                Partition(tuple(cfg.breakpoints)), cfg.degrees, cfg.full_smoothness
            )
            assert np.all(kv.u < kv.v)
            assert np.all(kv.u[1:] <= kv.v[:-1])
            if all(r >= 0 for r in cfg.smoothness):
                assert np.all(kv.u[1:] < kv.v[:-1])

    def test_support_reads_the_knot_vectors(self, rng):
        kv = build_knot_vectors(DEMO_PARTITION, DEMO_DEGREES, DEMO_SMOOTHNESS)
        assert [kv.support(k) for k in (1, 4, 5, 6)] == [(0, 2), (1, 3), (2, 3), (2, 3)]
        for _ in range(60):
            cfg = random_config(rng)
            bp = np.array(cfg.breakpoints)
            kv = build_knot_vectors(Partition(tuple(bp)), cfg.degrees, cfg.full_smoothness)
            ks = np.arange(1, kv.n_basis + 1)
            i, j = kv.support(ks)
            assert np.array_equal(bp[i], kv.u)
            assert np.array_equal(bp[j], kv.v)
            assert [kv.support(int(k)) for k in ks] == list(zip(i.tolist(), j.tolist()))

    def test_smoothness_bound_violation(self):
        with pytest.raises(ConfigError):
            build_knot_vectors(Partition((0.0, 1.0, 2.0)), (2, 2), (-1, 3, -1))

    @pytest.mark.parametrize(
        "degrees, smoothness, message",
        [
            ((2, 2), (-1, 1), "smoothness vector must have length 3 (got 2)"),
            ((2, 2), (0, 1, -1), "end smoothness entries must be -1"),
            ((2, 2), (-1, 1, 0), "end smoothness entries must be -1"),
            ((2,), (-1, 1, -1), "need 2 degrees, got 1"),
        ],
        ids=["smoothness-length", "left-end", "right-end", "degree-count"],
    )
    def test_inconsistent_layout_rejected(self, degrees, smoothness, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build_knot_vectors(Partition((0.0, 1.0, 2.0)), degrees, smoothness)


class TestSupersmoothness:
    def test_demo_table(self):
        kv = build_knot_vectors(DEMO_PARTITION, DEMO_DEGREES, DEMO_SMOOTHNESS)
        pairs = [kv.supersmoothness(k) for k in range(1, 7)]
        assert [p[0] for p in pairs] == [-1, 0, 1, 2, 2, 3]
        assert [p[1] for p in pairs] == [2, 3, 2, 1, 0, -1]

    def test_single_quadratic_patch(self):
        kv = build_knot_vectors(Partition((0.0, 1.0)), (2,), (-1, -1))
        pairs = [kv.supersmoothness(k) for k in range(1, 4)]
        assert pairs == [(-1, 1), (0, 0), (1, -1)]

    def test_uniform_cubic_first_function(self):
        kv = build_knot_vectors(
            Partition((0.0, 1.0, 2.0, 3.0)), (3, 3, 3), (-1, 2, 2, -1)
        )
        r_u, _ = kv.supersmoothness(1)
        assert r_u == -1

    def test_closed_form_matches_run_counting(self, rng):
        configs = [random_config(rng) for _ in range(300)]
        layouts = [(c.breakpoints, c.degrees, c.full_smoothness) for c in configs]
        layouts += [
            # polynomial joints at r = p: x_1 in neither knot vector, then
            # in u only; an r = -1 joint; a constant section
            ((0.0, 1.0, 2.0, 3.0), (2, 2, 3), (-1, 2, -1, -1)),
            ((0.0, 1.0, 2.0, 3.0), (1, 3, 1), (-1, 1, 1, -1)),
            ((0.0, 1.0, 2.0), (0, 2), (-1, 0, -1)),
        ]
        for breakpoints, degrees, smoothness in layouts:
            kv = build_knot_vectors(Partition(tuple(breakpoints)), degrees, smoothness)
            for k in range(1, kv.n_basis + 1):
                assert kv.supersmoothness(k) == reference_supersmoothness(
                    degrees, smoothness, k
                )
            for k in (0, kv.n_basis + 1):
                with pytest.raises(ConfigError):
                    kv.supersmoothness(k)

    def test_lower_bound_is_interior_smoothness(self, rng):
        for _ in range(20):
            cfg = random_config(rng)
            kv = build_knot_vectors(
                Partition(tuple(cfg.breakpoints)), cfg.degrees, cfg.full_smoothness
            )
            for k in range(1, kv.n_basis + 1):
                r_u, r_v = kv.supersmoothness(k)
                i = cfg.breakpoints.index(kv.u[k - 1])
                j = cfg.breakpoints.index(kv.v[k - 1])
                assert r_u >= cfg.full_smoothness[i]
                assert r_v >= cfg.full_smoothness[j]


def _demo_constraints():
    sections = [
        SectionSpace(0.0, 1.0, PolynomialFamily(2)),
        SectionSpace(1.0, 2.5, TrigonometricFamily(3, math.pi / 2)),
        SectionSpace(2.5, 5.0, PolynomialFamily(4)),
    ]
    bases = [build_bernstein(s) for s in sections]
    kv = build_knot_vectors(DEMO_PARTITION, DEMO_DEGREES, DEMO_SMOOTHNESS)
    return build_constraints(bases, kv)


def _jump_columns(constraints):
    """The jumps of every global Bernstein function, one column per
    constraint."""
    eye = np.eye(constraints.knots.n_bernstein)
    columns = [
        jump_rows(eye, constraints.bases, constraints.knots.block_start, i, j)
        for i, j in constraints.knots.columns
    ]
    return np.array(columns).reshape(-1, eye.shape[0]).T


class TestConstraints:
    def test_two_linear_hats_column(self):
        part = Partition((0.0, 1.0, 2.0))
        sections = [SectionSpace(0, 1, PolynomialFamily(1)), SectionSpace(1, 2, PolynomialFamily(1))]
        bases = [build_bernstein(s) for s in sections]
        kv = build_knot_vectors(part, (1, 1), (-1, 0, -1))
        jumps = _jump_columns(build_constraints(bases, kv))
        assert jumps.shape == (4, 1)
        assert np.allclose(jumps[:, 0], [0.0, 1.0, -1.0, 0.0])

    def test_discontinuous_joint_contributes_nothing(self):
        part = Partition((0.0, 1.0, 2.0))
        sections = [SectionSpace(0, 1, PolynomialFamily(2)), SectionSpace(1, 2, PolynomialFamily(2))]
        bases = [build_bernstein(s) for s in sections]
        kv = build_knot_vectors(part, (2, 2), (-1, -1, -1))
        jumps = _jump_columns(build_constraints(bases, kv))
        assert jumps.shape == (6, 0)

    def test_demo_shape_and_structural_zeros(self):
        jumps = _jump_columns(_demo_constraints())
        assert jumps.shape == (12, 6)
        # columns of breakpoint 1 touch only the blocks of intervals 1 and 2
        for col in range(3):
            assert np.all(jumps[7:, col] == 0.0)
        for col in range(3, 6):
            assert np.all(jumps[:3, col] == 0.0)

    def test_band_layout(self):
        constraints = _demo_constraints()
        bands = {(i, j): constraints.knots.band(i, j) for i, j in constraints.knots.columns}
        assert bands[(1, 0)] == (3, 4)
        assert bands[(1, 2)] == (1, 4)
        assert bands[(2, 0)] == (4, 5)
        assert bands[(2, 2)] == (2, 5)


    def test_one_basis_per_interval(self, mixed_space):
        with pytest.raises(ConfigError, match=r"^need 3 Bernstein bases, got 2$"):
            build_constraints(mixed_space.bases[:2], mixed_space.knots)


class TestNullspaceStep:
    def test_hand_example(self):
        beta = nullspace_step(np.array([0.0, 1.0, -1.0, 0.0]), (2, 3))
        factor = apply_factor(np.eye(4), (2, 3), beta)
        expected = np.array([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]], dtype=float)
        assert np.array_equal(factor, expected)

    def test_zero_vector_rejected(self):
        with pytest.raises(BasisNonexistenceError):
            nullspace_step(np.zeros(4), (1, 4))

    def test_degenerate_band_entry_rejected(self):
        a = np.array([0.0, 1.0, 1e-15, -1.0, 0.0])
        with pytest.raises(BasisNonexistenceError):
            nullspace_step(a, (2, 4))

    def test_same_sign_band_rejected(self):
        with pytest.raises(BasisNonexistenceError):
            nullspace_step(np.array([0.0, 1.0, 1.0, 0.0]), (2, 3))

    @pytest.mark.parametrize("band", [(0, 2), (2, 2), (3, 2), (2, 5)])
    def test_invalid_band_rejected(self, band):
        message = f"invalid constraint band [{band[0]}, {band[1]}] for length 4"
        with pytest.raises(BasisNonexistenceError, match=f"^{re.escape(message)}$"):
            nullspace_step(np.array([0.0, 1.0, -1.0, 0.0]), band)

    def test_out_of_band_noise_rejected(self):
        with pytest.raises(GTBError):
            nullspace_step(np.array([0.5, 1.0, -1.0, 0.0]), (2, 3))

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=12),
        data=st.data(),
    )
    def test_annihilation_property(self, n, data):
        # A valid constraint vector has a sign-alternating band whose ratios
        # come from combination coefficients in (0, 1); generate those first
        # and back the vector out, then check the factor annihilates it.
        lo = data.draw(st.integers(min_value=1, max_value=n - 1))
        hi = data.draw(st.integers(min_value=lo + 1, max_value=n))
        alphas = {lo: 1.0}
        for k in range(lo + 1, hi):
            alphas[k] = data.draw(st.floats(min_value=0.05, max_value=0.95))
        a = np.zeros(n)
        a[lo - 1] = data.draw(st.sampled_from([-1.0, 1.0])) * data.draw(
            st.floats(min_value=0.1, max_value=10.0)
        )
        for k in range(lo, hi):  # 0-based position k holds band entry k+1
            beta = 1.0 - alphas[k + 1] if k + 1 < hi else 1.0
            a[k] = -alphas[k] * a[k - 1] / beta
        factor = apply_factor(np.eye(n), (lo, hi), nullspace_step(a, (lo, hi)))
        assert factor.shape == (n - 1, n)
        assert np.max(np.abs(factor @ a)) <= 1e-13 * np.max(np.abs(a))
        # The float vector a does not encode the drawn alphas; its own are the
        # cascade run in rationals.  Each band step multiplies the float
        # recursion's relative error by at most max(1, beta/alpha).
        assert factor[lo - 1, lo - 1] == 1.0
        alpha, growth = Fraction(1), 1.0
        for k in range(lo, hi - 1):  # 0-based band position k + 1
            beta = -alpha * Fraction(a[k - 1]) / Fraction(a[k])
            alpha = 1 - beta
            growth *= max(1.0, float(beta / alpha))
            bound = 4 * n * np.finfo(float).eps * growth
            assert abs(Fraction(factor[k, k]) - alpha) <= Fraction(bound) * alpha
        sums = factor.sum(axis=0)
        if hi < n:
            assert np.max(np.abs(sums - 1.0)) <= 1e-12


class TestExtractionOperator:
    def test_no_constraints_gives_identity(self):
        part = Partition((0.0, 1.0, 2.0))
        sections = [SectionSpace(0, 1, PolynomialFamily(2)), SectionSpace(1, 2, PolynomialFamily(2))]
        bases = [build_bernstein(s) for s in sections]
        kv = build_knot_vectors(part, (2, 2), (-1, -1, -1))
        ext = extraction_operator(build_constraints(bases, kv))
        assert np.array_equal(ext.operator, np.eye(6))

    def test_two_hats_assembly(self):
        part = Partition((0.0, 1.0, 2.0))
        sections = [SectionSpace(0, 1, PolynomialFamily(1)), SectionSpace(1, 2, PolynomialFamily(1))]
        bases = [build_bernstein(s) for s in sections]
        kv = build_knot_vectors(part, (1, 1), (-1, 0, -1))
        ext = extraction_operator(build_constraints(bases, kv))
        expected = np.array([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]], dtype=float)
        assert np.allclose(ext.operator, expected)

    @pytest.mark.parametrize(
        "band_end, message",
        [(2.0, "entries outside [0, 1]: "), (1.0 - 1e-9, "column sums deviate from one")],
        ids=["entry-above-one", "column-sum-below-one"],
    )
    def test_closing_bounds_are_checked(self, monkeypatch, band_end, message):
        # Each factor's band-end coefficient is pinned to one; a factor that
        # escapes the pin must not pass the cascade's closing checks.
        step = extraction_module.nullspace_step

        def skewed(a, band):
            beta = step(a, band)
            beta[-1] = band_end
            return beta

        monkeypatch.setattr(extraction_module, "nullspace_step", skewed)
        part = Partition((0.0, 1.0, 2.0))
        sections = [SectionSpace(*part.interval(e), PolynomialFamily(1)) for e in (1, 2)]
        bases = [build_bernstein(s) for s in sections]
        kv = build_knot_vectors(part, (1, 1), (-1, 0, -1))
        with pytest.raises(GTBError, match=f"^{re.escape('extraction operator ' + message)}"):
            extraction_operator(build_constraints(bases, kv))

    def test_demo_operator_properties(self, mixed_space):
        c = mixed_space.operator
        assert c.shape == (6, 12)
        assert c.min() >= -1e-14 and c.max() <= 1.0 + 1e-14
        assert np.max(np.abs(c.sum(axis=0) - 1.0)) <= 1e-12

    def test_annihilates_original_constraints(self, rng):
        for _ in range(12):
            cfg = random_config(rng)
            space = build_space(cfg)
            a = space.extraction
            constraints = build_constraints(space.bases, space.knots)
            residual = np.array(
                [
                    jump_rows(space.operator, space.bases, space.knots.block_start, i, j)
                    for i, j in constraints.knots.columns
                ]
            )
            if residual.size:
                assert np.max(np.abs(residual)) <= 1e-11 * max(
                    1.0, np.max(np.abs(_jump_columns(constraints)))
                ), f"constraint residual too large for {cfg}"
            assert a.knots.n_basis == space.n_bernstein - len(a.factors)

    def test_bands_are_the_jump_supports(self, rng):
        # Each band read off the knot vectors is exactly where the jump of
        # the reference cascade's running operator is nonzero.
        for _ in range(40):
            space = build_space(random_config(rng))
            kv = space.knots
            c = np.eye(kv.n_bernstein)
            for (i, j), beta in zip(kv.columns, space.extraction.factors):
                a = np.abs(jump_rows(c, space.bases, kv.block_start, i, j))
                support = np.flatnonzero(a > 1e-10 * a.max()) + 1
                assert (support[0], support[-1]) == kv.band(i, j)
                c = apply_factor(c, kv.band(i, j), beta)

    def test_factors_store_band_coefficients_only(self, mixed_space, rng):
        spaces = [mixed_space] + [build_space(random_config(rng)) for _ in range(12)]
        for space in spaces:
            kv = space.knots
            bands = [kv.band(i, j) for i, j in kv.columns]
            for beta, (lo, hi) in zip(space.extraction.factors, bands):
                assert beta.size == hi - lo

    def test_factor_two_band_structure(self, mixed_space):
        kv = mixed_space.knots
        bands = [kv.band(i, j) for i, j in kv.columns]
        for rho, (beta, (lo, hi)) in enumerate(zip(mixed_space.extraction.factors, bands)):
            factor = apply_factor(np.eye(mixed_space.n_bernstein - rho), (lo, hi), beta)
            rows, cols = factor.shape
            assert cols == rows + 1
            for k in range(rows):
                row = factor[k].copy()
                row[k] = 0.0
                row[k + 1] = 0.0
                assert np.all(row == 0.0)
            assert factor[lo - 1, lo - 1] == 1.0
            for k in range(lo, hi):
                assert factor[k - 1, k] > 0.0  # superdiagonal combination weight
                if k < hi - 1:
                    assert factor[k, k] > 0.0  # diagonal complement
            # the non-identity region must sit exactly where the running knot
            # vectors predict it: first mixing row = band start, last nonzero
            # diagonal = band end - 1
            superdiag = np.array([factor[k, k + 1] for k in range(rows)])
            diag = np.array([factor[k, k] for k in range(rows)])
            assert int(np.nonzero(superdiag)[0][0]) + 1 == lo
            assert int(np.nonzero(diag)[0][-1]) + 1 == hi - 1

    def test_factors_satisfy_neighbor_combination_law(self, mixed_space):
        # Each factor must combine adjacent functions of the previous stage
        # with ratios fixed by their derivative jumps at the breakpoint, with
        # the jumps recomputed independently from endpoint tables.
        space = mixed_space
        running = np.eye(space.n_bernstein)
        for beta, (i, j) in zip(space.extraction.factors, space.knots.columns):
            lo, hi = space.knots.band(i, j)
            factor = apply_factor(np.eye(running.shape[0]), (lo, hi), beta)
            g = np.zeros(space.n_bernstein)
            bl = slice(space.knots.block_start[i - 1], space.knots.block_start[i])
            br = slice(space.knots.block_start[i], space.knots.block_start[i + 1])
            g[bl] = space.bases[i - 1].right_table[:, j]
            g[br] -= space.bases[i].left_table[:, j]
            jumps = running @ g
            for k in range(lo, hi):  # 0-based cascade positions
                alpha = factor[k - 1, k - 1]
                beta = factor[k - 1, k]
                expected = -alpha * jumps[k - 1] / jumps[k]
                assert beta == pytest.approx(expected, rel=1e-10)
            running = factor @ running

    def test_classical_equivalence_uniform_polynomial(self, rng):
        for degree in (1, 2, 3):
            cfg = SpaceConfig(
                [0.0, 0.7, 1.5, 2.1],
                [PolynomialFamily(degree)] * 3,
                [int(rng.integers(0, degree))] * 2,
            )
            space = build_space(cfg)
            knots = cox_de_boor_knots(cfg.breakpoints, degree, cfg.smoothness)
            reference = classical_element_extraction(
                space, lambda x: cox_de_boor_basis(knots, degree, x)[:, 0]
            )
            assert np.max(np.abs(space.operator - reference)) <= 1e-12

    def test_nonexistent_basis_raises_with_location(self):
        # A trigonometric and an exponential quadratic glued with maximal
        # smoothness r = 2 = min(p, p): curvature ratios are incompatible.
        cfg = SpaceConfig(
            [0.0, 1.0, 2.0],
            [TrigonometricFamily(2, 2.0), PolynomialFamily(2)],
            [2],
        )
        with pytest.warns(UserWarning):
            try:
                space = build_space(cfg)
            except BasisNonexistenceError as exc:
                assert exc.breakpoint_index == 1
            else:
                # existence is not guaranteed, but if the cascade survives the
                # operator must still be a valid extraction
                c = space.operator
                assert np.max(np.abs(c.sum(axis=0) - 1.0)) <= 1e-12

    def test_blocks_and_factors_match_dense_cascade(self):
        rng = np.random.default_rng(606)
        configs = [mixed_family_demo_config(), conic_profile_demo_config(), uniform_cubic_config(80)]
        configs += [random_config(rng) for _ in range(50)]
        for cfg in configs:
            space = build_space(cfg)
            dense, factors = dense_cascade(build_constraints(space.bases, space.knots))
            ext = space.extraction
            assert len(ext.factors) == len(factors)
            for beta, expected in zip(ext.factors, factors):
                assert np.array_equal(beta, expected)
            starts = space.knots.block_start
            for e, block in enumerate(ext.blocks, start=1):
                lo, hi = space.knots.active_range(e)
                assert np.array_equal(block, dense[lo - 1 : hi, starts[e - 1] : starts[e]])
            # nothing of the dense operator lies outside the blocks
            assert np.array_equal(ext.operator, dense)

    def test_block_bounds_equal_per_block_reference(self):
        # One stacked reduction per block size against one reduction per
        # block, column by column: equal bit for bit, and a changed entry of
        # any block shows.
        rng = np.random.default_rng(707)
        configs = [mixed_family_demo_config(), conic_profile_demo_config(), uniform_cubic_config(9)]
        configs += [random_config(rng, int(rng.integers(1, 9)), max_degree=5) for _ in range(40)]
        configs += [uniform_poly_config(rng, p, 4) for p in (7, 8, 9)]  # sums of 8 and more rows
        for cfg in configs:
            ext = build_space(cfg).extraction
            col_err = max(float(np.max(np.abs(b.sum(axis=0) - 1.0))) for b in ext.blocks)
            low = min(float(b.min()) for b in ext.blocks)
            high = max(float(b.max()) for b in ext.blocks)
            assert "bounds" in vars(ext)  # filled by the cascade's closing check
            assert ext.bounds == (col_err, low, high)
            blocks = list(ext.blocks)
            blocks[-1] = blocks[-1].copy()
            blocks[-1][0, -1] -= 0.75
            changed = ExtractionMatrix(tuple(blocks), ext.factors, ext.knots).bounds
            assert changed[0] >= 0.75 - 1e-12 and changed[1] == min(low, blocks[-1][0, -1])

    def test_large_space_stores_element_blocks_only(self):
        m = 640
        cfg = uniform_cubic_config(m)
        space = build_space(cfg)
        ext = space.extraction
        n_bernstein = space.n_bernstein
        stored = []
        for value in vars(ext).values():
            items = value if isinstance(value, (list, tuple)) else [value]
            stored += [a for a in items if isinstance(a, np.ndarray)]
        assert all(n_bernstein not in a.shape for a in stored)
        bound = 8 * (
            sum((p + 1) ** 2 for p in space.degrees)
            + sum(hi - lo for lo, hi in (ext.knots.band(i, j) for i, j in ext.knots.columns))
        )
        assert sum(a.nbytes for a in stored) <= bound + 1024
        points = np.linspace(0.0, float(m), 9)
        knots = cox_de_boor_knots(cfg.breakpoints, 3, cfg.smoothness)
        ref = np.array([cox_de_boor_basis(knots, 3, float(x), 1) for x in points])
        assert np.max(np.abs(eval_basis(space, points, 1) - ref)) <= 1e-12
