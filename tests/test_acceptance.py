"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are fixed here and nowhere else."""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from gtbsplines import (
    PolynomialFamily,
    SpaceConfig,
    SplineCurve,
    TrigonometricFamily,
    build_knot_vectors,
    build_space,
    eval_basis,
    insert_knot,
    jump_vector,
    unit_integral_scaling,
)
from gtbsplines.config import conic_profile_demo_config, mixed_family_demo_config
from gtbsplines.extraction import apply_factor
from gtbsplines.oracle import (
    cox_de_boor_basis,
    cox_de_boor_knots,
    local_recurrence_eval,
)
from gtbsplines.sections import Partition

from helpers import random_config, uniform_poly_config


def _report(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _sampled_derivative_scale(space, k: int, order: int, n: int = 200) -> float:
    a, b = space.domain
    best = 0.0
    for x in np.linspace(a, b, n):
        i = space.partition.locate(float(x))
        if space.degrees[i - 1] < order:
            continue
        best = max(best, abs(eval_basis(space, float(x), order)[k - 1, order]))
    return best


def test_criterion_01_knot_vector_triples_table():
    start = time.perf_counter()
    partition = Partition((0.0, 1.0, 2.5, 5.0))
    degrees, smoothness = (2, 3, 4), (-1, 2, 2, -1)
    kv = build_knot_vectors(partition, degrees, smoothness)
    triples = [
        (kv.u[k - 1], kv.v[k - 1], *kv.supersmoothness(k))
        for k in range(1, kv.n_basis + 1)
    ]
    elapsed = time.perf_counter() - start
    expected = [
        (0.0, 2.5, -1, 2),
        (0.0, 5.0, 0, 3),
        (0.0, 5.0, 1, 2),
        (1.0, 5.0, 2, 1),
        (2.5, 5.0, 2, 0),
        (2.5, 5.0, 3, -1),
    ]
    ok = kv.n_basis == 6 and all(
        got == want for got, want in zip(triples, expected)
    ) and elapsed < 0.1
    _report("01 knot-vector-triples", ok, f"runtime {elapsed * 1e3:.2f} ms")


def test_criterion_02_dimension_formulas():
    ok = build_space(mixed_family_demo_config()).n_basis == 6
    ok &= build_space(conic_profile_demo_config()).n_basis == 4
    rng = np.random.default_rng(2)
    for _ in range(50):
        space = build_space(random_config(rng))
        ok &= space.n_basis == space.n_bernstein - space.n_constraints
    _report("02 dimension-formulas", ok)


def test_criterion_03_partition_of_unity():
    rng = np.random.default_rng(3)
    spaces = [build_space(mixed_family_demo_config()), build_space(conic_profile_demo_config())]
    spaces += [build_space(random_config(rng)) for _ in range(20)]
    worst = 0.0
    for space in spaces:
        a, b = space.domain
        for x in np.linspace(a, b, 1000):
            worst = max(worst, abs(eval_basis(space, float(x))[:, 0].sum() - 1.0))
    _report("03 partition-of-unity", worst <= 1e-12, f"max deviation {worst:.3g}")


def test_criterion_04_smoothness_and_jump_band():
    rng = np.random.default_rng(4)
    spaces = [build_space(mixed_family_demo_config()), build_space(conic_profile_demo_config())]
    spaces += [build_space(random_config(rng)) for _ in range(10)]
    ok = True
    detail = ""
    for space in spaces:
        m = space.partition.num_intervals
        for i in range(1, m):
            r = space.smoothness[i]
            for order in range(r + 1):
                vec = jump_vector(space, i, order)
                for k in range(1, space.n_basis + 1):
                    scale = max(1.0, _sampled_derivative_scale(space, k, order, 80))
                    if abs(vec[k - 1]) > 1e-9 * scale:
                        ok, detail = False, f"smooth jump i={i} j={order} k={k}"
            if r + 1 <= min(space.degrees[i - 1], space.degrees[i]):
                vec = jump_vector(space, i, r + 1)
                lo = int(space.knots.mu[i])
                hi = int(space.knots.sigma[i]) + 1
                for k in range(1, space.n_basis + 1):
                    scale = max(1e-30, _sampled_derivative_scale(space, k, r + 1, 80))
                    if lo <= k <= hi:
                        if abs(vec[k - 1]) <= 1e-8 * scale:
                            ok, detail = False, f"band jump too small i={i} k={k}"
                    elif abs(vec[k - 1]) > 1e-10 * max(1.0, scale):
                        ok, detail = False, f"out-of-band jump i={i} k={k}"
    _report("04 smoothness-jump-band", ok, detail)


def test_criterion_05_extraction_structure():
    rng = np.random.default_rng(5)
    spaces = [build_space(mixed_family_demo_config()), build_space(conic_profile_demo_config())]
    spaces += [build_space(random_config(rng)) for _ in range(10)]
    ok = True
    for space in spaces:
        c = space.operator
        ok &= c.min() >= -1e-14 and c.max() <= 1.0 + 1e-14
        ok &= np.max(np.abs(c.sum(axis=0) - 1.0)) <= 1e-12
        kv = space.knots
        bands = [kv.band(i, j) for i, j in kv.columns]
        for rho, (beta, (lo, hi)) in enumerate(zip(space.extraction.factors, bands)):
            factor = apply_factor(np.eye(space.n_bernstein - rho), (lo, hi), beta)
            rows, cols = factor.shape
            ok &= cols == rows + 1
            mask = np.ones_like(factor, dtype=bool)
            idx = np.arange(rows)
            mask[idx, idx] = False
            mask[idx, idx + 1] = False
            ok &= bool(np.all(factor[mask] == 0.0))
            ok &= factor[lo - 1, lo - 1] == 1.0
            ok &= factor[hi - 2, hi - 1] == 1.0
            for k in range(lo, hi):
                ok &= factor[k - 1, k] > 0.0
                if k < hi - 1:
                    ok &= factor[k, k] > 0.0
    _report("05 extraction-structure", bool(ok))


def test_criterion_06_polynomial_oracle_equivalence():
    rng = np.random.default_rng(6)
    worst = 0.0
    for degree in (1, 2, 3, 4):
        for _ in range(3):
            m = int(rng.integers(2, 9))
            cfg = uniform_poly_config(rng, degree, m)
            space = build_space(cfg)
            knots = cox_de_boor_knots(cfg.breakpoints, degree, cfg.smoothness)
            a, b = space.domain
            for x in np.linspace(a, b, 500):
                ours = eval_basis(space, float(x), 1)
                ref = cox_de_boor_basis(knots, degree, float(x), 1)
                worst = max(worst, float(np.max(np.abs(ours - ref))))
    _report("06 classical-oracle-equivalence", worst <= 1e-12, f"max dev {worst:.3g}")


def test_criterion_07_closed_form_bernstein_agreement():
    from gtbsplines import ExponentialFamily, SectionSpace
    from gtbsplines.bernstein import build_bernstein

    from oracles import closed_form_bernstein

    sections = [
        SectionSpace(0.0, 1.0, PolynomialFamily(1)),
        SectionSpace(0.0, 1.0, PolynomialFamily(3)),
        SectionSpace(-0.5, 2.0, PolynomialFamily(5)),
        SectionSpace(0.0, 1.0, TrigonometricFamily(1, 2.0)),
        SectionSpace(1.0, 2.5, TrigonometricFamily(2, math.pi / 2)),
        SectionSpace(0.0, 1.0, ExponentialFamily(1, 4.0)),
        SectionSpace(2.5, 5.0, ExponentialFamily(2, 10.0)),
    ]
    worst = 0.0
    for section in sections:
        closed = closed_form_bernstein(section)
        hermite = build_bernstein(section)
        max_order = min(2, section.degree)
        for x in np.linspace(section.x_lo, section.x_hi, 50):
            got = closed.evaluate(float(x), max_order)
            ref = hermite.evaluate(float(x), max_order)
            worst = max(worst, float(np.max(np.abs(got - ref)) / max(1.0, np.max(np.abs(ref)))))
    _report("07 closed-form-bernstein", worst <= 1e-12, f"max rel dev {worst:.3g}")


def test_criterion_08_recurrence_oracle_agreement():
    spaces = [
        build_space(mixed_family_demo_config()),
        build_space(
            SpaceConfig([0.0, 1.0, 2.0, 3.0], [TrigonometricFamily(3, 1.0)] * 3, [2, 2])
        ),
    ]
    worst = 0.0
    for space in spaces:
        a, b = space.domain
        for x in np.linspace(a, b, 40):
            vals = eval_basis(space, float(x))[:, 0]
            for k in range(1, space.n_basis + 1):
                worst = max(worst, abs(local_recurrence_eval(space, k, float(x)) - vals[k - 1]))
    _report("08 recurrence-oracle", worst <= 1e-7, f"max dev {worst:.3g}")


def test_criterion_09_knot_insertion_preserves_curves():
    rng = np.random.default_rng(9)
    space = build_space(mixed_family_demo_config())
    xs = np.linspace(*space.domain, 200)
    worst_dev, worst_row = 0.0, 0.0
    for _ in range(20):
        control = rng.normal(size=(space.n_basis, 2))
        curve = SplineCurve(space, control)
        for x_new in (1.0, 3.7):
            refined, transfer = insert_knot(space, x_new)
            fine = SplineCurve(refined, transfer @ control)
            worst_row = max(worst_row, float(np.max(np.abs(transfer.sum(axis=1) - 1.0))))
            for x in xs:
                worst_dev = max(
                    worst_dev, float(np.max(np.abs(curve(float(x)) - fine(float(x)))))
                )
    ok = worst_dev <= 1e-12 and worst_row <= 1e-13
    _report("09 knot-insertion", ok, f"max curve dev {worst_dev:.3g}, row sum dev {worst_row:.3g}")


def test_criterion_10_profile_geometry():
    config = conic_profile_demo_config()
    space = build_space(config)
    curve = SplineCurve(space, config.control_points)
    a, b = space.domain
    ok = True
    worst_arc = 0.0
    for x in np.linspace(a, 0.0, 300):
        X, Y = curve(float(x))
        worst_arc = max(worst_arc, abs((X - 2.0) ** 2 + Y**2 - 1.0))
    ok &= worst_arc <= 1e-10
    worst_line = max(abs(curve(float(x))[1] - 1.0) for x in np.linspace(0.0, 2.0, 300))
    ok &= worst_line <= 1e-12
    worst_arc2 = 0.0
    for x in np.linspace(2.0, b, 300):
        X, Y = curve(float(x))
        worst_arc2 = max(worst_arc2, abs(X**2 + (Y - 3.0) ** 2 - 4.0))
    ok &= worst_arc2 <= 1e-10
    for i in (1, 2):
        d1_jump = jump_vector(space, i, 1) @ config.control_points
        ok &= float(np.max(np.abs(d1_jump))) <= 1e-9
    s = math.sqrt(2.0)
    ok &= bool(np.max(np.abs(curve(a) - [2 + s / 2, -s / 2])) <= 1e-12)
    ok &= bool(np.max(np.abs(curve(b) - [-2.0, 3.0])) <= 1e-12)
    _report(
        "10 profile-geometry",
        bool(ok),
        f"residuals {worst_arc:.3g} {worst_line:.3g} {worst_arc2:.3g}",
    )


def test_criterion_11_unit_integral_scaling():
    rng = np.random.default_rng(11)
    spaces = [build_space(mixed_family_demo_config()), build_space(conic_profile_demo_config())]
    spaces += [build_space(random_config(rng)) for _ in range(3)]
    ok = True
    worst_total, worst_unit = 0.0, 0.0
    for space in spaces:
        scalings = unit_integral_scaling(space)
        a, b = space.domain
        worst_total = max(worst_total, abs(float(np.sum(1.0 / scalings)) - (b - a)))
        kv = space.knots
        for k in range(1, space.n_basis + 1):
            lo, hi = float(kv.u[k - 1]), float(kv.v[k - 1])
            inner = [x for x in space.partition.breakpoints if lo < x < hi]
            integral, _ = quad(
                lambda x, k=k: eval_basis(space, float(x))[k - 1, 0],
                lo,
                hi,
                points=inner or None,
                limit=200,
            )
            worst_unit = max(worst_unit, abs(float(scalings[k - 1]) * integral - 1.0))
    ok = worst_total <= 1e-10 and worst_unit <= 1e-10
    _report(
        "11 unit-integral-scaling",
        ok,
        f"length dev {worst_total:.3g}, unit dev {worst_unit:.3g}",
    )
