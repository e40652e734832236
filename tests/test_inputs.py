"""One rule for every number a caller gives the package.

Each row of ``ROWS`` names a public entry point, the argument it reads and
the library error class it raises for a value that is not a number of the
argument's kind.  Every row is run with a numeric string, ``True``,
``np.bool_(True)``, ``None`` and ``1+0j``; an integer argument also with
``2.5``, a point argument also with a 2-D array and a string array.  None
may be converted, truncated or end in a builtin error.  Each row also runs
with its valid value, so that a case reaches the reading and not a later
check.  A sequence argument (``... entry``) takes the value as one of its
entries.  ``test_every_public_name_has_a_row`` keeps the table complete: a
public function or class needs a row, or a place on ``EXEMPT`` with its
reason.
"""

import functools
import importlib
import inspect
import math
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

from gtbsplines import (
    ConfigError,
    DomainError,
    EctViolationError,
    ExponentialFamily,
    GeneralizedPolynomialFamily,
    InsertionError,
    InvalidFamilyError,
    OrderError,
    Partition,
    PolynomialFamily,
    SectionSpace,
    SpaceConfig,
    SplineCurve,
    TrigonometricFamily,
    build_bernstein,
    build_knot_vectors,
    build_space,
    eval_basis,
    eval_curve,
    insert_knot,
    jump_vector,
    mixed_family_demo_config,
)
from gtbsplines.config import family_from_dict
from gtbsplines.oracle import (
    RecurrenceEvaluator,
    cox_de_boor_basis,
    cox_de_boor_knots,
    local_recurrence_eval,
)
from gtbsplines.sections import weight_system


class Row(NamedTuple):
    name: str  # the entry point; before a dot, the public name it covers
    argument: str
    kind: str  # "number", "integer", "points" or "callable"
    error: type
    valid: object
    call: Callable


NOT_NUMBERS = {
    "numeric-string": "0.5",
    "bool": True,
    "numpy-bool": np.bool_(True),
    "none": None,
    "complex": 1 + 0j,
}
BAD = {
    "number": NOT_NUMBERS,
    "integer": {**NOT_NUMBERS, "numeric-string": "1", "fraction": 2.5},
    "points": {
        **NOT_NUMBERS,
        "2-d": np.full((2, 2), 0.5),
        "string-array": np.array(["0.5", "0.6"]),
    },
    "callable": NOT_NUMBERS,
}

# valid value of a custom pair's returning row: u(x, d) = e^x
VALID_PAIR = "e^x"
EXP2 = lambda x, d: 2.0**d * math.exp(2.0 * x)  # noqa: E731
KNOTS = [0.0, 0.0, 0.0, 1.0, 2.0, 2.0, 2.0]  # quadratic, C^1 at x = 1


@functools.cache
def space():
    return build_space(mixed_family_demo_config())


@functools.cache
def evaluator():
    return RecurrenceEvaluator(space())


def curve():
    return SplineCurve(space(), np.ones((space().n_basis, 2)))


def section():
    return SectionSpace(0.0, 1.0, PolynomialFamily(2))


def partition():
    return Partition((0.0, 1.0, 2.0))


def pair_section(value):
    """A custom-pair section on [0, 1] whose ``u`` returns ``value`` at every
    point and order, or e^x for ``VALID_PAIR``."""
    u = (lambda x, d: math.exp(x)) if value is VALID_PAIR else (lambda x, d: value)
    return SectionSpace(0.0, 1.0, GeneralizedPolynomialFamily(3, u, EXP2, name="exp-pair"))


def control_net(value, rows):
    return [[value, 0.0]] + [[0.0, 0.0]] * (rows - 1)


ROWS = [
    # points
    Row("eval_basis", "x", "points", DomainError, 0.5, lambda v: eval_basis(space(), v)),
    Row("eval_curve", "x", "points", DomainError, 0.5, lambda v: eval_curve(curve(), v)),
    Row("Partition.locate", "x", "points", DomainError, 0.5, lambda v: partition().locate(v)),
    Row(
        "SectionSpace.span_derivatives", "x", "points", DomainError, 0.5,
        lambda v: section().span_derivatives(v, 0),
    ),
    Row(
        "BernsteinBasis.evaluate", "x", "points", DomainError, 0.5,
        lambda v: space().bases[0].evaluate(v),
    ),
    Row("weight_system", "xs", "points", DomainError, 0.5, lambda v: weight_system(section(), v)),
    Row(
        "cox_de_boor_basis", "x", "points", DomainError, 0.5,
        lambda v: cox_de_boor_basis(KNOTS, 2, v),
    ),
    Row(
        "local_recurrence_eval", "x", "points", DomainError, 0.5,
        lambda v: local_recurrence_eval(space(), 1, v),
    ),
    Row(
        "RecurrenceEvaluator.evaluate", "x", "points", DomainError, 0.5,
        lambda v: evaluator().evaluate(1, v),
    ),
    # derivative orders
    Row("eval_basis", "max_order", "integer", OrderError, 1, lambda v: eval_basis(space(), 0.5, v)),
    Row("eval_curve", "order", "integer", OrderError, 1, lambda v: eval_curve(curve(), 0.5, v)),
    Row(
        "SectionSpace.span_derivatives", "max_order", "integer", OrderError, 1,
        lambda v: section().span_derivatives(0.5, v),
    ),
    Row("jump_vector", "order", "integer", OrderError, 1, lambda v: jump_vector(space(), 1, v)),
    Row(
        "cox_de_boor_basis", "max_order", "integer", OrderError, 1,
        lambda v: cox_de_boor_basis(KNOTS, 2, 0.5, v),
    ),
    # indices
    Row("jump_vector", "i", "integer", DomainError, 1, lambda v: jump_vector(space(), v, 0)),
    Row(
        "KnotVectors.supersmoothness", "k", "integer", ConfigError, 1,
        lambda v: space().knots.supersmoothness(v),
    ),
    Row(
        "local_recurrence_eval", "k", "integer", ConfigError, 1,
        lambda v: local_recurrence_eval(space(), v, 0.5),
    ),
    # breakpoints, section ends and insertion points
    Row(
        "Partition", "breakpoint entry", "number", InvalidFamilyError, 1.0,
        lambda v: Partition((0.0, v, 2.0)),
    ),
    Row(
        "SectionSpace", "x_lo", "number", InvalidFamilyError, -1.0,
        lambda v: SectionSpace(v, 1.0, PolynomialFamily(2)),
    ),
    Row(
        "SectionSpace", "x_hi", "number", InvalidFamilyError, 2.0,
        lambda v: SectionSpace(0.0, v, PolynomialFamily(2)),
    ),
    Row(
        "SectionSpace.restricted", "x_lo", "number", DomainError, 0.5,
        lambda v: section().restricted(v, 1.0),
    ),
    Row("insert_knot", "x_new", "number", InsertionError, 0.5, lambda v: insert_knot(space(), v)),
    Row(
        "SplineCurve.insert_knot", "x_new", "number", InsertionError, 0.5,
        lambda v: curve().insert_knot(v),
    ),
    Row(
        "SpaceConfig", "breakpoint entry", "number", ConfigError, 1.0,
        lambda v: SpaceConfig([0.0, v, 2.0], [PolynomialFamily(2)] * 2, [1]),
    ),
    Row(
        "cox_de_boor_knots", "breakpoint entry", "number", ConfigError, 1.0,
        lambda v: cox_de_boor_knots([0.0, v, 2.0], 2, [1]),
    ),
    Row(
        "cox_de_boor_basis", "knot entry", "number", ConfigError, 1.0,
        lambda v: cox_de_boor_basis([0.0, 0.0, 0.0, v, 2.0, 2.0, 2.0], 2, 0.5),
    ),
    # degrees and smoothness
    Row("PolynomialFamily", "degree", "integer", InvalidFamilyError, 2, PolynomialFamily),
    Row(
        "TrigonometricFamily", "degree", "integer", InvalidFamilyError, 3,
        lambda v: TrigonometricFamily(v, 1.0),
    ),
    Row(
        "ExponentialFamily", "degree", "integer", InvalidFamilyError, 3,
        lambda v: ExponentialFamily(v, 1.0),
    ),
    Row(
        "GeneralizedPolynomialFamily", "degree", "integer", InvalidFamilyError, 3,
        lambda v: GeneralizedPolynomialFamily(v, EXP2, EXP2),
    ),
    Row(
        "build_knot_vectors", "degree entry", "integer", ConfigError, 2,
        lambda v: build_knot_vectors(partition(), [v, 2], [-1, 1, -1]),
    ),
    Row(
        "build_knot_vectors", "smoothness entry", "integer", ConfigError, 1,
        lambda v: build_knot_vectors(partition(), [2, 2], [-1, v, -1]),
    ),
    Row(
        "SpaceConfig", "smoothness entry", "integer", ConfigError, 1,
        lambda v: SpaceConfig([0.0, 1.0, 2.0], [PolynomialFamily(2)] * 2, [v]),
    ),
    Row(
        "family_from_dict", "degree", "integer", ConfigError, 2,
        lambda v: family_from_dict({"family": "exponential", "degree": v, "omega": 1.0}),
    ),
    Row(
        "mixed_family_demo_config", "smoothness entry", "integer", ConfigError, 2,
        lambda v: mixed_family_demo_config((v, 2)),
    ),
    Row(
        "cox_de_boor_knots", "degree", "integer", ConfigError, 2,
        lambda v: cox_de_boor_knots([0.0, 1.0, 2.0], v, [1]),
    ),
    Row(
        "cox_de_boor_knots", "smoothness entry", "integer", ConfigError, 1,
        lambda v: cox_de_boor_knots([0.0, 1.0, 2.0], 2, [v]),
    ),
    Row(
        "cox_de_boor_basis", "degree", "integer", ConfigError, 2,
        lambda v: cox_de_boor_basis(KNOTS, v, 0.5),
    ),
    # family parameters
    Row(
        "TrigonometricFamily", "omega", "number", InvalidFamilyError, 1.0,
        lambda v: TrigonometricFamily(3, v),
    ),
    Row(
        "ExponentialFamily", "omega", "number", InvalidFamilyError, 1.0,
        lambda v: ExponentialFamily(3, v),
    ),
    Row(
        "family_from_dict", "omega", "number", ConfigError, 1.0,
        lambda v: family_from_dict({"family": "exponential", "degree": 2, "omega": v}),
    ),
    # control nets
    Row(
        "SplineCurve", "control entry", "number", ConfigError, 0.5,
        lambda v: SplineCurve(space(), control_net(v, space().n_basis)),
    ),
    Row(
        "SpaceConfig", "control entry", "number", ConfigError, 0.5,
        lambda v: SpaceConfig([0.0, 1.0, 2.0], [PolynomialFamily(2)] * 2, [1], control_net(v, 4)),
    ),
    # custom pairs: the callables, and the numbers they return
    Row(
        "GeneralizedPolynomialFamily", "u", "callable", InvalidFamilyError, EXP2,
        lambda v: GeneralizedPolynomialFamily(3, v, EXP2),
    ),
    Row(
        "GeneralizedPolynomialFamily", "v", "callable", InvalidFamilyError, EXP2,
        lambda v: GeneralizedPolynomialFamily(3, EXP2, v),
    ),
    Row(
        "build_bernstein", "custom u return", "number", EctViolationError, VALID_PAIR,
        lambda v: build_bernstein(pair_section(v)),
    ),
    Row(
        "SectionSpace.span_derivatives", "custom u return at a point", "number", EctViolationError,
        VALID_PAIR,
        lambda v: pair_section(v).span_derivatives(0.5, 1),
    ),
    Row(
        "SectionSpace.span_derivatives", "custom u return at points", "number", EctViolationError,
        VALID_PAIR,
        lambda v: pair_section(v).span_derivatives(np.array([0.25, 0.5]), 1),
    ),
]


# Calls that earlier versions of the package accepted silently, truncated,
# or let end in a builtin error.
REPORTED = {
    "eval_basis-numeric-string": (DomainError, lambda: eval_basis(space(), "1.0")),
    "eval_basis-boolean-list": (DomainError, lambda: eval_basis(space(), [True])),
    "eval_basis-none": (DomainError, lambda: eval_basis(space(), None)),
    "partition-boolean": (InvalidFamilyError, lambda: Partition((True, 2))),
    "section-letter": (InvalidFamilyError, lambda: SectionSpace("a", 1, PolynomialFamily(2))),
    "knot-vectors-fractional-degree": (
        ConfigError,
        lambda: build_knot_vectors(partition(), [2.7, 2], [-1, 1, -1]),
    ),
    "knot-vectors-fractional-smoothness": (
        ConfigError,
        lambda: build_knot_vectors(partition(), [2, 2], [-1, 0.5, -1]),
    ),
    "supersmoothness-fraction": (ConfigError, lambda: space().knots.supersmoothness(2.5)),
    "control-net-boolean": (
        ConfigError,
        lambda: SplineCurve(space(), [[True, 0.0]] * space().n_basis),
    ),
    "cox-de-boor-fractional-smoothness": (
        ConfigError,
        lambda: cox_de_boor_knots([0, 1, 2], 3, [0.5]),
    ),
    "recurrence-numeric-string": (DomainError, lambda: local_recurrence_eval(space(), 1, "0.5")),
    "weights-outside-the-section": (DomainError, lambda: weight_system(section(), [10.0])),
    "custom-pair-number-u": (InvalidFamilyError, lambda: GeneralizedPolynomialFamily(3, 1, EXP2)),
    "custom-pair-u-returns-none": (EctViolationError, lambda: build_bernstein(pair_section(None))),
}


@pytest.mark.parametrize("error, call", REPORTED.values(), ids=REPORTED.keys())
def test_reported_case_raises_a_library_error(error, call):
    with pytest.raises(error):
        call()


def _row_id(row: Row) -> str:
    return f"{row.name}-{row.argument}".replace(" ", "-")


CASES = [
    pytest.param(row, value, id=f"{_row_id(row)}-{label}")
    for row in ROWS
    for label, value in BAD[row.kind].items()
]


@pytest.mark.parametrize("row, value", CASES)
def test_value_that_is_no_number_raises_the_rows_error(row, value):
    with pytest.raises(row.error):
        row.call(value)


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_valid_value_is_read(row):
    row.call(row.valid)


def test_custom_pair_return_names_the_section():
    section = pair_section(None)
    message = f"u(x, 0) of {section!r} must be a number, got None"
    assert "name='exp-pair'" in message and "0x" not in message
    with pytest.raises(EctViolationError, match=f"^{re.escape(message)}$"):
        build_bernstein(section)
    message = f"u(x, 0) of {section!r} must be numbers, got object entries"
    with pytest.raises(EctViolationError, match=f"^{re.escape(message)}$"):
        section.span_derivatives(np.array([0.25, 0.5]), 0)


def test_ragged_rows_are_refused(mixed_space):
    ragged = [[0.5, 0.0], [0.5]]
    with pytest.raises(ConfigError, match="^control net must be rows of numbers: "):
        SplineCurve(mixed_space, ragged + [[0.0, 0.0]] * (mixed_space.n_basis - 2))
    with pytest.raises(ConfigError, match="^control points must be rows of numbers: "):
        SpaceConfig([0.0, 1.0, 2.0], [PolynomialFamily(2)] * 2, [1], ragged)
    with pytest.raises(DomainError, match="^points must be numbers: "):
        eval_basis(mixed_space, ragged)
    with pytest.raises(ConfigError, match="^knots must be numbers: "):
        cox_de_boor_basis([KNOTS, [0.0]], 2, 0.5)


def test_every_numeric_type_reads_alike(mixed_space):
    # An int, a whole-number float and numpy scalars and arrays of either
    # are read as the same number, bit for bit.
    want = eval_basis(mixed_space, 2.0, 1)
    for x in (2, np.float64(2.0), np.int64(2), np.array(2.0), np.float32(2.0)):
        assert np.array_equal(eval_basis(mixed_space, x, 1), want)
    points = [0.0, 1.0, 2.5]
    want = eval_basis(mixed_space, np.array(points))
    for xs in (points, [0, 1, 2.5], tuple(points), np.array(points, dtype=np.float32)):
        assert np.array_equal(eval_basis(mixed_space, xs), want)
    assert Partition((0, 1, 2)) == Partition((0.0, np.float64(1.0), np.int64(2)))
    kv_args = Partition((0.0, 1.0, 2.0)), [2, 3], [-1, 1, -1]
    want = build_knot_vectors(*kv_args)
    kv = build_knot_vectors(kv_args[0], [2.0, np.int64(3)], (-1, np.float64(1.0), -1))
    assert (kv.degrees, kv.smoothness) == (want.degrees, want.smoothness)
    assert mixed_space.knots.supersmoothness(np.int64(2)) == mixed_space.knots.supersmoothness(2)
    net = np.arange(2 * mixed_space.n_basis).reshape(-1, 2)
    assert np.array_equal(SplineCurve(mixed_space, net).control, net.astype(float))
    assert np.array_equal(cox_de_boor_knots([0, 1, 2], 2.0, [np.int64(1)]), KNOTS)
    section = SectionSpace(0.0, 1.0, TrigonometricFamily(3, 1.0))
    assert np.array_equal(weight_system(section, 0.5), weight_system(section, [0.5]))


# Public names that read no number a caller gives them, with the reason.
EXEMPT = {
    "ExtractionMatrix": "the cascade's output; its window() is an index kernel on the blocks",
    "GTSplineSpace": "assembled by build_space from parts that read their numbers",
    "SmoothnessConstraints": "pairs the Bernstein bases with the knot vectors",
    "apply_factor": "per-constraint kernel: applies a factor the cascade computed",
    "build_constraints": "takes Bernstein bases and knot vectors, no number",
    "build_space": "takes a SpaceConfig, which reads its numbers (its rows)",
    "conic_profile_demo_config": "takes no argument",
    "extraction_operator": "takes the constraints build_constraints paired",
    "family_to_dict": "writes the numbers a family read when it was built",
    "jump_rows": "per-constraint kernel: reads the cascade's running operator",
    "normalized_pair": "per-point kernel: reads points the weights and the oracle made",
    "nullspace_step": "per-constraint kernel: reads a jump the cascade computed",
    "unit_integral_scaling": "takes a space, no number",
}
MODULES = ["gtbsplines", "gtbsplines.sections", "gtbsplines.oracle", "gtbsplines.config"]


def _public_names() -> set[str]:
    names = set()
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) and issubclass(obj, (Exception, Warning)):
                continue  # an error or a warning takes a message, not a number
            if inspect.isfunction(obj) or inspect.isclass(obj):
                names.add(name)
    return names


def test_every_public_name_has_a_row():
    covered = {row.name.split(".")[0] for row in ROWS}
    public = _public_names()
    assert sorted(public - covered - set(EXEMPT)) == []
    assert sorted(set(EXEMPT) - public) == [], "exemption for a name that is not public"
    assert sorted(set(EXEMPT) & covered) == [], "exempt name that has a row"
