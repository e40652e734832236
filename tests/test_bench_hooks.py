"""The benchmark's span tracer rebinds library names from outside the
package; a renamed or dropped name would break only the traced benchmark
run, so this test checks that every name it wraps still exists."""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(tracer):
    hooks = tracer.SPANS + tracer.COUNTS
    assert hooks
    for name, path, attr in hooks:
        owner = tracer._owner(path)
        assert attr in owner.__dict__, f"{name}: {path} has no attribute {attr!r}"


def test_oracle_cache_can_be_emptied():
    from gtbsplines import oracle

    assert callable(oracle._EVALUATOR_CACHE.clear)


def test_traced_build_records_cascade(tracer):
    from gtbsplines import space
    from gtbsplines.config import mixed_family_demo_config

    original = space.extraction_operator
    run = tracer.Tracer()
    run.install()
    try:
        space.build_space(mixed_family_demo_config())
    finally:
        run.uninstall()
    assert "extraction.cascade" in run.names
    assert run.operator_sizes
    assert space.extraction_operator is original
