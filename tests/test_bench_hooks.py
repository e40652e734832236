"""The benchmark's span tracer rebinds library names from outside the
package, and its workload calls library functions and reads operator
attributes; a renamed or dropped name would break only the benchmark run,
so these tests check that every name either one uses still exists."""

import dataclasses
import importlib
import importlib.util
import json
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


# (module, function) pairs that bench/workload.py calls
WORKLOAD_CALLS = [
    ("space", "build_space"),
    ("space", "eval_basis"),
    ("space", "insert_knot"),
    ("oracle", "local_recurrence_eval"),
    ("oracle", "cox_de_boor_knots"),
    ("oracle", "cox_de_boor_basis"),
    ("cli", "main"),
]


@pytest.mark.parametrize("module, name", WORKLOAD_CALLS)
def test_every_workload_call_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"gtbsplines.{module}"), name, None))


def test_operator_attributes_the_bench_reads_exist():
    from gtbsplines import ExtractionMatrix, GTSplineSpace

    assert isinstance(GTSplineSpace.__dict__.get("operator"), property)
    assert isinstance(ExtractionMatrix.__dict__.get("operator"), property)
    assert "factors" in {f.name for f in dataclasses.fields(ExtractionMatrix)}


def test_oracle_cache_can_be_emptied():
    from gtbsplines import oracle

    assert callable(oracle._EVALUATOR_CACHE.clear)


# Per-layer spans of the cascade's entry points: a call that stops reaching
# the wrapped name would read 0 in the bench report, not fail.
CASCADE_SPANS = {"extraction.knot_vectors", "extraction.constraints", "extraction.cascade"}


def test_traced_build_records_cascade(tracer):
    from gtbsplines import space
    from gtbsplines.config import mixed_family_demo_config

    original = space.extraction_operator
    built = space.build_space(mixed_family_demo_config())
    for call in (
        lambda: space.build_space(mixed_family_demo_config()),
        lambda: space.insert_knot(built, 3.7),
    ):
        run = tracer.Tracer()
        run.install()
        try:
            call()
        finally:
            run.uninstall()
        assert CASCADE_SPANS <= set(run.names)
        assert not any(run.raised)
        assert run.operator_sizes
    assert space.extraction_operator is original


def test_traced_verify_after_untraced_records_verb_spans(tracer, tmp_path, capsys):
    # The first call builds the CLI's parser untraced; the traced call must
    # still reach the verb, the build and the oracle through the names the
    # tracer rebinds.
    from gtbsplines import cli
    from gtbsplines.config import mixed_family_demo_config

    path = tmp_path / "space.json"
    path.write_text(json.dumps(mixed_family_demo_config().to_dict()))
    assert cli.main(["verify", str(path)]) == 0
    run = tracer.Tracer()
    run.install()
    try:
        assert cli.main(["verify", str(path)]) == 0
    finally:
        run.uninstall()
    assert "FAIL" not in capsys.readouterr().out
    assert {"cli.verify", "space.build"} <= set(run.names)
    assert any(name.startswith("oracle.") for name in run.names)
