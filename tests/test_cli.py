import json
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtbsplines.cli as cli
from gtbsplines import (
    ConfigError,
    ExtractionMatrix,
    GTSplineSpace,
    GeneralizedPolynomialFamily,
    PolynomialFamily,
    SpaceConfig,
    SplineCurve,
    TrigonometricFamily,
    build_space,
    insert_knot,
    jump_vector,
)
from gtbsplines.cli import _fmt_row, _format, _space_summary, main
from gtbsplines.config import (
    conic_profile_demo_config,
    family_from_dict,
    family_to_dict,
    mixed_family_demo_config,
)

from helpers import (
    bench_generator,
    random_config,
    reference_row,
    reference_sample_csv,
    reference_space_summary,
    uniform_cubic_config,
)

DEMO_DICT = {
    "breakpoints": [0.0, 1.0, 2.5, 5.0],
    "sections": [
        {"family": "polynomial", "degree": 2},
        {"family": "trigonometric", "degree": 3, "omega": math.pi / 2},
        {"family": "exponential", "degree": 4, "omega": 10.0},
    ],
    "smoothness": [2, 2],
}


# the checks of ``verify`` before its oracle, in the order it prints them
VERIFY_CHECKS = [
    "partition-of-unity",
    "local-support",
    "smoothness-jumps",
    "extraction-column-sums",
    "extraction-nonnegative",
    "unit-integral-total",
]


@pytest.fixture
def demo_config_path(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(DEMO_DICT))
    return str(path)


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


class TestBuild:
    def test_summary_triples(self, demo_config_path, tmp_path):
        out = tmp_path / "summary.txt"
        assert main(["build", demo_config_path, str(out)]) == 0
        text = out.read_text()
        assert "N 6\nM 12\nO 6\n" in text
        assert "u 0 0 0 1 2.5 2.5" in text
        assert "v 2.5 5 5 5 5 5" in text
        # triples rows: k u v r_u r_v
        rows = [line for line in text.splitlines() if line[:1].isdigit()]
        assert rows[0].split() == ["1", "0", "2.5", "-1", "2"]
        assert rows[5].split() == ["6", "2.5", "5", "3", "-1"]

    def test_invalid_smoothness_names_breakpoint(self, tmp_path, capsys):
        bad = dict(DEMO_DICT, smoothness=[3, 2])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["build", str(path), str(tmp_path / "x.txt")]) == 2
        err = capsys.readouterr().err
        assert "x_1" in err

    def test_overflowing_degree_is_one_error_line(self, tmp_path, capfd):
        cfg = {
            "breakpoints": [0.0, 1.0],
            "sections": [{"family": "polynomial", "degree": 200}],
            "smoothness": [],
        }
        path = tmp_path / "p200.json"
        path.write_text(json.dumps(cfg))
        assert main(["build", str(path), str(tmp_path / "x.txt")]) == 1
        out, err = capfd.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "degree=200" in err

    def test_refused_allocation_is_one_error_line(self, demo_config_path, tmp_path, capfd, monkeypatch):
        # a MemoryError without a message still gives a readable line
        import gtbsplines.cli as cli

        def refused(config):
            raise MemoryError()

        monkeypatch.setattr(cli, "build_space", refused)
        assert main(["build", demo_config_path, str(tmp_path / "x.txt")]) == 1
        assert capfd.readouterr() == ("", "error: out of memory\n")

    @pytest.mark.parametrize(
        "breakpoints, section",
        [
            ([0.0, 1.0], {"family": "exponential", "degree": 3, "omega": 1e200}),
            ([0.0, 1.0], {"family": "exponential", "degree": 4, "omega": 1e80}),
            ([0.0, 1e-201], {"family": "trigonometric", "degree": 3, "omega": 1e200}),
        ],
        ids=["exp-1e200", "exp-p4-1e80", "trig-1e200"],
    )
    def test_overflowing_omega_is_one_error_line(self, breakpoints, section, tmp_path, capfd):
        cfg = {"breakpoints": breakpoints, "sections": [section], "smoothness": []}
        path = tmp_path / "omega.json"
        path.write_text(json.dumps(cfg))
        assert main(["build", str(path), str(tmp_path / "x.txt")]) == 1
        out, err = capfd.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: non-finite endpoint")
        assert f"omega={section['omega']!r}" in err

    def test_single_patch_reports_identity(self, tmp_path):
        cfg = {
            "breakpoints": [0.0, 1.0],
            "sections": [{"family": "polynomial", "degree": 3}],
            "smoothness": [],
        }
        path = tmp_path / "single.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out.txt"
        assert main(["build", str(path), str(out)]) == 0
        assert "extraction identity" in out.read_text()


@pytest.mark.parametrize(
    "verb",
    [
        ["build", "b.txt"],
        ["sample", "--csv", "s.csv"],
        ["verify"],
        ["insert", "--at", "0.25", "m.csv"],
    ],
    ids=lambda verb: verb[0],
)
def test_overflowing_domain_length_is_one_error_line(verb, tmp_path, capfd, monkeypatch):
    # both ends are finite, b - a is not
    cfg = {
        "breakpoints": [-1e308, 1e308],
        "sections": [{"family": "polynomial", "degree": 3}],
        "smoothness": [],
    }
    monkeypatch.chdir(tmp_path)
    (tmp_path / "space.json").write_text(json.dumps(cfg))
    assert main([verb[0], "space.json", *verb[1:]]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err == "error: domain [-1e+308, 1e+308] too long: b - a overflows\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["space.json"]


@pytest.mark.parametrize(
    "verb",
    [
        ["build", "b.txt"],
        ["sample", "--csv", "s.csv"],
        ["verify"],
        ["insert", "--at", "0.5", "m.csv"],
    ],
    ids=lambda verb: verb[0],
)
@pytest.mark.parametrize("family", ["trigonometric", "exponential"])
def test_underflowing_omega_length_is_one_error_line(family, verb, tmp_path, capfd, monkeypatch):
    # omega * length = 1e-200 * 1e-200 underflows to 0.0
    cfg = {
        "breakpoints": [-1.0, 0.0, 1e-200, 1.0],
        "sections": [
            {"family": "polynomial", "degree": 3},
            {"family": family, "degree": 3, "omega": 1e-200},
            {"family": "polynomial", "degree": 3},
        ],
        "smoothness": [1, 1],
    }
    monkeypatch.chdir(tmp_path)
    (tmp_path / "space.json").write_text(json.dumps(cfg))
    assert main([verb[0], "space.json", *verb[1:]]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: omega*length of SectionSpace([0.0, 1e-200]") and "underflows to 0" in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["space.json"]


def _space_text(**changes) -> str:
    """A two-interval space file with the given top-level entries replaced."""
    space = {
        "breakpoints": [0.0, 1.0, 2.0],
        "sections": [{"family": "polynomial", "degree": 2}] * 2,
        "smoothness": [1],
    }
    return json.dumps({**space, **changes})


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read space.json"),
        ("{not json", "space.json is not valid JSON"),
        ("[0.0, 1.0]", "malformed space description"),
        (json.dumps({"breakpoints": [0.0, 1.0], "sections": []}), "malformed space description"),
        (_space_text(sections=2), "malformed space description"),
        (_space_text(sections=[{"family": "polynomial"}] * 2), "malformed section entry"),
        (_space_text(sections=[2, 2]), "malformed section entry"),
        (_space_text(sections=[{"family": "spline", "degree": 2}] * 2), "unknown section family 'spline'"),
        (_space_text(sections=[{"family": "exponential", "degree": 2}] * 2), "needs an omega parameter"),
        (
            _space_text(sections=[{"family": "exponential", "degree": 2, "omega": None}] * 2),
            "section omega must be a number, got None",
        ),
        (_space_text(breakpoints=[0.0], sections=[], smoothness=[]), "need at least two breakpoints"),
        (_space_text(sections=[{"family": "polynomial", "degree": 2}]), "2 intervals but 1 section entries"),
        (_space_text(smoothness=[1, 1]), "1 interior breakpoints but 2 smoothness entries"),
        (_space_text(control_points=[[0.0, 0.0], [1.0]]), "control points must be rows of numbers: "),
        (
            _space_text(control_points=[[0.0, math.nan]] + [[0.0, 0.0]] * 3),
            "control net must be rows of finite numbers",
        ),
        (
            _space_text(control_points=[[-math.inf, 0.0]] + [[0.0, 0.0]] * 3),
            "control net must be rows of finite numbers",
        ),
    ],
    ids=[
        "missing-file",
        "bad-json",
        "not-an-object",
        "missing-key",
        "sections-not-a-list",
        "section-without-degree",
        "section-not-an-object",
        "unknown-family",
        "missing-omega",
        "null-omega",
        "one-breakpoint",
        "section-count",
        "smoothness-count",
        "ragged-control-points",
        "nan-control-point",
        "infinite-control-point",
    ],
)
def test_malformed_space_file_is_one_error_line(text, message, tmp_path, capfd, monkeypatch):
    # exit 2 with one error line and no traceback; nothing is written
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "space.json").write_text(text)
    before = sorted(path.name for path in tmp_path.iterdir())
    assert main(["build", "space.json", "b.txt"]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert sorted(path.name for path in tmp_path.iterdir()) == before


def test_verify_refuses_a_nonfinite_control_net(tmp_path, capfd):
    # ``verify`` reads the same file as ``build``: exit 2, one error line
    control = [[0.0, 0.0]] * 3 + [[0.0, math.nan]]
    (tmp_path / "space.json").write_text(_space_text(control_points=control))
    assert main(["verify", str(tmp_path / "space.json")]) == 2
    out, err = capfd.readouterr()
    assert out == "" and err == "error: control net must be rows of finite numbers\n"


def test_custom_family_has_no_file_representation():
    for family in mixed_family_demo_config().sections:
        assert family_from_dict(family_to_dict(family)) == family
    custom = GeneralizedPolynomialFamily(2, u=lambda x, d: x, v=lambda x, d: x, name="pair")
    with pytest.raises(ConfigError, match="has no file representation"):
        family_to_dict(custom)
    with pytest.raises(ConfigError, match="has no file representation"):
        SpaceConfig([0.0, 1.0], [custom], []).to_dict()


class TestSample:
    def test_row_sums_and_blocks(self, demo_config_path, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sample", demo_config_path, "--n", "101", "--deriv", "2", "--csv", str(out)]) == 0
        header, data = _read_csv(out)
        assert header[:7] == ["x", "B1", "B2", "B3", "B4", "B5", "B6"]
        assert header[7] == "dB1" and header[13] == "d2B1"
        sums = data[:, 1:7].sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12

    def test_two_samples_hit_endpoints(self, demo_config_path, tmp_path):
        out = tmp_path / "s2.csv"
        assert main(["sample", demo_config_path, "--n", "2", "--csv", str(out)]) == 0
        _, data = _read_csv(out)
        assert data[0, 0] == 0.0 and data[1, 0] == 5.0

    def test_deterministic_output(self, demo_config_path, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sample", demo_config_path, "--n", "57", "--deriv", "1", "--csv", str(out1)])
        main(["sample", demo_config_path, "--n", "57", "--deriv", "1", "--csv", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_round_trip_precision(self, demo_config_path, tmp_path):
        from gtbsplines import build_space, eval_basis

        out = tmp_path / "r.csv"
        main(["sample", demo_config_path, "--n", "11", "--csv", str(out)])
        _, data = _read_csv(out)
        space = build_space(mixed_family_demo_config())
        for row in data:
            exact = eval_basis(space, float(row[0]))[:, 0]
            assert np.array_equal(row[1:7], exact)

    def test_sample_count_validation(self, demo_config_path, tmp_path):
        assert (
            main(["sample", demo_config_path, "--n", "1", "--csv", str(tmp_path / "x.csv")])
            == 2
        )

    @pytest.mark.parametrize("deriv", [-1, 3])
    def test_derivative_order_validation(self, deriv, demo_config_path, tmp_path, capfd):
        # the demo's lowest degree is 2
        csv = tmp_path / "x.csv"
        assert main(["sample", demo_config_path, "--deriv", str(deriv), "--csv", str(csv)]) == 2
        assert capfd.readouterr() == ("", "error: --deriv must lie in [0, 2] for this space\n")
        assert not csv.exists()

    @pytest.mark.parametrize(
        "n, code, message",
        [
            (10**20, 2, "error: --n 100000000000000000000 exceeds the largest array of "),
            (2**63 // 8, 2, "error: --n 1152921504606846976 exceeds the largest array of "),
            (10**15, 1, "error: Unable to allocate "),
        ],
        ids=["beyond-intp", "byte-size-overflow", "refused-allocation"],
    )
    def test_huge_sample_count_is_one_error_line(
        self, demo_config_path, tmp_path, capfd, n, code, message
    ):
        # 10**15 float samples are 7.1 PiB, past any address space: the
        # allocation is refused without touching memory
        csv = tmp_path / "x.csv"
        assert main(["sample", demo_config_path, "--n", str(n), "--csv", str(csv)]) == code
        stdout, err = capfd.readouterr()
        assert stdout == "" and len(err.splitlines()) == 1 and err.startswith(message)
        assert not csv.exists()


class TestVerify:
    def test_demo_passes(self, demo_config_path, capsys):
        assert main(["verify", demo_config_path]) == 0
        out = capsys.readouterr().out
        assert "PASS partition-of-unity" in out
        assert "FAIL" not in out

    def test_local_support_reports_leak(self, demo_config_path, capsys, monkeypatch):
        # Shift every basis value by 1e-9: each point outside a support then
        # leaks exactly that much.
        import gtbsplines.cli as cli

        exact = cli.eval_basis
        monkeypatch.setattr(cli, "eval_basis", lambda *args: exact(*args) + 1e-9)
        assert main(["verify", demo_config_path]) == 1
        assert "FAIL local-support (max leak 1e-09)" in capsys.readouterr().out

    def test_recurrence_oracle_reports_deviation(self, demo_config_path, capsys, monkeypatch):
        # Shift every recurrence value by 1e-6, above the 1e-7 tolerance: the
        # check must still see the oracle it compares against.
        import gtbsplines.cli as cli

        exact = cli.local_recurrence_eval
        monkeypatch.setattr(cli, "local_recurrence_eval", lambda *args: exact(*args) + 1e-6)
        assert main(["verify", demo_config_path]) == 1
        assert "FAIL oracle-integral-recurrence (max dev 1e-06)" in capsys.readouterr().out

    def test_recurrence_oracle_is_one_call(self, demo_config_path, capsys, monkeypatch):
        # one call covers every function and probe point, so a span around
        # the name times the whole oracle
        import gtbsplines.cli as cli

        exact, calls = cli.local_recurrence_eval, []
        monkeypatch.setattr(cli, "local_recurrence_eval", lambda *args: calls.append(args) or exact(*args))
        assert main(["verify", demo_config_path]) == 0
        assert "PASS oracle-integral-recurrence" in capsys.readouterr().out
        assert len(calls) == 1

    def test_unsupported_oracle_is_a_fail_line(self, tmp_path, capfd):
        # U* + V* of an exponential section at omega * length = 800
        # underflows mid-interval, so the recurrence oracle has no weights:
        # its check fails, the other checks print as usual, stderr is empty
        section = {"family": "exponential", "degree": 3, "omega": 800.0}
        cfg = {"breakpoints": [0.0, 1.0], "sections": [section], "smoothness": []}
        path = tmp_path / "space.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", str(path)]) == 1
        out, err = capfd.readouterr()
        fail = (
            "FAIL oracle-integral-recurrence (oracle unsupported: no computable weight ladder "
            "for SectionSpace([0.0, 1.0], ExponentialFamily(degree=3, omega=800.0)): "
            "weight wronskian weight is not strictly positive on [0.0, 1.0])\n"
        )
        assert out == "".join(f"PASS {c}\n" for c in VERIFY_CHECKS) + fail
        assert err == ""

    @pytest.mark.parametrize(
        "name", ["build-cubic-fine", "sample-mixed", "refine-mixed", "example1", "example2"]
    )
    def test_stdout_on_demo_and_bench_spaces(self, name, tmp_path, capsys):
        # every check passes and prints exactly its PASS line
        if name == "example1":
            configs = [mixed_family_demo_config((r, r)).to_dict() for r in (-1, 0, 1, 2)]
        elif name == "example2":
            configs = [conic_profile_demo_config().to_dict()]
        else:
            configs = [bench_generator().generate(name, seed)[0] for seed in (0, 1)]
        oracle = "cox-de-boor" if name == "build-cubic-fine" else "integral-recurrence"
        checks = VERIFY_CHECKS + [f"oracle-{oracle}"]
        for cfg in configs:
            path = tmp_path / "space.json"
            path.write_text(json.dumps(cfg))
            assert main(["verify", str(path)]) == 0
            assert capsys.readouterr().out == "".join(f"PASS {c}\n" for c in checks)

    def test_jump_check_reports_largest_jump(self, demo_config_path, capsys, monkeypatch):
        # A block shifted by 1e-6 breaks smoothness; the reported maximum is
        # that of one jump_vector call per breakpoint.
        import gtbsplines.cli as cli

        def shifted(config):
            space = build_space(config)
            blocks = list(space.extraction.blocks)
            blocks[1] = blocks[1] + 1e-6
            ext = ExtractionMatrix(tuple(blocks), space.extraction.factors, space.knots)
            return GTSplineSpace(space.partition, space.bases, ext)

        monkeypatch.setattr(cli, "build_space", shifted)
        assert main(["verify", demo_config_path]) == 1
        space = shifted(SpaceConfig.from_json_file(demo_config_path))
        want = max(
            np.max(np.abs(jump_vector(space, i, range(space.smoothness[i] + 1))))
            for i in (1, 2)
        )
        assert want > 1e-9
        out = capsys.readouterr().out
        assert f"FAIL smoothness-jumps (max jump {want:.3g})\n" in out
        # the column sums are those of the shifted blocks, not of the built ones
        assert "FAIL extraction-column-sums" in out

    def test_uniform_polynomial_uses_classical_oracle(self, tmp_path, capsys):
        cfg = {
            "breakpoints": [0.0, 1.0, 2.0, 3.0],
            "sections": [{"family": "polynomial", "degree": 3}] * 3,
            "smoothness": [2, 2],
        }
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", str(path)]) == 0
        assert "PASS oracle-cox-de-boor" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "cfg, word",
        [
            (
                {
                    "breakpoints": [0.0, 4.0],
                    "sections": [{"family": "trigonometric", "degree": 2, "omega": 1.0}],
                    "smoothness": [],
                },
                "omega",
            ),
            (
                {
                    "breakpoints": [0.0, 1.0],
                    "sections": [{"family": "polynomial", "degree": 2.9}],
                    "smoothness": [],
                },
                "degree",
            ),
            (
                {
                    "breakpoints": [0.0, 1.0, 2.0],
                    "sections": [{"family": "polynomial", "degree": 3}] * 2,
                    "smoothness": [1.7],
                },
                "smoothness",
            ),
            (
                {
                    "breakpoints": [0.0, 1.0],
                    "sections": [{"family": "trigonometric", "degree": 2, "omega": math.nan}],
                    "smoothness": [],
                },
                "omega",
            ),
            (
                {
                    "breakpoints": [0.0, math.inf],
                    "sections": [{"family": "polynomial", "degree": 2}],
                    "smoothness": [],
                },
                "finite",
            ),
            (
                {
                    "breakpoints": [0.0, 1.0],
                    "sections": [{"family": "trigonometric", "degree": 2, "omega": "abc"}],
                    "smoothness": [],
                },
                "omega",
            ),
            (
                {
                    "breakpoints": ["x", 1, 2],
                    "sections": [{"family": "polynomial", "degree": 2}] * 2,
                    "smoothness": [1],
                },
                "breakpoint",
            ),
            (
                {
                    "breakpoints": [0.0, 1.0],
                    "sections": [{"family": "polynomial", "degree": 1}],
                    "smoothness": [],
                    "control_points": [[0.0, 0.0], ["x", 1.0]],
                },
                "control points",
            ),
            (
                {
                    "breakpoints": [0.0, 1.0],
                    "sections": [{"family": "trigonometric", "degree": 2, "omega": "1.5"}],
                    "smoothness": [],
                },
                "omega",
            ),
            (
                {
                    "breakpoints": ["0", "1e0"],
                    "sections": [{"family": "polynomial", "degree": 2}],
                    "smoothness": [],
                },
                "breakpoint",
            ),
            (
                {
                    "breakpoints": [0.0, 1.0],
                    "sections": [{"family": "polynomial", "degree": 1}],
                    "smoothness": [],
                    "control_points": [[0.0, 0.0], ["1", 1.0]],
                },
                "control points",
            ),
            (
                {
                    "breakpoints": [0.0, 1.0],
                    "sections": [{"family": "trigonometric", "degree": 2, "omega": True}],
                    "smoothness": [],
                },
                "omega",
            ),
            (
                {
                    "breakpoints": [False, True],
                    "sections": [{"family": "polynomial", "degree": 2}],
                    "smoothness": [],
                },
                "breakpoint",
            ),
            (
                {
                    "breakpoints": [0.0, 1.0],
                    "sections": [{"family": "polynomial", "degree": True}],
                    "smoothness": [],
                },
                "degree",
            ),
            (
                {
                    "breakpoints": [0.0, 1.0, 2.0],
                    "sections": [{"family": "polynomial", "degree": 3}] * 2,
                    "smoothness": [True],
                },
                "smoothness",
            ),
            (
                {
                    "breakpoints": [0.0, 1.0],
                    "sections": [{"family": "polynomial", "degree": 1}],
                    "smoothness": [],
                    "control_points": [[True, 0.0], [1.0, 1.0]],
                },
                "control points",
            ),
        ],
        ids=[
            "trig-omega-length",
            "degree-2.9",
            "smoothness-1.7",
            "omega-nan",
            "breakpoint-inf",
            "omega-abc",
            "breakpoint-x",
            "control-point-x",
            "omega-numeric-string",
            "breakpoint-numeric-string",
            "control-point-numeric-string",
            "omega-bool",
            "breakpoint-bool",
            "degree-bool",
            "smoothness-bool",
            "control-point-bool-mixed",
        ],
    )
    def test_invalid_trig_parameter_fails_validation(self, cfg, word, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert word in captured.err
        assert captured.out == ""


def test_parser_is_built_once_and_verbs_looked_up_per_call(demo_config_path, monkeypatch):
    import gtbsplines.cli as cli

    cli.make_parser.cache_clear()
    assert main(["verify", demo_config_path]) == 0
    # a verb rebound after the parser exists is the one called
    monkeypatch.setattr(cli, "cmd_verify", lambda args: 7)
    assert main(["verify", demo_config_path]) == 7
    assert cli.make_parser.cache_info().misses == 1


class TestInsert:
    def test_reports_refined_dimension_and_transfer(self, demo_config_path, tmp_path):
        out = tmp_path / "ins.txt"
        assert main(["insert", demo_config_path, "--at", "1.0", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("N 7\n")
        tail = text.split("transfer\n")[1].strip().splitlines()
        rows = np.array([[float(v) for v in line.split()] for line in tail])
        assert rows.shape == (7, 6)
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-13

    def test_transfer_text_equals_full_formatting(self, tmp_path):
        # Only the nonzero entries are formatted; the text equals formatting
        # every entry of the map.
        config = uniform_cubic_config(20)
        path = tmp_path / "cubic.json"
        path.write_text(json.dumps(config.to_dict()))
        out = tmp_path / "ins.txt"
        assert main(["insert", str(path), "--at", "7.5", str(out)]) == 0
        refined, transfer = insert_knot(build_space(config), 7.5)
        rows = [_fmt_row(row) for row in transfer]
        assert out.read_text() == _space_summary(refined) + "transfer\n" + "\n".join(rows) + "\n"

    def test_boundary_insert_rejected(self, demo_config_path, tmp_path, capsys):
        code = main(["insert", demo_config_path, "--at", "0.0", str(tmp_path / "x.txt")])
        assert code == 1


class TestDemo:
    def test_example1_stages(self, tmp_path, capsys):
        out = tmp_path / "demo1"
        assert main(["demo", "example1", str(out), "--n", "41"]) == 0
        discontinuous = (out / "example1_r-1.csv").read_text().splitlines()
        assert discontinuous[0].split(",")[:3] == ["x", "B1", "B2"]
        assert "B12" in discontinuous[0]
        final = (out / "example1_r2_summary.txt").read_text()
        assert "N 6" in final

    def test_example2_geometry_files(self, tmp_path):
        out = tmp_path / "demo2"
        assert main(["demo", "example2", str(out), "--n", "101"]) == 0
        poly = (out / "example2_control_polygon.csv").read_text().splitlines()
        assert len(poly) == 5
        first = [float(v) for v in poly[1].split(",")]
        assert first[0] == pytest.approx(2 + math.sqrt(2) / 2, abs=1e-15)
        residuals = (out / "example2_residuals.csv").read_text().splitlines()[1:]
        worst = max(abs(float(line.split(",")[2])) for line in residuals)
        assert worst <= 1e-10

    def test_unknown_demo_is_rejected_by_the_parser(self, tmp_path, capfd):
        out = tmp_path / "demo"
        with pytest.raises(SystemExit) as exit_info:
            main(["demo", "example3", str(out)])
        assert exit_info.value.code == 2
        _, err = capfd.readouterr()
        assert "invalid choice: 'example3'" in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_huge_sample_count_is_one_error_line(self, name, tmp_path, capfd):
        # beyond numpy's array size: exit 2 before the directory is made
        out = tmp_path / "demo"
        assert main(["demo", name, str(out), "--n", str(10**20)]) == 2
        stdout, err = capfd.readouterr()
        assert stdout == "" and len(err.splitlines()) == 1
        assert err.startswith("error: --n 100000000000000000000 exceeds the largest array of ")
        assert not out.exists()
        # 7.1 PiB: the allocation is refused, without touching memory
        assert main(["demo", name, str(out), "--n", str(10**15)]) == 1
        stdout, err = capfd.readouterr()
        assert stdout == "" and len(err.splitlines()) == 1
        assert err.startswith("error: Unable to allocate ")

    @pytest.mark.parametrize("name", ["example1", "example2"])
    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_sample_count_validation(self, name, n, tmp_path, capfd):
        # the check of ``sample``: one error line, exit 2, no output written
        out = tmp_path / "demo"
        assert main(["demo", name, str(out), "--n", str(n)]) == 2
        stdout, err = capfd.readouterr()
        assert stdout == "" and err == "error: need at least 2 samples\n"
        assert not out.exists()


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


class TestFormat:
    """The array formatter against ``b"%.17g" % x`` itself: equal bytes."""

    @staticmethod
    def check(values):
        values = np.asarray(values, dtype=float)
        assert _format(values) == [b"%.17g" % x for x in values.tolist()]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.integers(0, 2**64 - 1).map(_from_bits))))
    def test_every_float(self, values):
        # every bit pattern: NaNs, infinities, -0.0, subnormals and normals
        self.check(values)

    def test_subnormals(self):
        tiny = [5e-324, 1e-320, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308]
        patterns = np.random.default_rng(11).integers(1, 2**52, 500).view(float)
        self.check(np.concatenate([tiny, patterns, -patterns]))

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        near = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        self.check(np.concatenate([near, -near]))

    def test_rounding_that_carries_to_a_power_of_ten(self):
        # doubles below 10**k that 17 digits round up to 10**k
        carries = {
            -305: "0x1.c16c5c5253575p-1014",
            -14: "0x1.6849b86a12b9bp-47",
            98: "0x1.7688bb5394c25p+325",
        }
        for k, text in carries.items():
            x = float.fromhex(text)
            assert Fraction(x) < Fraction(10) ** k
            assert Fraction((b"%.17g" % x).decode()) == Fraction(10) ** k
            self.check([x, -x])

    def test_no_double_of_the_fast_range_carries(self):
        # the largest double below 10**k, for every power of ten the range
        # [1e-4, 1e17) ends at, keeps 17 digits below it
        for k in range(-3, 18):
            below = float(Fraction(10) ** k)
            if Fraction(below) >= Fraction(10) ** k:
                below = math.nextafter(below, 0.0)
            assert Fraction((b"%.17g" % below).decode()) < Fraction(10) ** k
            self.check([below])

    def test_exact_halfway_cases(self):
        # x * 10**s ends in exactly .5 at 17 digits: x = base + j + odd / 2**(s + 1),
        # with 17 - s digits before the point (k + 0.25 and k + 0.75 near 2**51 for s = 1)
        values = []
        for s in range(1, 5):
            base = 2 * 10 ** (16 - s)
            for odd in range(1, 2 ** (s + 1), 2):
                values.extend(base + j + odd / 2 ** (s + 1) for j in range(100))
        values.extend(2.0**51 - j - f for j in range(1, 200) for f in (0.25, 0.75))
        for x in values:
            assert (Fraction(x) * 10 ** (16 - math.floor(math.log10(x)))).denominator == 2
        self.check(values + [-x for x in values])

    def test_edges_of_the_fast_range(self):
        edges = np.array([1e-4, 1e-3, 1.0, 1e15, 1e16, 1e17, 0.0])
        near = [edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)]
        near.append(np.nextafter(near[1], 0))
        values = np.concatenate(near)
        self.check(np.concatenate([values, -values, [np.nan, np.inf, -np.inf]]))


def _sample_bytes(config, tmp_path, n: int, deriv: int) -> bytes:
    path, csv = tmp_path / "space.json", tmp_path / "s.csv"
    path.write_text(json.dumps(config.to_dict()))
    args = ["sample", str(path), "--n", str(n), "--deriv", str(deriv), "--csv", str(csv)]
    assert main(args) == 0
    return csv.read_bytes()


class TestSampleBytes:
    """The batched CSV writer against the per-row ``%.17g`` templates."""

    def test_example1_csvs(self, tmp_path):
        out = tmp_path / "demo1"
        assert main(["demo", "example1", str(out), "--n", "401"]) == 0
        for r in (-1, 0, 1, 2):
            space = build_space(mixed_family_demo_config((r, r)))
            assert (out / f"example1_r{r}.csv").read_bytes() == reference_sample_csv(space, 401, 2)

    def test_random_spaces_at_every_order(self, tmp_path):
        rng = np.random.default_rng(2030)
        for _ in range(50):
            config = random_config(rng)
            space = build_space(config)
            for deriv in range(min(space.degrees) + 1):
                expected = reference_sample_csv(space, 37, deriv)
                assert _sample_bytes(config, tmp_path, 37, deriv) == expected

    def test_two_samples(self, tmp_path):
        config = mixed_family_demo_config()
        expected = reference_sample_csv(build_space(config), 2, 2)
        assert _sample_bytes(config, tmp_path, 2, 2) == expected

    @pytest.mark.parametrize(
        "family", [PolynomialFamily(3), TrigonometricFamily(3, 1.0)], ids=["polynomial", "trig"]
    )
    def test_single_interval(self, family, tmp_path):
        config = SpaceConfig([-1.0, 2.0], [family], [])
        expected = reference_sample_csv(build_space(config), 51, 3)
        assert _sample_bytes(config, tmp_path, 51, 3) == expected

    @pytest.mark.parametrize("cells", [1, 40, 100])
    def test_batch_boundaries_inside_intervals(self, cells, tmp_path, monkeypatch):
        # at most 16 cells per row: a batch of 40 or 100 cells ends inside an
        # interval of 40 rows or more, a batch of 1 cell is one row
        monkeypatch.setattr(cli, "_BATCH_CELLS", cells)
        config = mixed_family_demo_config()
        expected = reference_sample_csv(build_space(config), 201, 2)
        assert _sample_bytes(config, tmp_path, 201, 2) == expected

    @pytest.mark.parametrize("scale", [2.0**-30, 2.0**60], ids=["2^-30", "2^60"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_scaled_breakpoints(self, scale, degree, tmp_path):
        # x and the derivatives span exponents from -27 to 60: cells through
        # the fallback and every fixed layout
        config = SpaceConfig(
            [scale * i for i in range(6)], [PolynomialFamily(degree)] * 5, [degree - 1] * 4
        )
        space = build_space(config)
        for deriv in range(degree + 1):
            expected = reference_sample_csv(space, 61, deriv)
            assert _sample_bytes(config, tmp_path, 61, deriv) == expected


class TestTextBytes:
    """Summaries, transfer maps and demo curves against ``%.17g`` per number."""

    def test_demo_summaries(self, tmp_path):
        out = tmp_path / "demo"
        assert main(["demo", "example1", str(out), "--n", "2"]) == 0
        assert main(["demo", "example2", str(out), "--n", "2"]) == 0
        for r in (-1, 0, 1, 2):
            expected = reference_space_summary(build_space(mixed_family_demo_config((r, r))))
            assert (out / f"example1_r{r}_summary.txt").read_text() == expected
        expected = reference_space_summary(build_space(conic_profile_demo_config()))
        assert (out / "example2_summary.txt").read_text() == expected

    @pytest.mark.parametrize("stage", [-1, 0, 1, 2, "conic"])
    def test_insert_into_demo_spaces(self, stage, tmp_path):
        config = (
            conic_profile_demo_config()
            if stage == "conic"
            else mixed_family_demo_config((stage, stage))
        )
        path, out = tmp_path / "space.json", tmp_path / "ins.txt"
        path.write_text(json.dumps(config.to_dict()))
        a, b = config.breakpoints[0], config.breakpoints[-1]
        for t in (0.13, 0.37, 0.61, 0.89):
            at = a + t * (b - a)
            assert main(["insert", str(path), "--at", repr(at), str(out)]) == 0
            refined, transfer = insert_knot(build_space(config), at)
            rows = "".join(reference_row(row) + "\n" for row in transfer)
            assert out.read_text() == reference_space_summary(refined) + "transfer\n" + rows

    def test_example2_curves(self, tmp_path):
        out = tmp_path / "demo2"
        assert main(["demo", "example2", str(out), "--n", "101"]) == 0
        config = conic_profile_demo_config()
        curve = SplineCurve(build_space(config), config.control_points)
        xs = np.linspace(*curve.space.domain, 101)
        rows = [reference_row(row).replace(" ", ",") for row in np.column_stack([xs, curve(xs)])]
        expected = "x,X,Y\n" + "".join(row + "\n" for row in rows)
        assert (out / "example2_curve.csv").read_text() == expected
        rows = [reference_row(row).replace(" ", ",") for row in curve.control]
        expected = "X,Y\n" + "".join(row + "\n" for row in rows)
        assert (out / "example2_control_polygon.csv").read_text() == expected
        # 17 digits round-trip: each residual cell is %.17g of the number it reads as
        lines = (out / "example2_residuals.csv").read_text().splitlines()
        assert lines[0] == "x,segment,residual" and len(lines) == 1 + 3 * 101
        for line in lines[1:]:
            x, segment, residual = line.split(",")
            assert segment in ("1", "2", "3")
            assert [x, residual] == ["%.17g" % float(x), "%.17g" % float(residual)]
