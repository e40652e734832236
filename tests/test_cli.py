import json
import math

import numpy as np
import pytest

from gtbsplines import build_space, insert_knot
from gtbsplines.cli import _fmt_row, _space_summary, main
from gtbsplines.config import mixed_family_demo_config

from helpers import uniform_cubic_config

DEMO_DICT = {
    "breakpoints": [0.0, 1.0, 2.5, 5.0],
    "sections": [
        {"family": "polynomial", "degree": 2},
        {"family": "trigonometric", "degree": 3, "omega": math.pi / 2},
        {"family": "exponential", "degree": 4, "omega": 10.0},
    ],
    "smoothness": [2, 2],
}


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
