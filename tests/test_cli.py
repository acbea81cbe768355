import os

import pytest

from koszulalg import lift
from koszulalg.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRankFixture:
    def test_pass(self, capsys):
        code, out, _ = run(["fixture"], capsys)
        assert code == 0
        assert "result PASS" in out
        assert "rank(gamma): 6 vs 6 -> PASS" in out

    def test_weight2_rejection(self, capsys):
        code, out, _ = run(["fixture", "--weight", "2"], capsys)
        assert code == 0
        assert "correctly rejected" in out

    def test_probabilistic_mode(self, capsys):
        code, out, _ = run(
            ["fixture", "--rank-mode", "probabilistic", "--seed", "7"], capsys
        )
        assert code == 0
        assert "result PASS" in out

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(["fixture", "--seed", "3"], capsys)
        _, out2, _ = run(["fixture", "--seed", "3"], capsys)
        assert out1 == out2


class TestRankSurvey:
    def test_small_survey(self, capsys):
        code, out, _ = run(
            ["rank-survey", "--rank", "2", "--m", "1", "--char", "2",
             "--trials", "10", "--seed", "1"],
            capsys,
        )
        assert code == 0
        assert "min rank >= 2r" in out

    def test_r1_all_rank_two(self, capsys):
        code, out, _ = run(
            ["rank-survey", "--rank", "1", "--trials", "10", "--seed", "0"], capsys
        )
        assert code == 0
        assert "rank 2: 10" in out

    def test_zero_trials_usage_error(self, capsys):
        code, _, err = run(["rank-survey", "--trials", "0"], capsys)
        assert code == 2


class TestSearchLowRank:
    def test_r3_refused(self, capsys):
        code, _, err = run(["search-low-rank", "--rank", "3"], capsys)
        assert code == 2
        assert "r >= 4" in err

    def test_budget_zero_identity(self, capsys):
        code, out, _ = run(
            ["search-low-rank", "--rank", "4", "--budget", "0"], capsys
        )
        assert code == 0
        assert "best rank 16" in out

    def test_certificate_reverifiable(self, tmp_path, capsys):
        cert = str(tmp_path / "best.map")
        code, out, _ = run(
            ["search-low-rank", "--rank", "4", "--budget", "3", "--seed", "2",
             "--out", cert],
            capsys,
        )
        assert code == 0
        code, out, _ = run(["verify-map", cert], capsys)
        assert code == 0
        assert "chain map: True" in out


class TestFilePipeline:
    def test_koszul_then_everything(self, tmp_path, capsys):
        cx = str(tmp_path / "k.cx")
        code, _, _ = run(
            ["koszul", "--char", "0", "--rank", "2", "--m", "1", "--out", cx], capsys
        )
        assert code == 0

        code, out, _ = run(["verify-bounds", cx, "--m", "1"], capsys)
        assert code == 0
        assert "result PASS" in out
        assert "min generators of homology >= 2^r: 4 vs 4 -> PASS" in out

        model = str(tmp_path / "model.cx")
        code, out, _ = run(["minimal", cx, "--out", model], capsys)
        assert code == 0
        assert "model generators 4" in out

        code, out, _ = run(["filtration", model], capsys)
        assert code == 0
        assert "length 3" in out

        prefix = str(tmp_path / "run")
        code, out, _ = run(["lift", cx, "--m", "1", "--out", prefix], capsys)
        assert code == 0
        assert "rank(beta . alpha) 4" in out

        for name in ("run.alpha.map", "run.beta.map"):
            code, out, _ = run(["verify-map", str(tmp_path / name)], capsys)
            assert code == 0
            assert "chain map: True" in out

    def test_minimal_collapses_pair(self, tmp_path, capsys):
        cx = tmp_path / "pair.cx"
        cx.write_text(
            "# complex v1\nchar 0\nr 1\nweight 1\n"
            "gen e1 1\ngen e2 0\nd e2 = e1\n"
        )
        model = str(tmp_path / "m.cx")
        code, out, _ = run(["minimal", str(cx), "--out", model], capsys)
        assert code == 0
        assert "model generators 0" in out

    def test_corrupted_complex_rejected(self, tmp_path, capsys):
        cx = tmp_path / "bad.cx"
        cx.write_text(
            "# complex v1\nchar 0\nr 1\nweight 1\n"
            "gen a 0\ngen b 0\nd a = t1*b\nd b = t1*a\n"
        )
        code, _, err = run(["verify-bounds", str(cx), "--m", "1"], capsys)
        assert code == 2
        assert "invalid complex" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(["verify-map", "no-such-file.map"], capsys)
        assert code == 2

    def test_out_is_the_report_or_the_data(self, tmp_path, capsys):
        cx = tmp_path / "k.cx"
        run(["koszul", "--char", "2", "--rank", "2", "--m", "1", "--out", str(cx)], capsys)
        assert not cx.read_text().startswith("# koszulalg report")
        report = tmp_path / "report.txt"
        code, out, _ = run(["verify-bounds", str(cx), "--out", str(report)], capsys)
        assert code == 0
        assert report.read_text() == out
        model = tmp_path / "m.cx"
        code, out, _ = run(["minimal", str(cx), "--out", str(model)], capsys)
        assert code == 0
        assert f"model written to {model}" in out
        assert not model.read_text().startswith("# koszulalg report")

    def test_verify_bounds_runs_the_pipeline_once(self, tmp_path, capsys, monkeypatch):
        cx = str(tmp_path / "k.cx")
        run(["koszul", "--char", "0", "--rank", "3", "--weight", "2", "--out", cx], capsys)
        runs = []
        original = lift.pipeline
        monkeypatch.setattr(lift, "pipeline", lambda *a: runs.append(a) or original(*a))
        code, out, _ = run(["verify-bounds", cx, "--m", "1"], capsys)
        assert code == 0
        assert "restricted rank (improved bound): 4 vs 4 -> PASS" in out
        assert len(runs) == 1

    def test_report_written_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.txt"
        code, out, _ = run(["fixture", "--out", str(out_file)], capsys)
        assert code == 0
        assert out_file.read_text() == out


class TestWeight2Bounds:
    def test_improved_bound_reported(self, tmp_path, capsys):
        cx = str(tmp_path / "k32.cx")
        code, _, _ = run(
            ["koszul", "--char", "0", "--rank", "3", "--weight", "2",
             "--m", "1", "--out", cx],
            capsys,
        )
        assert code == 0
        code, out, _ = run(["verify-bounds", cx, "--m", "1"], capsys)
        assert code == 0
        assert "restricted rank (improved bound): 4 vs 4 -> PASS" in out
        assert "improved_total_bound 8" in out


K1 = "# complex v1\nchar 0\nr 1\nweight 1\ngen s0 0\ngen s1 1\nd s1 = t1^2*s0\naugment s0 = 1\n"


@pytest.mark.parametrize(
    "line, message",
    [
        ("augment zz = 1", "unknown generator 'zz'"),
        ("d s1 = t1*", "dangling '*'"),
        ("d s1 = t2^2*s0", "no variable 't2^2' when r = 1"),
        ("d s1 = t0^2*s0", "no variable 't0^2' when r = 1"),
        ("augment s0 = 1/0", "zero denominator in '1/0'"),
        ("unit zz", "unknown generator 'zz'"),
        ("parity zz = 1", "unknown generator 'zz'"),
        ("product s0 zz = s0", "unknown generator 'zz'"),
    ],
)
def test_malformed_complex_exits_2(tmp_path, capsys, line, message):
    """A malformed line is an input error naming the line, not a traceback."""
    cx = tmp_path / "bad.cx"
    cx.write_text(K1 + line + "\n")
    code, out, err = run(["verify-bounds", str(cx), "--m", "1"], capsys)
    assert code == 2
    assert err == f"error: line 9: {message}\n"


def test_malformed_map_exits_2(tmp_path, capsys):
    cx = tmp_path / "k.cx"
    cx.write_text(K1)
    bad = tmp_path / "bad.map"
    bad.write_text("# map v1\nsource k.cx\ntarget k.cx\nf zz = s0\n")
    code, _, err = run(["verify-map", str(bad)], capsys)
    assert code == 2
    assert err == "error: line 4: unknown generator 'zz'\n"
