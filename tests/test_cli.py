import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from koszulalg import cli, fileio, lift
from koszulalg.chainmaps import ChainMap, is_chain_map
from koszulalg.cli import build_parser, main
from koszulalg.complexes import Augmentation, FreeComplex, canonical_augmentation, koszul
from koszulalg.fileio import read_map, write_complex
from koszulalg.linalg import PolyMatrix, rank_exact
from koszulalg.minimal import minimal_model
from koszulalg.ring import FieldSpec, RingSpec

from conftest import noisy_complex


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

    @pytest.mark.parametrize("budget", ["0", "-2"])
    def test_budget_below_one_usage_error(self, capsys, budget):
        code, out, err = run(
            ["search-low-rank", "--rank", "4", "--budget", budget], capsys
        )
        assert (code, out, err) == (2, "", "error: --budget must be >= 1\n")

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


# The reports of commands that evaluate in an extension field, recorded
# with an earlier form of it: F_{3^39} and F_{5^27} as coefficient tuples,
# F_{2^61} with coefficient i in bit i.  The evaluation points, ranks and
# pivot rows must not depend on how its elements are stored.
PINNED_REPORTS = {
    'rank-survey --char 2 --rank 4': (
        '# koszulalg report v1\n'
        'command rank-survey\n'
        'ring char=2 r=4 weight=1 m=1\n'
        'trials 100 seed 0\n'
        'rank 14: 1\n'
        'rank 16: 99\n'
        'check min rank >= 2r: 14 vs 8 -> PASS\n'
        'result PASS\n'
    ),
    'rank-survey --char 2 --rank 4 --rank-mode probabilistic': (
        '# koszulalg report v1\n'
        'command rank-survey\n'
        'ring char=2 r=4 weight=1 m=1\n'
        'trials 100 seed 0\n'
        'rank 14: 1\n'
        'rank 16: 99\n'
        'check min rank >= 2r: 14 vs 8 -> PASS\n'
        'result PASS\n'
    ),
    'rank-survey --char 2 --rank 5 --trials 30': (
        '# koszulalg report v1\n'
        'command rank-survey\n'
        'ring char=2 r=5 weight=1 m=1\n'
        'trials 30 seed 0\n'
        'rank 32: 30\n'
        'check min rank >= 2r: 32 vs 10 -> PASS\n'
        'result PASS\n'
    ),
    'rank-survey --char 2 --rank 5 --rank-mode probabilistic --trials 30': (
        '# koszulalg report v1\n'
        'command rank-survey\n'
        'ring char=2 r=5 weight=1 m=1\n'
        'trials 30 seed 0\n'
        'rank 32: 30\n'
        'check min rank >= 2r: 32 vs 10 -> PASS\n'
        'result PASS\n'
    ),
    'search-low-rank --char 2 --rank 4 --budget 100': (
        '# koszulalg report v1\n'
        'command search-low-rank\n'
        'ring char=2 r=4 weight=1 m=1\n'
        'budget 100 seed 0\n'
        'best rank 16 (identity-lift rank 16, proven lower bound 8)\n'
        'chain map: True\n'
    ),
    'search-low-rank --char 2 --rank 5 --budget 40': (
        '# koszulalg report v1\n'
        'command search-low-rank\n'
        'ring char=2 r=5 weight=1 m=1\n'
        'budget 40 seed 0\n'
        'best rank 32 (identity-lift rank 32, proven lower bound 10)\n'
        'chain map: True\n'
    ),
    'rank-survey --char 3 --rank 3': (
        '# koszulalg report v1\n'
        'command rank-survey\n'
        'ring char=3 r=3 weight=1 m=1\n'
        'trials 100 seed 0\n'
        'rank 8: 100\n'
        'check min rank >= 2r: 8 vs 6 -> PASS\n'
        'result PASS\n'
    ),
    'rank-survey --char 3 --rank 4': (
        '# koszulalg report v1\n'
        'command rank-survey\n'
        'ring char=3 r=4 weight=1 m=1\n'
        'trials 100 seed 0\n'
        'rank 14: 1\n'
        'rank 16: 99\n'
        'check min rank >= 2r: 14 vs 8 -> PASS\n'
        'result PASS\n'
    ),
    'rank-survey --char 5 --rank 3': (
        '# koszulalg report v1\n'
        'command rank-survey\n'
        'ring char=5 r=3 weight=1 m=1\n'
        'trials 100 seed 0\n'
        'rank 8: 100\n'
        'check min rank >= 2r: 8 vs 6 -> PASS\n'
        'result PASS\n'
    ),
    'rank-survey --char 5 --rank 4': (
        '# koszulalg report v1\n'
        'command rank-survey\n'
        'ring char=5 r=4 weight=1 m=1\n'
        'trials 100 seed 0\n'
        'rank 14: 1\n'
        'rank 16: 99\n'
        'check min rank >= 2r: 14 vs 8 -> PASS\n'
        'result PASS\n'
    ),
    'rank-survey --char 3 --rank 4 --rank-mode probabilistic --trials 20': (
        '# koszulalg report v1\n'
        'command rank-survey\n'
        'ring char=3 r=4 weight=1 m=1\n'
        'trials 20 seed 0\n'
        'rank 16: 20\n'
        'check min rank >= 2r: 16 vs 8 -> PASS\n'
        'result PASS\n'
    ),
    'rank-survey --char 5 --rank 4 --rank-mode probabilistic --trials 20': (
        '# koszulalg report v1\n'
        'command rank-survey\n'
        'ring char=5 r=4 weight=1 m=1\n'
        'trials 20 seed 0\n'
        'rank 16: 20\n'
        'check min rank >= 2r: 16 vs 8 -> PASS\n'
        'result PASS\n'
    ),
    'search-low-rank --char 3 --rank 4 --budget 5': (
        '# koszulalg report v1\n'
        'command search-low-rank\n'
        'ring char=3 r=4 weight=1 m=1\n'
        'budget 5 seed 0\n'
        'best rank 16 (identity-lift rank 16, proven lower bound 8)\n'
        'chain map: True\n'
    ),
}


@pytest.mark.parametrize("command", PINNED_REPORTS)
def test_evaluation_field_reports_pinned(command, capsys):
    assert run(command.split(), capsys) == (0, PINNED_REPORTS[command], "")


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

    def test_koszul_without_out_exits_2_before_building(self, capsys, monkeypatch):
        def build(*args):
            raise AssertionError("built the complex")

        monkeypatch.setattr(cli, "koszul", build)
        code, out, err = run(["koszul", "--rank", "9"], capsys)
        assert (code, out, err) == (2, "", "error: koszul requires --out\n")

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

    @pytest.mark.parametrize("name, force, failure, line", [
        ("beta_respects_filtration", lambda got: [(1, 0)], "beta filtration violations", None),
        ("bound_checks", lambda got: {**got, "passed": False}, "bound_checks",
         "bound_checks passed False"),
        ("_improved_bound", lambda got: {**got, "passed": False}, "improved bound",
         "restricted rank (improved bound): 4 vs 4 -> FAIL"),
    ])
    def test_each_failed_report_check_fails_the_run(
        self, tmp_path, capsys, monkeypatch, name, force, failure, line
    ):
        """Each check that `verify_bounds` adds to the bound table fails
        the run alone when it fails: forced here, since K_3(1) passes."""
        cx = str(tmp_path / "k32.cx")
        run(["koszul", "--char", "0", "--rank", "3", "--weight", "2", "--out", cx], capsys)
        original = getattr(lift, name)
        monkeypatch.setattr(lift, name, lambda *args: force(original(*args)))
        code, out, err = run(["verify-bounds", cx, "--m", "1"], capsys)
        assert code == 1
        assert out.endswith(f"result FAIL: {failure}\n")
        assert line is None or f"{line}\n" in out
        assert err == f"assertion failed: {failure}\n"


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
        ("d s1 = t1^2*s0", "second 'd s1' line"),
        ("augment  s0 = 2", "second 'augment s0' line"),
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


def test_unsupported_version_exits_2(tmp_path, capsys):
    cx = tmp_path / "v2.cx"
    cx.write_text(K1.replace("# complex v1", "# complex v2"))
    code, out, err = run(["verify-bounds", str(cx)], capsys)
    assert (code, out, err) == (2, "", "error: unsupported version: '# complex v2'\n")


def test_map_between_rings_exits_2(tmp_path, capsys):
    (tmp_path / "q.cx").write_text(K1)
    (tmp_path / "f2.cx").write_text(K1.replace("char 0", "char 2"))
    bad = tmp_path / "bad.map"
    bad.write_text("# map v1\nsource q.cx\ntarget f2.cx\nf s0 = s0\n")
    code, out, err = run(["verify-map", str(bad)], capsys)
    assert (code, out, err) == (2, "", "error: source and target rings differ\n")


@pytest.mark.parametrize(
    "body, message",
    [
        ("source k.cx\ntarget k.cx\nf s0 = s0\nf s0 = s0\n", "line 5: second 'f s0' line"),
        ("source none.cx\nsource k.cx\ntarget k.cx\n", "line 3: second 'source' line"),
    ],
)
def test_second_map_line_exits_2(tmp_path, capsys, body, message):
    (tmp_path / "k.cx").write_text(K1)
    bad = tmp_path / "bad.map"
    bad.write_text("# map v1\n" + body)
    code, _, err = run(["verify-map", str(bad)], capsys)
    assert code == 2
    assert err == f"error: {message}\n"


def test_unreadable_path_exits_2(tmp_path, capsys, monkeypatch):
    """A path that exists but cannot be read is an input error: a
    directory, a map whose source is a directory, a permission error."""
    (tmp_path / "k.cx").write_text(K1)
    (tmp_path / "dir.map").write_text("# map v1\nsource .\ntarget k.cx\n")
    for argv in (
        ["verify-bounds", str(tmp_path), "--m", "1"],
        ["verify-map", str(tmp_path / "dir.map")],
    ):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Is a directory" in err

    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(fileio, "open", refuse, raising=False)
    code, _, err = run(["verify-bounds", str(tmp_path / "k.cx"), "--m", "1"], capsys)
    assert code == 2
    assert err == f"error: [Errno 13] Permission denied: '{tmp_path / 'k.cx'}'\n"


def test_failed_lift_prints_degree_and_obstruction(tmp_path, capsys):
    """verify-bounds on the rank-1 complex with d = 0 over Q[t1, t2]: the
    lift of s1 needs a preimage of t1^2 * a, and there is none."""
    ring = RingSpec(FieldSpec(0), 2, 1)
    C = FreeComplex(ring, [("a", 0)], PolyMatrix(ring, 1, 1))
    cx = str(tmp_path / "rank1.cx")
    write_complex(cx, C, Augmentation(C, [ring.field.one]))
    code, out, err = run(["verify-bounds", cx, "--m", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err == (
        "assertion failed: obstruction lifting generator s1 in degree 1; "
        "degree 1; obstruction e0: t1^2\n"
    )


def test_filtration_checks_the_augmentation_on_the_model(tmp_path, capsys):
    """A noisy K_3(1)/Q whose augmentation is the indicator of a cancelled
    degree-0 generator: carried to the model it vanishes on F_1, so
    `filtration` fails check (c), as `verify-bounds` finds no
    augmentation-1 cycle."""
    C = noisy_complex(koszul(RingSpec(FieldSpec(0), 3, 1), 1).base, random.Random(1), pairs=4)
    kept = {name for name, _ in minimal_model(C).model.generators}
    f = C.ring.field
    indicators = (
        Augmentation(C, [f.one if k == j else f.zero for k in range(C.n)])
        for j, (name, q) in enumerate(C.generators)
        if q == 0 and name not in kept
    )
    aug = next(a for a in indicators if not a.validate())
    cx = str(tmp_path / "cancelled.cx")
    write_complex(cx, C, aug)
    code, out, _ = run(["filtration", cx], capsys)
    assert code == 1
    assert "property failure: (c) augmentation vanishes on all of F_1" in out
    code, _, err = run(["verify-bounds", cx], capsys)
    assert code == 1
    assert "no augmentation-1 cycle" in err


def test_augmentation_off_degree_0_is_unfit_for_lifting(tmp_path, capsys):
    """x is a cycle of degree 2 with epsilon(x) = 1: no degree-preserving
    beta sends it to epsilon(x) * s0, so the lift is refused, and
    `filtration` reports the same check (c)."""
    cx = tmp_path / "x.cx"
    cx.write_text("# complex v1\nchar 2\nr 1\nweight 1\ngen s0 0\ngen s1 1\ngen x 2\n"
                  "d s1 = t1^2*s0\naugment s0 = 1\naugment x = 1\n")
    code, out, err = run(["verify-bounds", str(cx), "--m", "1"], capsys)
    assert (code, out) == (1, "")
    assert err == ("assertion failed: filtration unfit for lifting: "
                   "(c) augmentation is nonzero on x of degree 2\n")
    code, out, _ = run(["filtration", str(cx)], capsys)
    assert code == 1
    assert "property failure: (c) augmentation is nonzero on x of degree 2\n" in out


def test_augmentation_checked_before_the_model(tmp_path, capsys):
    """epsilon breaks (c) only on the pair d b = a, which the minimal model
    cancels: both commands check it on the input and report each problem
    once."""
    cx = tmp_path / "pair.cx"
    cx.write_text("# complex v1\nchar 2\nr 1\nweight 1\ngen s0 0\ngen s1 1\ngen a 1\ngen b 0\n"
                  "d s1 = t1^2*s0\nd b = a\naugment s0 = 1\naugment a = 1\n")
    problems = ["(c) augmentation is nonzero on a of degree 1",
                "(c) augmentation does not kill d(b)"]
    code, out, err = run(["verify-bounds", str(cx), "--m", "1"], capsys)
    assert (code, out) == (1, "")
    assert err == "assertion failed: filtration unfit for lifting: " + "; ".join(problems) + "\n"
    code, out, _ = run(["filtration", str(cx)], capsys)
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("property failure")] == [
        "property failure: " + p for p in problems
    ]
    assert "result FAIL\n" in out


@pytest.mark.parametrize("command", ["verify-bounds", "lift"])
def test_zero_homology_is_a_failed_lift(tmp_path, capsys, command):
    """A well-formed complex with zero homology (d b = a) has no
    augmentation-1 cycle: a failed assertion, not an input error."""
    cx = tmp_path / "acyclic.cx"
    cx.write_text(
        "# complex v1\nchar 2\nr 2\nweight 1\ngen a 1\ngen b 0\nd b = a\naugment b = 1\n"
    )
    code, out, err = run([command, str(cx)], capsys)
    assert (code, out) == (1, "")
    assert err == "assertion failed: no augmentation-1 cycle of degree 0 exists; degree 0\n"


def test_zero_homology_has_no_filtration(tmp_path, capsys):
    """`filtration` on the complex with zero homology above: its minimal
    model is zero, a failed assertion, not an input error."""
    cx = tmp_path / "acyclic.cx"
    cx.write_text(
        "# complex v1\nchar 2\nr 2\nweight 1\ngen a 1\ngen b 0\nd b = a\naugment b = 1\n"
    )
    code, out, err = run(["filtration", str(cx)], capsys)
    assert (code, out) == (1, "")
    assert err == "assertion failed: zero model has no filtration\n"


def test_lift_checks_each_chain_map_once(tmp_path, capsys, monkeypatch):
    """The lifts check that alpha and beta are chain maps; `lift` prints
    those results without checking them again."""
    calls = []

    def spy(f):
        calls.append(f)
        return is_chain_map(f)

    monkeypatch.setattr(lift, "is_chain_map", spy)
    monkeypatch.setattr(cli, "is_chain_map", spy)
    cx = str(tmp_path / "k.cx")
    assert run(["koszul", "--char", "3", "--rank", "3", "--out", cx], capsys)[0] == 0
    code, out, _ = run(["lift", cx, "--m", "1"], capsys)
    assert code == 0
    assert "alpha chain map: True\nbeta chain map: True\n" in out
    assert len(calls) == 2


def test_lift_maps_compose_to_the_reported_gamma(tmp_path, capsys):
    """On a noisy K_3(1)/Q, `lift --out` writes alpha into the model file
    that beta starts from, so the two written maps compose into the gamma
    whose rank the report prints."""
    C = noisy_complex(koszul(RingSpec(FieldSpec(0), 3, 1), 1).base, random.Random(1), pairs=4)
    cx = str(tmp_path / "noisy.cx")
    write_complex(cx, C)
    prefix = str(tmp_path / "run")
    code, out, _ = run(["lift", cx, "--out", prefix], capsys)
    assert code == 0
    alpha, _, alpha_target = read_map(prefix + ".alpha.map")
    beta, beta_source, _ = read_map(prefix + ".beta.map")
    assert alpha_target == beta_source
    gamma = ChainMap(alpha.source, beta.target, beta.matrix @ alpha.matrix)
    assert is_chain_map(gamma) is None
    assert f"rank(beta . alpha) {rank_exact(gamma.matrix)}\n" in out


def test_verify_bounds_koszul_r8(tmp_path, capsys):
    """K_8(1)/F_2: every term of d is some t_i^2, so no generator survives
    mod t^2 and the count of 256 needs no quotient."""
    K = koszul(RingSpec(FieldSpec(2), 8, 1), 1)
    cx = str(tmp_path / "k8.cx")
    write_complex(cx, K.base, canonical_augmentation(K))
    code, out, _ = run(["verify-bounds", cx, "--m", "1"], capsys)
    assert code == 0
    assert "check min generators of homology >= 2^r: 256 vs 256 -> PASS\n" in out
    assert out.endswith("result PASS\n")


INVALID = [
    # every command reaches minimal_model, which checks the complex, with
    # a minimal differential (no scalar entry) as with scalar entries
    ("gen a 0\ngen b 0\ngen c 0\nd a = t1*b\nd b = t1*c\n",
     "d∘d != 0: column a hits c with t1^2"),
    ("gen a 0\ngen b 1\ngen c 2\nd a = b\nd b = c\n",
     "d∘d != 0: column a hits c with 1"),
    ("gen a 0\ngen b 1\nd a = b + t1*b\n",
     "inhomogeneous entry d[b, a]: degree None, expected 0"),
]


@pytest.mark.parametrize("command", ["verify-bounds", "minimal", "filtration", "lift"])
@pytest.mark.parametrize("augment", ["", "augment a = 1\n"], ids=["plain", "augmented"])
@pytest.mark.parametrize("body, message", INVALID)
def test_invalid_complex_exits_2(tmp_path, capsys, command, augment, body, message):
    """An invalid complex is one input-error line, checked once per op."""
    cx = tmp_path / "bad.cx"
    cx.write_text("# complex v1\nchar 0\nr 1\nweight 1\n" + body + augment)
    code, out, err = run([command, str(cx)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: invalid complex: {message}\n"


def test_repeated_main_calls_match_one_call(tmp_path, capsys):
    """main builds its parser once per process; later calls see no state
    left by earlier ones."""
    assert build_parser() is build_parser()
    cx = str(tmp_path / "k.cx")
    argv_list = [
        ["koszul", "--char", "3", "--rank", "2", "--out", cx],
        ["verify-bounds", cx, "--m", "1"],
        ["rank-survey", "--rank", "2", "--trials", "3"],
        ["search-low-rank", "--rank", "3"],
        ["minimal", cx],
    ]
    for argv in argv_list:
        first = run(argv, capsys)
        again = run(argv, capsys)
        assert again == first
    assert [run(a, capsys)[0] for a in argv_list] == [0, 0, 0, 2, 0]
    with pytest.raises(SystemExit) as exc:
        main(["verify-bounds"])
    assert exc.value.code == 2
    assert run(["minimal", cx], capsys)[0] == 0


def test_python_dash_m_runs_the_cli(tmp_path):
    """`python -m koszulalg` is the command line, exit codes included."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}

    def koszulalg(*argv):
        return subprocess.run(
            [sys.executable, "-m", "koszulalg", *argv],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )

    done = koszulalg("koszul", "--char", "0", "--rank", "1", "--out", "k.cx")
    assert done.returncode == 0, done.stderr
    done = koszulalg("verify-bounds", "k.cx", "--m", "1")
    assert done.returncode == 0 and "result PASS" in done.stdout, done.stderr
    done = koszulalg("verify-bounds", ".")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
