import contextlib
import io
import random
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from koszulalg.cli import main
from koszulalg.ring import FieldSpec, Polynomial, RingSpec, parse_combination
from koszulalg.complexes import koszul, canonical_augmentation, Augmentation, FreeComplex
from koszulalg.linalg import PolyMatrix
from koszulalg.chainmaps import ChainMap, standard_iota, is_chain_map, rank_six_fixture
from koszulalg.minimal import minimal_model
from koszulalg.fileio import (
    write_complex,
    read_complex,
    complex_to_text,
    complex_from_text,
    write_map,
    read_map,
    minimal_model_lines,
    FileFormatError,
)

from conftest import noisy_complex, random_free_complex

Q = FieldSpec(0)
F2 = FieldSpec(2)


class TestComplexFiles:
    def test_roundtrip_byte_identical(self, tmp_path):
        K = koszul(RingSpec(Q, 3, 1), 1)
        path = tmp_path / "k.cx"
        write_complex(path, K.base, canonical_augmentation(K), K.dga())
        C, aug, dga = read_complex(path)
        assert C.generators == K.base.generators
        assert C.differential == K.base.differential
        assert aug.values == canonical_augmentation(K).values
        assert dga.validate() == []
        assert complex_to_text(C, aug, dga) == path.read_text()

    def test_random_complex_roundtrip(self, tmp_path, rng):
        for field in (Q, F2):
            ring = RingSpec(field, 2, 1)
            C, _ = random_free_complex(ring, rng, max_gens=8)
            path = tmp_path / "c.cx"
            write_complex(path, C)
            C2, _, _ = read_complex(path)
            assert C2.differential == C.differential
            assert complex_to_text(C2) == path.read_text()

    def test_rational_coefficients(self):
        ring = RingSpec(Q, 2, 1)
        D = PolyMatrix(ring, 2, 2)
        D.entries[(0, 1)] = ring.parse("-1/2*t1 + 3*t2")
        C = FreeComplex(ring, [("a", 0), ("b", 0)], D)
        C2, _, _ = complex_from_text(complex_to_text(C))
        assert C2.differential == D

    def test_header_required(self):
        with pytest.raises(FileFormatError):
            complex_from_text("char 0\nr 1\nweight 1\n")

    def test_unknown_directive_rejected(self):
        text = "# complex v1\nchar 0\nr 1\nweight 1\ngen a 0\nbogus x\n"
        with pytest.raises(FileFormatError):
            complex_from_text(text)

    def test_unknown_generator_in_d_rejected(self):
        text = "# complex v1\nchar 0\nr 1\nweight 1\ngen a 0\nd zz = t1*a\n"
        with pytest.raises(FileFormatError):
            complex_from_text(text)

    @pytest.mark.parametrize("name", ["t1x", "t2", "s0'"])
    def test_generator_name_that_does_not_read_back_rejected(self, name):
        text = f"# complex v1\nchar 0\nr 2\nweight 1\ngen a 0\ngen {name} 0\n"
        with pytest.raises(FileFormatError, match="line 6: generator name"):
            complex_from_text(text)

    def test_minimal_annex_lines_ignored_on_read(self, tmp_path):
        ring = RingSpec(Q, 2, 1)
        D = PolyMatrix(ring, 2, 2)
        D.entries[(0, 1)] = ring.one()
        C = FreeComplex(ring, [("a", 1), ("b", 0)], D)
        mm = minimal_model(C)
        path = tmp_path / "model.cx"
        write_complex(path, mm.model, extra_lines=minimal_model_lines(mm))
        M, _, _ = read_complex(path)
        assert M.n == 0


_TWO_GENERATORS = "# complex v1\nchar 0\nr 2\nweight 1\ngen a 0\ngen b 1\n"


class TestCombinations:
    def test_parse_signs_and_products(self):
        ring = RingSpec(Q, 2, 1)
        gi = {"a": 0, "b": 1}
        vec = parse_combination(ring, gi, "2*t1*a - t2^2*b + a")
        assert vec[0] == ring.parse("2*t1 + 1")
        assert vec[1] == ring.parse("-t2^2")

    def test_two_generators_in_a_term_rejected(self):
        with pytest.raises(FileFormatError, match="^line 7: two generators in one term near 'b'$"):
            complex_from_text(_TWO_GENERATORS + "d b = a*b\n")

    def test_term_without_generator_rejected(self):
        with pytest.raises(FileFormatError, match="^line 7: term without a generator in ' t1 \\+ a'$"):
            complex_from_text(_TWO_GENERATORS + "d b = t1 + a\n")

    @pytest.mark.parametrize("expr, token", [("a b", "b"), ("t1*a 2*b", "2"), ("a - b t2*b", "t2")])
    def test_terms_without_a_sign_between_rejected(self, expr, token):
        """Juxtaposed terms are refused, not read as a sum."""
        with pytest.raises(FileFormatError, match=f"^line 7: no sign before '{token}' in "):
            complex_from_text(_TWO_GENERATORS + f"d b = {expr}\n")


@pytest.mark.parametrize(
    "line", ["d s1 = t1^2*s0", "augment s0 = 1", "unit s0", "parity s1 = 1", "product s0 s1 = s1"]
)
def test_second_line_for_one_entry_rejected(line):
    """A second line for the same entry would replace the first."""
    text = "# complex v1\nchar 0\nr 1\nweight 1\ngen s0 0\ngen s1 1\n"
    complex_from_text(text + line + "\n")
    with pytest.raises(FileFormatError, match=r"^line 8: second '.+' line$"):
        complex_from_text(text + line + "\n" + line + "\n")


class TestMapFiles:
    def test_map_roundtrip(self, tmp_path):
        ring = RingSpec(Q, 3, 1)
        iota, Km, K0 = standard_iota(ring, 1)
        sp = tmp_path / "km.cx"
        tp = tmp_path / "k0.cx"
        write_complex(sp, Km.base)
        write_complex(tp, K0.base)
        mp = tmp_path / "iota.map"
        write_map(mp, iota, sp, tp)
        f, _, _ = read_map(mp)
        assert f.matrix == iota.matrix
        assert is_chain_map(f) is None

    def test_char2_fixture_map(self, tmp_path):
        gamma, iota, h, x, dx, Km, K0 = rank_six_fixture()
        sp = tmp_path / "km.cx"
        tp = tmp_path / "k0.cx"
        write_complex(sp, Km.base)
        write_complex(tp, K0.base)
        mp = tmp_path / "g.map"
        write_map(mp, gamma, sp, tp)
        g2, _, _ = read_map(mp)
        assert g2.matrix == gamma.matrix

    def test_map_requires_header_paths(self, tmp_path):
        p = tmp_path / "bad.map"
        p.write_text("# map v1\nf a = a\n")
        with pytest.raises(FileFormatError):
            read_map(p)


# ---------------------------------------------------------------------------
# property tests of the reader: round trips and mutated files
# ---------------------------------------------------------------------------


def _scalars(field):
    if field.characteristic == 0:
        return st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4))
    return st.integers(1, field.characteristic - 1)


def _rings():
    return st.builds(
        RingSpec,
        st.sampled_from([Q, F2, FieldSpec(3)]),
        st.integers(1, 3),
        st.sampled_from([1, 2]),
    )


def _random_matrix(draw, ring, rows, cols):
    exps = st.tuples(*[st.integers(0, 3)] * ring.num_vars)
    polys = st.dictionaries(exps, _scalars(ring.field), min_size=1, max_size=3)
    M = PolyMatrix(ring, rows, cols)
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    for (i, j), terms in draw(st.dictionaries(cells, polys, max_size=rows + cols)).items():
        M.set(i, j, Polynomial(ring, terms))
    return M


_IDENTIFIERS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True)


@st.composite
def random_complexes(draw, ring=None, readable_names=False):
    """(C, augmentation or None) with random names, degrees and entries;
    the entries need not form a complex, since the reader does not check.
    Unless readable_names is set, names like a variable (t2, t1x), which
    the writer refuses, are drawn often."""
    if ring is None:
        ring = draw(_rings())
    field = ring.field
    if readable_names:
        name = _IDENTIFIERS.filter(lambda name: not re.match(r"t\d", name))
    else:
        name = st.one_of(
            _IDENTIFIERS, st.from_regex(r"t[0-9][A-Za-z0-9_]{0,2}", fullmatch=True)
        )
    names = draw(st.lists(name, min_size=1, max_size=5, unique=True))
    gens = [(name, draw(st.integers(-3, 6))) for name in names]
    n = len(gens)
    C = FreeComplex(ring, gens, _random_matrix(draw, ring, n, n))
    scalars = st.one_of(st.just(field.zero), _scalars(field))
    values = draw(st.lists(scalars, min_size=n, max_size=n))
    return C, draw(st.sampled_from([None, Augmentation(C, values)]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(random_complexes())
def test_random_complex_text_roundtrip(complex_and_augmentation):
    """complex_to_text(*complex_from_text(t)) == t for every text t the
    writer produces; it refuses exactly the names the reader would not
    read back as one generator."""
    C, aug = complex_and_augmentation
    bad = [name for name, _ in C.generators if re.match(r"t\d", name)]
    if bad:
        with pytest.raises(FileFormatError):
            complex_to_text(C, aug)
        return
    text = complex_to_text(C, aug)
    C2, aug2, dga2 = complex_from_text(text)
    assert C2.differential == C.differential
    assert dga2 is None
    assert complex_to_text(C2, aug2, dga2) == text


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.sampled_from([Q, F2, FieldSpec(3)]),
    st.integers(1, 3),
    st.integers(0, 2),
    st.sampled_from([1, 2]),
)
def test_koszul_text_roundtrip_with_products(field, r, m, weight):
    K = koszul(RingSpec(field, r, weight), m)
    text = complex_to_text(K.base, canonical_augmentation(K), K.dga())
    C, aug, dga = complex_from_text(text)
    assert dga.table == K.dga().table
    assert complex_to_text(C, aug, dga) == text


def _mutated(draw, lines):
    """One to three random edits of single lines: delete, duplicate, swap,
    or change, insert or delete one character."""
    lines = list(lines)
    chars = st.one_of(
        st.sampled_from(list("=*+-^/ 0123456789tsab_#\t")), st.characters(codec="utf-8")
    )
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        line = lines[k]
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "set", "insert", "remove"]))
        if op == "delete":
            del lines[k]
        elif op == "duplicate":
            lines.insert(k, line)
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
        else:
            pos = draw(st.integers(0, len(line)))
            if op == "set" and pos < len(line):
                line = line[:pos] + draw(chars) + line[pos + 1:]
            elif op == "insert":
                line = line[:pos] + draw(chars) + line[pos:]
            elif op == "remove":
                line = line[:pos] + line[pos + 1:]
            lines[k] = line
        if not lines:
            break
    return "\n".join(lines) + "\n"


def _valid_texts():
    """Two Koszul complexes with augmentation and products, and a noisy
    complex over Q followed by the annex of its minimal model."""
    texts = [
        complex_to_text(K.base, canonical_augmentation(K), K.dga())
        for K in (koszul(RingSpec(Q, 2, 1), 1), koszul(RingSpec(FieldSpec(3), 2, 2), 1))
    ]
    C = noisy_complex(koszul(RingSpec(Q, 2, 1), 1).base, random.Random(5), pairs=2)
    texts.append(complex_to_text(C, extra_lines=minimal_model_lines(minimal_model(C))))
    return texts


_VALID_TEXTS = _valid_texts()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_file_raises_only_value_errors(data):
    """A mutated .cx file is read or refused with FileFormatError or
    ValueError; when refused, verify-bounds exits 2 with one error line."""
    text = data.draw(st.sampled_from(_VALID_TEXTS))
    mutated = _mutated(data.draw, text.splitlines())
    try:
        complex_from_text(mutated)
        return
    except ValueError:
        pass
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "mutated.cx"
        path.write_text(mutated, encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify-bounds", str(path), "--m", "1"])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ")
    assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


@st.composite
def random_maps(draw):
    """A ChainMap-shaped matrix between two random complexes over one ring,
    with names the writer accepts; it need not be a chain map."""
    ring = draw(_rings())
    source, target = (draw(random_complexes(ring, readable_names=True))[0] for _ in range(2))
    return ChainMap(source, target, _random_matrix(draw, ring, target.n, source.n))


def _write_map_files(directory, f):
    sp, tp, mp = (Path(directory) / name for name in ("s.cx", "t.cx", "f.map"))
    write_complex(sp, f.source)
    write_complex(tp, f.target)
    write_map(mp, f, sp, tp)
    return mp


@settings(max_examples=50, deadline=None, derandomize=True)
@given(random_maps())
def test_random_map_text_roundtrip(f):
    """read_map gives back the matrix, and writing it again gives the same bytes."""
    with tempfile.TemporaryDirectory() as d:
        mp = _write_map_files(d, f)
        g, sp, tp = read_map(mp)
        assert g.matrix == f.matrix
        again = Path(d) / "again.map"
        write_map(again, g, sp, tp)
        assert again.read_text() == mp.read_text()


_VALID_MAP = standard_iota(RingSpec(Q, 2, 1), 1)[0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_map_raises_only_value_errors(data):
    """A mutated .map file is read or refused with FileFormatError or
    ValueError; when refused, verify-map exits 2 with one error line."""
    with tempfile.TemporaryDirectory() as d:
        mp = _write_map_files(d, _VALID_MAP)
        mp.write_text(_mutated(data.draw, mp.read_text().splitlines()), encoding="utf-8")
        try:
            read_map(mp)
            return
        except ValueError:
            pass
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify-map", str(mp)])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ")
    assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
