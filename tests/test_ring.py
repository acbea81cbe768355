import copy
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from koszulalg.complexes import FreeComplex
from koszulalg.fileio import format_combination
from koszulalg import ring as ring_module
from koszulalg.linalg import PolyMatrix
from koszulalg.ring import FieldSpec, RingSpec, Polynomial, evaluator, parse_combination


Q = FieldSpec(0)
F2 = FieldSpec(2)
F7 = FieldSpec(7)


class TestFieldSpec:
    def test_char0_uses_fractions(self):
        assert Q.of(3) == Fraction(3)
        assert Q.div(Q.of(1), Q.of(3)) == Fraction(1, 3)

    def test_char_p_arithmetic(self):
        assert F7.add(5, 4) == 2
        assert F7.mul(3, 5) == 1
        assert F7.inv(3) == 5
        assert F7.neg(0) == 0

    def test_inverse_roundtrip(self):
        for p in (2, 3, 5, 13):
            f = FieldSpec(p)
            for a in range(1, p):
                assert f.mul(a, f.inv(a)) == 1

    @pytest.mark.parametrize("char", [0, 5])
    def test_parse_scalar(self, char):
        """An integral text goes to `of` as an int, with no Fraction."""
        f = FieldSpec(char)
        for text, value in [("3", 3), ("-6/4", Fraction(-3, 2)), ("6/3", 2)]:
            got = f.parse_scalar(text)
            assert got == f.of(value)
            assert type(got) is type(f.of(value))
        assert type(f.parse_scalar("3")) is int
        with pytest.raises(ValueError, match="zero denominator in '1/0'"):
            f.parse_scalar("1/0")

    def test_parse_scalar_without_a_residue(self):
        with pytest.raises(ValueError, match="1/3 has no residue mod 3"):
            FieldSpec(3).parse_scalar("1/3")

    def test_composite_characteristic_rejected(self):
        with pytest.raises(ValueError):
            FieldSpec(6)
        with pytest.raises(ValueError):
            FieldSpec(1)

    def test_fraction_maps_to_residue_mod_p(self):
        F5 = FieldSpec(5)
        assert F5.of(Fraction(1, 2)) == 3
        assert F5.of(Fraction(-7, 3)) == F5.div(F5.of(-7), F5.of(3))
        assert F5.parse_scalar("1/2") == 3
        with pytest.raises(ValueError):
            F5.of(Fraction(1, 5))

    def test_fields_compare_by_characteristic(self):
        assert FieldSpec(3) == FieldSpec(3)
        assert hash(FieldSpec(3)) == hash(FieldSpec(3))
        assert FieldSpec(3) != FieldSpec(5)
        assert FieldSpec(0) != FieldSpec(3)
        assert copy.deepcopy(F7) == F7 and type(copy.deepcopy(F7)) is type(F7)

    def test_scalar_format_parse_roundtrip(self):
        for f, vals in [(Q, [Fraction(0), Fraction(-3, 7), Fraction(5)]), (F7, [0, 3, 6])]:
            for v in vals:
                assert f.parse_scalar(f.format_scalar(v)) == v


def _rings():
    return [RingSpec(Q, 3, 1), RingSpec(F2, 3, 1), RingSpec(Q, 2, 2)]


@st.composite
def polynomials(draw, ring):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(ring.num_vars))
        c = draw(st.integers(-5, 5))
        if c:
            terms[exps] = ring.field.of(c)
    return sum(
        (ring.monomial(e, c) for e, c in terms.items()), ring.zero()
    )


@st.composite
def any_coefficient_polynomials(draw, ring):
    """Polynomials with any nonzero coefficients: over Q both integral and
    non-integral ones."""
    f = ring.field
    if f.characteristic:
        coeff = st.integers(1, f.characteristic - 1)
    else:
        nonzero = st.integers(-30, 30).filter(bool)
        coeff = st.builds(Fraction, nonzero, st.integers(1, 12)).map(f.of)
    exps = st.tuples(*[st.integers(0, 4)] * ring.num_vars)
    return Polynomial(ring, draw(st.dictionaries(exps, coeff, max_size=5)))


@st.composite
def edited_texts(draw, ring):
    """The text of a polynomial after one to three random character edits."""
    text = str(draw(any_coefficient_polynomials(ring)))
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from("t0123456789^*+-/ ") | st.characters())
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        if kind == "insert":
            text = text[:pos] + ch + text[pos:]
        else:
            text = text[:pos] + (ch if kind == "replace" else "") + text[pos + 1:]
    return text


_FUZZ_RINGS = [RingSpec(Q, 3, 1), RingSpec(F2, 3, 1), RingSpec(FieldSpec(5), 3, 1)]


class TestParseFuzz:
    @pytest.mark.parametrize("ring", _FUZZ_RINGS, ids=["Q", "F2", "F5"])
    def test_str_parse_roundtrip(self, ring):
        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(any_coefficient_polynomials(ring))
        def inner(p):
            assert ring.parse(str(p)) == p

        inner()

    @pytest.mark.parametrize("ring", _FUZZ_RINGS, ids=["Q", "F2", "F5"])
    def test_combination_text_roundtrip(self, ring):
        """The combination reader gives back the element whose text
        format_combination wrote."""
        C = FreeComplex(ring, [("a", 0)], PolyMatrix(ring, 1, 1))

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(any_coefficient_polynomials(ring).filter(bool))
        def inner(p):
            assert parse_combination(ring, {"a": 0}, format_combination(C, {0: p})) == {0: p}

        inner()

    @pytest.mark.parametrize("ring", _FUZZ_RINGS, ids=["Q", "F2", "F5"])
    def test_edits_raise_only_value_error(self, ring):
        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(edited_texts(ring))
        def inner(text):
            try:
                p = ring.parse(text)
            except ValueError:
                return
            assert all(len(e) == ring.num_vars for e in p.terms)
            assert not any(ring.field.is_zero(c) for c in p.terms.values())
            assert ring.parse(str(p)) == p

        inner()


class TestPolynomialArithmetic:
    @pytest.mark.parametrize("ring", _rings())
    def test_ring_axioms(self, ring):
        @settings(max_examples=60, deadline=None)
        @given(polynomials(ring), polynomials(ring), polynomials(ring))
        def inner(a, b, c):
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + ring.zero() == a
            assert a * ring.one() == a
            assert a - a == ring.zero()

        inner()

    def test_parse_grammar(self):
        ring = RingSpec(Q, 3, 1)
        p = ring.parse("t1^2*t3 + 2*t2")
        assert p.terms[(2, 0, 1)] == 1
        assert p.terms[(0, 1, 0)] == 2
        assert ring.parse("-t1 + 1/2") == ring.monomial((1, 0, 0), -1) + ring.constant(Fraction(1, 2))

    @pytest.mark.parametrize("ring", _rings())
    def test_str_parse_roundtrip(self, ring):
        @settings(max_examples=40, deadline=None)
        @given(polynomials(ring))
        def inner(p):
            assert ring.parse(str(p)) == p

        inner()

    def test_weighted_degree(self):
        r1 = RingSpec(Q, 2, 1)
        assert r1.parse("t1*t2").weighted_degree() == 2
        r2 = RingSpec(Q, 2, 2)
        assert r2.parse("t1*t2").weighted_degree() == 4
        assert r1.parse("t1 + t2").weighted_degree() == 1
        assert r1.parse("t1 + t2^2").weighted_degree() is None
        with pytest.raises(ValueError):
            r1.zero().weighted_degree()

    def test_packed_order_is_graded_lex(self):
        """Packed monomials compare as their grlex keys (t1 > ... > t_r),
        so the largest is the leading term that divide_exact divides by."""
        ring = RingSpec(Q, 3, 1)
        codec = ring_module._codec(3)

        def leading(p):
            return codec.exponents[max(ring_module._pack(p))]

        assert leading(ring.parse("t3^3 + t1*t2")) == (0, 0, 3)  # higher total degree wins
        assert leading(ring.parse("t1*t2 + t2*t3")) == (1, 1, 0)  # ties broken lexicographically
        exps = list(itertools.product(range(4), repeat=3))
        assert sorted(exps, key=codec.packed.__getitem__) == sorted(exps, key=ring_module._grlex_key)

    def test_exact_division(self):
        ring = RingSpec(Q, 2, 1)
        a = ring.parse("t1^2 + 2*t1*t2 + t2^2")
        b = ring.parse("t1 + t2")
        assert a.divide_exact(b) == b
        with pytest.raises(ValueError):
            ring.parse("t1^2 + t2").divide_exact(b)

    def test_evaluate(self):
        ring = RingSpec(Q, 2, 1)
        p = ring.parse("t1^2*t2 + 3")
        assert evaluator([Fraction(2), Fraction(5)], Q)(p) == Fraction(23)
        assert p.evaluate([Fraction(2), Fraction(5)], Q) == Fraction(23)

    def test_evaluator_computes_each_power_once(self):
        """A second polynomial over the same monomials costs no product."""
        products = []

        class Counting(type(Q)):
            def mul(self, a, b):
                products.append((a, b))
                return a * b

        ring = RingSpec(Q, 2, 1)
        value = evaluator([Fraction(2), Fraction(5)], Counting(0))
        assert value(ring.parse("t1^3*t2^2 + t1^2")) == Fraction(204)
        first = len(products)
        assert value(ring.parse("t1^2 + t1^3*t2^2")) == Fraction(204)
        assert value(ring.parse("4*t1^2")) == Fraction(16)
        assert len(products) == first + 1  # only the coefficient 4

    def test_evaluator_memos_stay_at_their_bound(self, monkeypatch):
        """An evaluator fed more distinct monomials and coefficients than
        the memo bound holds at most that many of each, and its values
        stay right."""
        monkeypatch.setattr(ring_module, "_MEMO_SIZE", 8)
        ring = RingSpec(Q, 2, 1)
        point = [Fraction(2), Fraction(-5, 3)]
        value = evaluator(point, Q)
        memos = [cell.cell_contents for cell in value.__closure__
                 if isinstance(cell.cell_contents, ring_module._Memo)]
        assert len(memos) == 2  # monomial values, coefficient images
        for a in range(30):
            p = ring.monomial((a, 30 - a), Fraction(a + 1, 7)) + ring.monomial((a, 0), a + 2)
            x, y = point
            assert value(p) == sum(c * x**i * y**j for (i, j), c in p.terms.items())
            assert all(len(memo) <= 8 for memo in memos)


class TestRingSpec:
    @pytest.mark.parametrize("text", ["t0", "t0^2", "t3", "2*t1*t4^2"])
    def test_parse_rejects_missing_variables(self, text):
        with pytest.raises(ValueError, match="no variable"):
            RingSpec(Q, 2, 1).parse(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t1*", "dangling '\\*'"),
            ("t1 t2", "no sign before 't2'"),
            ("2 3", "no sign before '3'"),
            ("x", "expected a scalar or a variable, got 'x'"),
            ("2*t1*x", "expected a scalar or a variable, got 'x'"),
            ("t1*-t2", "expected a scalar or a variable, got '-'"),
            ("t1+$", "cannot tokenize '\\$'"),
        ],
    )
    def test_parse_rejects_malformed_text(self, text, message):
        """The polynomial reader is the .cx reader's term loop with no
        generator names, so it refuses what that loop refuses."""
        with pytest.raises(ValueError, match=message):
            RingSpec(Q, 2, 1).parse(text)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            RingSpec(Q, 2, 3)
        with pytest.raises(ValueError):
            RingSpec(Q, 0, 1)

    def test_monomial_weighted_degrees(self):
        r = RingSpec(Q, 3, 2)
        assert r.var(2).weighted_degree() == 2
        assert r.monomial((1, 1, 1)).weighted_degree() == 6
