import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from koszulalg.ring import FieldSpec, RingSpec, Polynomial, parse_polynomial


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
        assert p.coeff((2, 0, 1)) == 1
        assert p.coeff((0, 1, 0)) == 2
        assert ring.parse("-t1 + 1/2") == ring.monomial((1, 0, 0), -1) + ring.constant(Fraction(1, 2))

    @pytest.mark.parametrize("ring", _rings())
    def test_str_parse_roundtrip(self, ring):
        @settings(max_examples=40, deadline=None)
        @given(polynomials(ring))
        def inner(p):
            assert parse_polynomial(ring, str(p)) == p

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

    def test_leading_term_graded_lex(self):
        ring = RingSpec(Q, 3, 1)
        p = ring.parse("t3^3 + t1*t2")
        assert p.leading()[0] == (0, 0, 3)  # higher total degree wins
        q = ring.parse("t1*t2 + t2*t3")
        assert q.leading()[0] == (1, 1, 0)  # ties broken lexicographically

    def test_exact_division(self):
        ring = RingSpec(Q, 2, 1)
        a = ring.parse("t1^2 + 2*t1*t2 + t2^2")
        b = ring.parse("t1 + t2")
        assert a.divide_exact(b) == b
        with pytest.raises(ValueError):
            ring.parse("t1^2 + t2").divide_exact(b)

    def test_reduce_mod_powers(self):
        ring = RingSpec(Q, 2, 1)
        p = ring.parse("t1^3 + t1*t2 + t2^2")
        assert p.reduce_mod_powers((2, 2)) == ring.parse("t1*t2")

    def test_evaluate(self):
        ring = RingSpec(Q, 2, 1)
        p = ring.parse("t1^2*t2 + 3")
        assert p.evaluate([Fraction(2), Fraction(5)], Q) == Fraction(23)


class TestRingSpec:
    @pytest.mark.parametrize("text", ["t0", "t0^2", "t3", "2*t1*t4^2"])
    def test_parse_rejects_missing_variables(self, text):
        with pytest.raises(ValueError, match="no variable"):
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
