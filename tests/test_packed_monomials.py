"""The packed monomials of ring.py: products with exponents near
EXPONENT_LIMIT against the schoolbook oracle (product_oracle), the
refusals at the limit, and divide_exact on its packed remainder heap."""

import random

import pytest

from koszulalg.cli import main
from koszulalg.complexes import koszul
from koszulalg.linalg import PolyMatrix, sum_of_products
from koszulalg.ring import (
    EXPONENT_LIMIT as L, FieldSpec, Polynomial, RingSpec, add_product, triples,
)

from product_oracle import oracle_sum, schoolbook_mul

FIELDS = [FieldSpec(0), FieldSpec(2), FieldSpec(3)]
FIELD_IDS = ["Q", "F2", "F3"]
# exponents whose sums of two fall on both sides of the limit
NEAR_LIMIT = [1, 2, L // 2, L // 2 + 1, L - 1, L]


def _scalar(field, rng):
    if field.characteristic:
        return rng.randrange(1, field.characteristic)
    return rng.choice([-3, -2, -1, 1, 2, 3])


def _poly(ring, rng):
    """One to three terms, each with one or two variables near the limit."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * ring.num_vars
        for v in rng.sample(range(ring.num_vars), min(ring.num_vars, rng.randint(1, 2))):
            exps[v] = rng.choice(NEAR_LIMIT)
        terms[tuple(exps)] = _scalar(ring.field, rng)
    return Polynomial(ring, terms)


def _matrix(ring, rng, rows, cols):
    M = PolyMatrix(ring, rows, cols)
    for i in range(rows):
        for j in range(cols):
            if rng.random() < 0.5:
                M.set(i, j, _poly(ring, rng))
    return M


def _over_limit(entries):
    return any(x > L for p in entries.values() for e in p.terms for x in e)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("r", [1, 5, 13])
def test_products_near_the_limit_are_exact_or_refused(field, r):
    """Every sum of products comes out as the oracle's, or, when the
    oracle's has an exponent over the limit, raises ValueError: never a
    sum carried into the next slot."""
    ring = RingSpec(field, r, 1)
    rng = random.Random(r)
    outcomes = set()
    for _ in range(30):
        m, k, n = (rng.randint(1, 3) for _ in range(3))
        A, B, C = _matrix(ring, rng, m, k), _matrix(ring, rng, k, n), _matrix(ring, rng, m, n)
        terms = [(_scalar(field, rng), A, B), (field.one, C, None)]
        want = oracle_sum(terms)
        p, q = _poly(ring, rng), _poly(ring, rng)
        x = {j: _poly(ring, rng) for j in range(3)}
        c = _scalar(field, rng)
        products = {(0, j): schoolbook_mul(schoolbook_mul(p, ring.constant(c)), xj)
                    for j, xj in x.items()}
        products = {key: s for key, s in products.items() if s}
        for got, expected in [
            (lambda: sum_of_products(terms).entries, want),
            (lambda: p * q, schoolbook_mul(p, q)),
            (lambda: add_product([(0, c, p, triples(x))], ring), products),
        ]:
            over = _over_limit(expected if isinstance(expected, dict) else {0: expected})
            outcomes.add(over)
            if over:
                with pytest.raises(ValueError, match=f"exponent over {L}"):
                    got()
            else:
                assert got() == expected
    assert outcomes == {True, False}  # both sides of the limit were reached


def test_a_product_over_the_limit_raises():
    ring = RingSpec(FieldSpec(0), 2, 1)
    assert ring.var(1, L - 1) * ring.var(1) == ring.var(1, L)
    assert str(ring.var(2, L - 1) * ring.var(2)) == f"t2^{L}"
    for i in (1, 2):  # t2 would carry into t1; t1 into the degree
        with pytest.raises(ValueError, match=f"a product has an exponent over {L}"):
            ring.var(i, L) * ring.var(i)
    with pytest.raises(ValueError):
        sum_of_products([(1, _single(ring, ring.var(2, L // 2 + 1)),
                          _single(ring, ring.var(2, L // 2 + 1)))])


def _single(ring, p):
    M = PolyMatrix(ring, 1, 1)
    M.set(0, 0, p)
    return M


def test_a_cancelled_total_over_the_limit_is_dropped():
    """Only a nonzero total is decoded, so a sum whose over-limit terms
    cancel is exact and not refused."""
    ring = RingSpec(FieldSpec(0), 2, 1)
    A = _single(ring, ring.var(1, L) + ring.var(2))
    B = _single(ring, ring.var(1))
    assert sum_of_products([(1, A, B), (-1, A, B)]).is_zero()


@pytest.mark.parametrize("exps", [(L + 1, 0), (0, -1), (2**32, 0), (0, 2**40)])
def test_an_exponent_outside_the_range_is_refused(exps):
    ring = RingSpec(FieldSpec(2), 2, 1)
    p = Polynomial(ring, {exps: 1})
    with pytest.raises(ValueError, match=f"not in 0..{L}"):
        p * ring.one()


def test_parse_refuses_an_exponent_over_the_limit():
    ring = RingSpec(FieldSpec(0), 2, 1)
    assert ring.parse(f"t2^{L}") == ring.var(2, L)
    for text in (f"t1^{L + 1}", f"t1^{L}*t1", f"t2 + 3*t1^{L}*t1^{L}"):
        with pytest.raises(ValueError, match=f"exponent of t1 over {L}"):
            ring.parse(text)


def test_verify_bounds_refuses_an_exponent_over_the_limit(tmp_path, capsys):
    cx = tmp_path / "big.cx"
    cx.write_text("# complex v1\nchar 0\nr 1\nweight 1\ngen s0 0\ngen s1 1\n"
                  f"d s1 = t1^{L + 1}*s0\naugment s0 = 1\n")
    assert main(["verify-bounds", str(cx), "--m", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: line 7: exponent of t1 over {L}\n"



def test_var_refuses_an_exponent_over_the_limit():
    ring = RingSpec(FieldSpec(2), 2, 1)
    assert ring.var(1, L).terms == {(L, 0): 1}
    with pytest.raises(ValueError, match=f"exponent of t1 over {L}"):
        ring.var(1, L + 1)
    assert koszul(ring, L - 1).base.differential.entry(0, 1) == ring.var(1, L)


@pytest.mark.parametrize("command", [["koszul", "--out", "k.cx"], ["rank-survey", "--trials", "1"]])
def test_koszul_past_the_limit_is_refused(command, tmp_path, monkeypatch, capsys):
    """d(s_1) = t_1^(m+1) for m = EXPONENT_LIMIT is refused before any
    file is written or any homotopy drawn: exit 2 and one error line."""
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--rank", "2", "--m", str(L)]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: exponent of t1 over {L}\n")
    assert list(tmp_path.iterdir()) == []

def _small_poly(ring, rng, degree=2):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, degree) for _ in range(ring.num_vars))
        terms[exps] = _scalar(ring.field, rng)
    return Polynomial(ring, terms)


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_exact_divisions_give_the_quotient(char):
    ring = RingSpec(FieldSpec(char), 3, 1)
    rng = random.Random(char)
    for _ in range(40):
        q, other = _small_poly(ring, rng), _small_poly(ring, rng)
        p = q * other
        got = p.divide_exact(other)
        assert got == q
        assert got * other == p
    # near the limit, where the remainder's slots are full
    q = ring.var(1, L - 2) + ring.var(2, L)
    other = ring.var(1, 2) + ring.var(3)
    assert (q * other).divide_exact(other) == q


def test_inexact_divisions_raise():
    ring = RingSpec(FieldSpec(0), 2, 1)
    t1, t2 = ring.var(1), ring.var(2)
    with pytest.raises(ValueError, match="inexact polynomial division"):
        (t1 * t1 + t2).divide_exact(t1 + t2)
    # the remainder would need t2^(L + 2): past the limit, so inexact
    with pytest.raises(ValueError, match="inexact polynomial division"):
        (ring.var(2, L) * t1 * t1).divide_exact(t1 * t1 + t2 * t2)
    with pytest.raises(ZeroDivisionError):
        t1.divide_exact(ring.zero())


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_a_matrix_changed_after_a_product_gives_the_right_next_product(field):
    """sum_of_products keeps the row lists of its right factor on the
    matrix; every way of changing that matrix afterwards is seen by the
    next product."""
    ring = RingSpec(field, 3, 1)
    rng = random.Random(5)
    A, B = _small_matrix(ring, rng, 4, 5), _small_matrix(ring, rng, 5, 3)
    changes = [
        lambda: B.set(1, 2, _small_poly(ring, rng)),  # an entry replaced
        lambda: B.set(*next(iter(B.entries)), ring.zero()),  # an entry removed
        lambda: B.entries.__setitem__((4, 0), _small_poly(ring, rng)),  # written in place
        lambda: setattr(B, "entries", dict(_small_matrix(ring, rng, 5, 3).entries)),
        lambda: B.set(0, 0, B.entry(0, 0) + ring.one()),
        lambda: B.set(0, 0, Polynomial(ring, dict(B.entry(0, 0).terms))),  # an equal copy
    ]
    assert (A @ B).entries == oracle_sum([(1, A, B)])
    for change in changes:
        change()
        assert (A @ B).entries == oracle_sum([(1, A, B)])
        assert sum_of_products([(field.one, A, B), (field.one, A, B)]).entries == oracle_sum(
            [(2, A, B)])


def _small_matrix(ring, rng, rows, cols):
    M = PolyMatrix(ring, rows, cols)
    for i in range(rows):
        for j in range(cols):
            if rng.random() < 0.6:
                M.set(i, j, _small_poly(ring, rng))
    return M
