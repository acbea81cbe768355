import random
from fractions import Fraction

import pytest

from koszulalg.ring import FieldSpec, RingSpec
from koszulalg.linalg import (
    PolyMatrix,
    rank_exact,
    rank_probabilistic,
    evaluation_domain,
    rref,
    nullspace,
    solve,
    span_rref,
    in_span,
    scalar_rank,
)

Q = FieldSpec(0)
F2 = FieldSpec(2)
F3 = FieldSpec(3)


def _random_matrix(ring, rng, rows, cols, density=0.4, max_deg=3):
    M = PolyMatrix(ring, rows, cols)
    for i in range(rows):
        for j in range(cols):
            if rng.random() > density:
                continue
            p = ring.zero()
            for _ in range(rng.randint(1, 2)):
                exps = [0] * ring.num_vars
                for _ in range(rng.randint(0, max_deg)):
                    exps[rng.randrange(ring.num_vars)] += 1
                c = ring.field.of(rng.randint(1, 4) if ring.field.characteristic == 0
                                  else rng.randrange(1, ring.field.characteristic))
                p = p + ring.monomial(exps, c)
            if not p.is_zero():
                M.entries[(i, j)] = p
    return M


class TestRankExact:
    def test_identity_and_zero(self):
        ring = RingSpec(Q, 2, 1)
        assert rank_exact(PolyMatrix.identity(ring, 5)) == 5
        assert rank_exact(PolyMatrix.zero(ring, 3, 4)) == 0

    def test_known_rank_drop(self):
        # second column is t1 times the first
        ring = RingSpec(Q, 2, 1)
        M = PolyMatrix(ring, 2, 2)
        M.entries[(0, 0)] = ring.parse("t1 + t2")
        M.entries[(1, 0)] = ring.parse("t2^2")
        M.entries[(0, 1)] = ring.parse("t1^2 + t1*t2")
        M.entries[(1, 1)] = ring.parse("t1*t2^2")
        assert rank_exact(M) == 1

    def test_diagonal_polynomials(self):
        ring = RingSpec(F2, 3, 1)
        M = PolyMatrix(ring, 3, 3)
        for i in range(3):
            M.entries[(i, i)] = ring.var(i + 1, 2)
        assert rank_exact(M) == 3

    def test_rank_is_transpose_invariant(self):
        ring = RingSpec(Q, 2, 1)
        rng = random.Random(7)
        for _ in range(10):
            M = _random_matrix(ring, rng, 4, 5)
            assert rank_exact(M) == rank_exact(M.transpose())


class TestRankProbabilistic:
    @pytest.mark.parametrize("field", [Q, F2, F3], ids=["Q", "F2", "F3"])
    def test_agrees_with_exact(self, field):
        ring = RingSpec(field, 2, 1)
        rng = random.Random(13)
        for trial in range(25):
            M = _random_matrix(ring, rng, rng.randint(1, 6), rng.randint(1, 6))
            exact = rank_exact(M)
            for seed in range(2):
                assert rank_probabilistic(M, seed=seed) == exact

    def test_never_exceeds_exact(self):
        ring = RingSpec(F2, 3, 1)
        rng = random.Random(99)
        for _ in range(10):
            M = _random_matrix(ring, rng, 5, 5)
            assert rank_probabilistic(M, seed=3) <= rank_exact(M)

    def test_deterministic_given_seed(self):
        ring = RingSpec(Q, 2, 1)
        M = _random_matrix(ring, random.Random(1), 6, 6)
        assert rank_probabilistic(M, seed=5) == rank_probabilistic(M, seed=5)


class TestEvaluationDomains:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_extension_field_axioms(self, p):
        ops = evaluation_domain(FieldSpec(p))
        rng = random.Random(0)
        for _ in range(20):
            a = ops.random_element(rng)
            b = ops.random_element(rng)
            c = ops.random_element(rng)
            assert ops.mul(a, ops.mul(b, c)) == ops.mul(ops.mul(a, b), c)
            assert ops.mul(a, ops.add(b, c)) == ops.add(ops.mul(a, b), ops.mul(a, c))
            if not ops.is_zero(a):
                assert ops.mul(a, ops.inv(a)) == ops.one

    def test_domain_is_large(self):
        for p in (2, 3):
            ops = evaluation_domain(FieldSpec(p))
            deg = getattr(ops, "k", None) or ops.modulus.bit_length() - 1
            assert p ** deg >= 2 ** 61


def _field_cases():
    def rational(rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def residue(p):
        return lambda rng: rng.randrange(p)

    cases = [
        ("Q", Q, rational),
        ("F2", F2, residue(2)),
        ("F3", F3, residue(3)),
        ("F5", FieldSpec(5), residue(5)),
    ]
    for p in (2, 3):
        dom = evaluation_domain(FieldSpec(p))
        cases.append((f"F{p}-ext", dom, dom.random_element))
    return cases


@pytest.mark.parametrize(
    "field, element", [pytest.param(f, e, id=name) for name, f, e in _field_cases()]
)
def test_scalar_protocol(field, element):
    f = field
    rng = random.Random(7)
    assert f.is_zero(f.zero) and not f.is_zero(f.one)
    assert f.of(0) == f.zero and f.of(1) == f.one
    assert f.of_coeff(1) == f.one
    acc = f.zero
    for n in range(6):
        assert f.of(n) == acc
        acc = f.add(acc, f.one)
    for _ in range(25):
        a, b = element(rng), element(rng)
        assert f.add(a, f.zero) == a and f.mul(a, f.one) == a
        assert f.is_zero(f.mul(a, f.zero))
        assert f.sub(f.add(a, b), b) == a
        assert f.add(a, f.neg(a)) == f.zero and f.is_zero(f.sub(a, a))
        assert f.sub(a, b) == f.add(a, f.neg(b))
        assert f.mul(a, b) == f.mul(b, a)
        power = f.one
        for k in range(5):
            assert f.pow(a, k) == power
            power = f.mul(power, a)
        if not f.is_zero(b):
            assert f.mul(b, f.inv(b)) == f.one
            assert f.div(f.mul(a, b), b) == a
    with pytest.raises(ZeroDivisionError):
        f.inv(f.zero)


class TestScalarLinalg:
    def test_rref_solve_nullspace(self):
        ops = Q
        rows = [[Q.of(1), Q.of(2), Q.of(3)], [Q.of(2), Q.of(4), Q.of(6)]]
        assert scalar_rank(rows, ops) == 1
        ns = nullspace(rows, 3, ops)
        assert len(ns) == 2
        for v in ns:
            assert all(
                ops.is_zero(sum((r[i] * v[i] for i in range(3)), Q.zero))
                for r in rows
            )
        x = solve([[Q.of(1), Q.of(1)], [Q.of(1), Q.of(-1)]], [Q.of(3), Q.of(1)], ops)
        assert x == [Q.of(2), Q.of(1)]
        assert solve([[Q.of(0), Q.of(0)]], [Q.of(1)], ops) is None

    def test_span_membership(self):
        ops = F3
        basis = span_rref([[1, 2, 0], [0, 1, 1]], ops)
        assert in_span(basis, [1, 0, 1], ops)  # (1,2,0) - 2*(0,1,1) = (1,0,-2) = (1,0,1)
        assert not in_span(basis, [0, 0, 1], ops)
