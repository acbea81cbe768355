import random
from fractions import Fraction

import pytest

from koszulalg.ring import FieldSpec, RingSpec
from koszulalg.linalg import (
    Echelon,
    PolyMatrix,
    _find_gfp_modulus,
    dense,
    dot,
    sparse,
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


# ---------------------------------------------------------------------------
# the sparse elimination kernel against dense Gauss-Jordan
# ---------------------------------------------------------------------------


def gauss_jordan(rows, ops):
    """Dense Gauss-Jordan RREF, (rows, pivots): the reference for Echelon."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pivot_row = next((i for i in range(r, len(rows)) if not ops.is_zero(rows[i][c])), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ops.inv(rows[r][c])
        rows[r] = [ops.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not ops.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [ops.sub(x, ops.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _oracle_nullspace(rows, ncols, ops):
    red, pivots = gauss_jordan(rows, ops)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [ops.zero] * ncols
        v[fc] = ops.one
        for row, pc in zip(red, pivots):
            v[pc] = ops.neg(row[fc])
        basis.append(v)
    return basis


def _oracle_solve(rows, rhs, ops):
    if not rows:
        return None if any(not ops.is_zero(b) for b in rhs) else []
    ncols = len(rows[0])
    red, pivots = gauss_jordan([list(r) + [b] for r, b in zip(rows, rhs)], ops)
    if ncols in pivots:
        return None
    x = [ops.zero] * ncols
    for row, pc in zip(red, pivots):
        x[pc] = row[ncols]
    return x


def _kernel_fields():
    yield "Q", Q, lambda rng: Fraction(rng.randint(-4, 4), rng.randint(1, 3)), 4
    for p in (2, 3, 5):
        yield f"F{p}", FieldSpec(p), lambda rng, p=p: rng.randrange(p), 4
    for p in (2, 5):
        dom = evaluation_domain(FieldSpec(p))
        # mostly small elements, so that sums cancel and ranks drop; one
        # round only, as an inverse in F_{5^27} costs milliseconds
        yield f"F{p}-ext", dom, lambda rng, dom=dom: (
            dom.random_element(rng) if rng.random() < 0.3 else dom.of(rng.randrange(p))
        ), 1


def _matrices(ops, element, rng):
    """Empty, all-zero, tall, wide, square and rank-deficient matrices."""
    def random(n, m, density=0.7):
        return [[element(rng) if rng.random() < density else ops.zero for _ in range(m)]
                for _ in range(n)]

    yield []
    yield [[ops.zero] * 4 for _ in range(3)]
    yield [[ops.zero] * 3]
    for n, m in [(1, 1), (1, 5), (5, 1), (7, 3), (3, 7), (5, 5), (6, 6)]:
        yield random(n, m)
        yield random(n, m, density=0.25)
    for n, m, k in [(6, 5, 2), (4, 7, 3), (7, 7, 1)]:
        left, right = random(n, k, 1.0), random(k, m, 1.0)
        yield [[dot(a, [right[t][j] for t in range(k)], ops) for j in range(m)] for a in left]


KERNEL_CASES = [pytest.param(f, e, n, id=name) for name, f, e, n in _kernel_fields()]


@pytest.mark.parametrize("ops, element, rounds", KERNEL_CASES)
def test_kernel_matches_gauss_jordan(ops, element, rounds):
    rng = random.Random(2008)
    for _ in range(rounds):
        for rows in _matrices(ops, element, rng):
            ncols = len(rows[0]) if rows else 0
            red, pivots = gauss_jordan(rows, ops)
            assert rref(rows, ops) == (red, pivots)
            assert span_rref(rows, ops) == red
            assert scalar_rank(rows, ops) == len(pivots)
            ns = nullspace(rows, ncols, ops)
            assert ns == _oracle_nullspace(rows, ncols, ops)
            assert len(ns) == ncols - len(pivots)
            for v in ns:
                assert all(ops.is_zero(dot(row, v, ops)) for row in rows)
            x = [element(rng) for _ in range(ncols)]
            for rhs in ([dot(row, x, ops) for row in rows], [element(rng) for _ in rows]):
                got = solve(rows, rhs, ops)
                assert got == _oracle_solve(rows, rhs, ops)
                if got is not None:
                    assert [dot(row, got, ops) for row in rows] == rhs
            v = [element(rng) for _ in range(ncols)]
            inside = len(gauss_jordan(rows + [v], ops)[1]) == len(pivots)
            assert in_span(red, v, ops) == inside
            y = [element(rng) for _ in rows]
            assert in_span(red, [dot([row[c] for row in rows], y, ops) for c in range(ncols)], ops)


@pytest.mark.parametrize("ops, element, rounds", KERNEL_CASES)
def test_kernel_add_reports_rank_growth(ops, element, rounds):
    """add() is True exactly when the rank grows, and the rows are the
    canonical RREF of the rows added so far at every step."""
    rng = random.Random(17)
    for rows in _matrices(ops, element, rng):
        E = Echelon(ops)
        rank = 0
        for k, row in enumerate(rows):
            red, pivots = gauss_jordan(rows[: k + 1], ops)
            assert E.add(sparse(row, ops)) == (len(pivots) > rank)
            rank = len(pivots)
            assert E.rank == rank and sorted(E.rows) == pivots
            assert [dense(E.rows[c], len(row), ops) for c in pivots] == red
            assert all(not ops.is_zero(x) for r in E.rows.values() for x in r.values())


def test_gfp_modulus_is_pinned():
    """The irreducible moduli of the F_3 and F_5 evaluation fields."""
    assert _find_gfp_modulus(3, 39) == (1, 0, 2, 1, 0, 2) + (0,) * 33
    assert _find_gfp_modulus(5, 27) == (4, 4) + (0,) * 25
