import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from koszulalg import chainmaps, linalg
from koszulalg.ring import FieldSpec, RingSpec
from koszulalg.linalg import (
    Echelon,
    GF2ExtOps,
    PolyMatrix,
    _find_gf2_modulus,
    _find_gfp_modulus,
    dense,
    sparse,
    rank_exact,
    rank_probabilistic,
    evaluation_domain,
    rref,
    solve,
    scalar_rank,
    span,
)

from bareiss import bareiss_rank

Q = FieldSpec(0)
F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)
P61 = 2**61 - 1


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

    @pytest.mark.parametrize("field", [Q, F2, F3, F5], ids=["Q", "F2", "F3", "F5"])
    def test_three_methods_agree(self, field):
        """Bareiss, the certified evaluation rank and the evaluation lower
        bound on the rank-oracle distribution."""
        ring = RingSpec(field, 3, 1)
        rng = random.Random(31)
        for _ in range(30):
            M = _random_matrix(ring, rng, rng.randint(1, 7), rng.randint(1, 7))
            exact = bareiss_rank(M)
            assert rank_exact(M) == exact
            assert rank_probabilistic(M, seed=0) == exact

    def test_survey_map_below_full_rank(self, monkeypatch):
        """The rank-14 map F2-r4-dense#56 of the survey benchmark: the
        evaluation rank is below full rank, so the kernel certificate
        decides, and it holds at the first point."""
        ring = RingSpec(F2, 4, 1)
        iota, Km, K0 = chainmaps.standard_iota(ring, 1)
        h = chainmaps.random_homotopy(Km.base, K0.base, random.Random(56), homogeneous=True)
        gamma = chainmaps.perturb(iota, h)
        certificates = _spy(monkeypatch, "_rank_at_most")
        assert rank_exact(gamma.matrix) == 14 == bareiss_rank(gamma.matrix)
        assert certificates == [True]


def _spy(monkeypatch, name, record=lambda args, result: result):
    """Replace linalg.<name> by a wrapper; returns the list that records
    `record(args, result)` of each call (or args, result=None on a raise)."""
    calls = []
    original = getattr(linalg, name)

    def wrapper(*args):
        try:
            result = original(*args)
        except Exception:
            calls.append(record(args, None))
            raise
        calls.append(record(args, result))
        return result

    monkeypatch.setattr(linalg, name, wrapper)
    return calls


class TestRankRetries:
    """The paths where the first evaluation field or point does not
    decide the rank."""

    def _fields_tried(self, monkeypatch):
        return _spy(monkeypatch, "_rows_at_point", lambda args, _: args[1].characteristic)

    def test_multiple_of_the_prime_peels(self, monkeypatch):
        # a single entry is peeled: no evaluation field is needed
        fields = self._fields_tried(monkeypatch)
        ring = RingSpec(Q, 1, 1)
        M = PolyMatrix(ring, 1, 1, {(0, 0): ring.monomial((1,), P61)})
        assert rank_exact(M) == 1 and fields == []

    def test_row_vanishing_mod_p_takes_the_next_prime(self, monkeypatch):
        # mod 2**61 - 1 the first row is zero, so the rank there is 1; the
        # kernel certificate fails over Q and the next prime gives 2
        ring = RingSpec(Q, 2, 1)
        M = PolyMatrix(ring, 2, 2, {
            (0, 0): ring.monomial((1, 0), P61), (0, 1): ring.monomial((0, 1), P61),
            (1, 0): ring.var(2), (1, 1): ring.var(1),
        })
        fields = self._fields_tried(monkeypatch)
        assert rank_exact(M) == 2 == bareiss_rank(M)
        assert fields[0] == P61 and len(fields) == 2 and fields[1] < P61
        assert rank_probabilistic(M, seed=0) == 1  # a lower bound, here strict

    def test_denominator_divisible_by_the_prime(self, monkeypatch):
        ring = RingSpec(Q, 2, 1)
        M = PolyMatrix(ring, 2, 2, {
            (0, 0): ring.monomial((1, 0), Fraction(1, P61)), (0, 1): ring.var(2),
            (1, 0): ring.var(2), (1, 1): ring.var(1),
        })
        fields = self._fields_tried(monkeypatch)
        assert rank_exact(M) == 2
        assert rank_probabilistic(M, seed=0) == 2
        # both ranks try 2**61 - 1, where the entry has no residue, then the next prime
        assert fields[0] == P61 and fields[1] < P61 and fields[2:] == fields[:2]

    @pytest.mark.parametrize("field", [Q, F2, F3], ids=["Q", "F2", "F3"])
    def test_peeled_matrices_need_no_evaluation_field(self, field, monkeypatch):
        def refuse(field):
            raise AssertionError("evaluation_domain called")

        monkeypatch.setattr(linalg, "evaluation_domain", refuse)
        ring = RingSpec(field, 2, 1)
        triangular = PolyMatrix(ring, 3, 3, {
            (0, 0): ring.var(1), (0, 1): ring.var(2), (0, 2): ring.parse("t1*t2 + 1"),
            (1, 1): ring.var(1, 2), (1, 2): ring.var(2), (2, 2): ring.parse("t1 + t2"),
        })
        for M, rank in [(PolyMatrix.zero(ring, 3, 4), 0),
                        (PolyMatrix.identity(ring, 4), 4), (triangular, 3)]:
            assert rank_exact(M) == rank == rank_probabilistic(M, seed=1)
            assert rank_exact(M.transpose()) == rank


@st.composite
def rank_dropped_matrices(draw):
    """(M, b): b random columns over k[t1, t2], then 1-3 columns that are
    polynomial combinations of them, shuffled; so rank M <= b."""
    field = draw(st.sampled_from([Q, F2, F3, F5]))
    ring = RingSpec(field, 2, 1)
    monomial = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(1, 4))

    def poly():
        p = ring.zero()
        for a, b, c in draw(st.lists(monomial, max_size=3)):
            p = p + ring.monomial((a, b), c)
        return p

    rows = draw(st.integers(1, 5))
    base = draw(st.integers(1, 4))
    columns = [[poly() for _ in range(rows)] for _ in range(base)]
    for _ in range(draw(st.integers(1, 3))):
        factors = [poly() for _ in range(base)]
        combination = []
        for i in range(rows):
            entry = ring.zero()
            for f, col in zip(factors, columns):
                entry = entry + f * col[i]
            combination.append(entry)
        columns.append(combination)
    order = draw(st.permutations(range(len(columns))))
    M = PolyMatrix(ring, rows, len(columns))
    for j, c in enumerate(order):
        for i, p in enumerate(columns[c]):
            M.set(i, j, p)
    return M, base


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rank_dropped_matrices())
def test_forced_rank_drops(case):
    M, base = case
    exact = bareiss_rank(M)
    assert exact <= base
    assert rank_exact(M) == exact == rank_exact(M.transpose())
    assert rank_probabilistic(M, seed=0) <= exact


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
        ns = [dense(v, 3, ops) for v in _span(rows, ops).nullspace(range(3))]
        assert len(ns) == 2
        for v in ns:
            assert all(
                ops.is_zero(sum((r[i] * v[i] for i in range(3)), Q.zero))
                for r in rows
            )
        # x + y = 3, x - y = 1, as the sparse rows of [A | b]
        system = [{0: Q.of(1), 1: Q.of(1), 2: Q.of(3)}, {0: Q.of(1), 1: Q.of(-1), 2: Q.of(1)}]
        x = solve(system, 2, ops)
        assert x == {0: Q.of(2), 1: Q.of(1)}
        assert solve([{2: Q.of(1)}], 2, ops) is None  # 0 x + 0 y = 1

    def test_span_membership(self):
        ops = F3
        E = _span([[1, 2, 0], [0, 1, 1]], ops)
        assert not E.reduce({0: 1, 2: 1})  # (1,2,0) - 2*(0,1,1) = (1,0,-2) = (1,0,1)
        assert E.reduce({2: 1})


def dot(row, vec, ops):
    """Dot product of two dense vectors."""
    acc = ops.zero
    for a, x in zip(row, vec):
        acc = ops.add(acc, ops.mul(a, x))
    return acc


def _span(rows, ops):
    """The Echelon of the rows of a dense matrix."""
    return span([sparse(row, ops) for row in rows], ops)


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


def _solve_dense(rows, rhs, ops):
    """solve() on the dense system A x = rhs, with its answer made dense."""
    ncols = len(rows[0]) if rows else 0
    x = solve([sparse(list(r) + [b], ops) for r, b in zip(rows, rhs)], ncols, ops)
    return None if x is None else dense(x, ncols, ops)


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
    yield "Q", Q, lambda rng: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    for p in (2, 3, 5):
        yield f"F{p}", FieldSpec(p), lambda rng, p=p: rng.randrange(p)
    for p in (2, 5):
        dom = evaluation_domain(FieldSpec(p))
        # mostly small elements, so that sums cancel and ranks drop
        yield f"F{p}-ext", dom, lambda rng, dom=dom: (
            dom.random_element(rng) if rng.random() < 0.3 else dom.of(rng.randrange(p))
        )


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


KERNEL_CASES = [pytest.param(f, e, id=name) for name, f, e in _kernel_fields()]


@pytest.mark.parametrize("ops, element", KERNEL_CASES)
def test_kernel_matches_gauss_jordan(ops, element):
    rng = random.Random(2008)
    for _ in range(4):
        for rows in _matrices(ops, element, rng):
            ncols = len(rows[0]) if rows else 0
            red, pivots = gauss_jordan(rows, ops)
            assert rref(rows, ops) == (red, pivots)
            E = _span(rows, ops)
            assert [dense(E.rows[c], ncols, ops) for c in sorted(E.rows)] == red
            assert scalar_rank(rows, ops) == len(pivots)
            ns = [dense(v, ncols, ops) for v in E.nullspace(range(ncols))]
            assert ns == _oracle_nullspace(rows, ncols, ops)
            assert len(ns) == ncols - len(pivots)
            for v in ns:
                assert all(ops.is_zero(dot(row, v, ops)) for row in rows)
            x = [element(rng) for _ in range(ncols)]
            for rhs in ([dot(row, x, ops) for row in rows], [element(rng) for _ in rows]):
                got = _solve_dense(rows, rhs, ops)
                assert got == _oracle_solve(rows, rhs, ops)
                if got is not None:
                    assert [dot(row, got, ops) for row in rows] == rhs
            v = [element(rng) for _ in range(ncols)]
            inside = len(gauss_jordan(rows + [v], ops)[1]) == len(pivots)
            assert (not E.reduce(sparse(v, ops))) == inside
            y = [element(rng) for _ in rows]
            combination = [dot([row[c] for row in rows], y, ops) for c in range(ncols)]
            assert not E.reduce(sparse(combination, ops))


@pytest.mark.parametrize("ops, element", KERNEL_CASES)
def test_kernel_add_reports_rank_growth(ops, element):
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


# ---------------------------------------------------------------------------
# F_{p^k} arithmetic against schoolbook multiplication and Fermat inversion
# ---------------------------------------------------------------------------


def schoolbook_mul(dom, a, b):
    """Product in F_{p^k}: every coefficient pair multiplied, then x^(k+i)
    reduced one at a time through x^k = modulus.  The reference for mul."""
    p, k = dom.p, dom.k
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for i in range(2 * k - 2, k - 1, -1):
        c, prod[i] = prod[i], 0
        for j, m in enumerate(dom.modulus):
            prod[i - k + j] = (prod[i - k + j] + c * m) % p
    return tuple(prod[:k])


def fermat_inv(dom, a):
    """a^(p^k - 2) by square and multiply.  The reference for inv."""
    acc, n = dom.one, dom.p**dom.k - 2
    while n:
        if n & 1:
            acc = schoolbook_mul(dom, acc, a)
        a = schoolbook_mul(dom, a, a)
        n >>= 1
    return acc


@pytest.mark.parametrize("p", [3, 5, 7, 83, 2**61 - 1])
def test_gfp_ext_matches_schoolbook(p):
    """mul and inv of the evaluation field of F_p equal the references, on
    the extreme elements and on seeded dense and sparse random ones."""
    dom = evaluation_domain(FieldSpec(p))
    k = dom.k
    rng = random.Random(p)
    elements = [dom.zero, dom.one, dom.of(2), dom.of(p - 1),
                (p - 1,) * k,  # every product slot at its largest sum
                (0,) * (k - 1) + (1,)]  # x^(k-1): x^(2k-2) has the longest fold
    elements += [dom.random_element(rng) for _ in range(8)]
    elements += [tuple(rng.randrange(p) if rng.random() < 0.2 else 0 for _ in range(k))
                 for _ in range(6)]
    for a in elements:
        for b in elements:
            assert dom.mul(a, b) == schoolbook_mul(dom, a, b)
        if not dom.is_zero(a):
            inv = dom.inv(a)
            assert inv == fermat_inv(dom, a)
            assert dom.mul(a, inv) == dom.one
    with pytest.raises(ZeroDivisionError):
        dom.inv(dom.zero)


# ---------------------------------------------------------------------------
# F_{2^n} arithmetic against the bitwise references
# ---------------------------------------------------------------------------


def gf2_bitwise_mul(dom, a, b):
    """Shift-and-add product, reduced one bit at a time.  The reference for mul."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> dom.degree:
            a ^= dom.modulus
    return acc


def gf2_fermat_inv(dom, a):
    """a^(2^n - 2) by square and multiply.  The reference for inv."""
    acc, n = 1, 2**dom.degree - 2
    while n:
        if n & 1:
            acc = gf2_bitwise_mul(dom, acc, a)
        a = gf2_bitwise_mul(dom, a, a)
        n >>= 1
    return acc


@pytest.mark.parametrize("degree", [2, 3, 8, 13, 61])
def test_gf2_ext_matches_bitwise(degree):
    """mul, inv and the reduction table of F_{2^n} against the references,
    on 0, 1, x^(n-1), x^(n-1) + 1, all ones and seeded random elements."""
    dom = GF2ExtOps(degree, _find_gf2_modulus(degree))
    top = 1 << (degree - 1)
    rng = random.Random(degree)
    elements = [0, 1, top, top | 1, 2 * top - 1]
    elements += [dom.random_element(rng) for _ in range(10)]
    for h, reduced in enumerate(dom._reduce):
        x = h << degree
        while x >> degree:
            x ^= dom.modulus << (x.bit_length() - 1 - degree)
        assert reduced == x
    for a in elements:
        for b in elements:
            assert dom.mul(a, b) == gf2_bitwise_mul(dom, a, b)
        if a:
            inv = dom.inv(a)
            assert inv == gf2_fermat_inv(dom, a)
            assert dom.mul(a, inv) == 1
    with pytest.raises(ZeroDivisionError):
        dom.inv(0)


def test_gf2_evaluation_field():
    """The F_2 evaluation field is F_{2^61}, and x^60 is its top element."""
    dom = evaluation_domain(F2)
    assert dom.degree == 61
    assert dom.mul(1 << 60, 2) == dom.modulus ^ (1 << 61)
