import functools
import importlib.util
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from koszulalg import chainmaps, linalg
from koszulalg.ring import FieldSpec, RingSpec, evaluator
from koszulalg.linalg import (
    Echelon,
    GF2ExtOps,
    PolyMatrix,
    _find_gfp_modulus,
    dense,
    sparse,
    rank_exact,
    rank_probabilistic,
    evaluation_domain,
    rref,
    solve,
    span,
)

from bareiss import bareiss_rank
from conftest import scalar_rank
from echelon_rows import echelon_rows_at_point
from gf2_oracle import WindowGF2ExtOps
from gfp_oracle import TupleGFPExtOps, list_modulus

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


@pytest.fixture(autouse=True)
def _kept_evaluators_are_the_library_fields():
    """No test leaves behind an evaluator that rank_exact keeps for a
    field other than the library's own evaluation fields, such as an
    oracle field a test put into `_EXT_CACHE`."""
    yield
    fields = {id(ops) for ops in linalg._EXT_CACHE.values()}
    assert all(isinstance(ops, FieldSpec) or id(ops) in fields for ops, _ in linalg._EVALUATORS)


def _cores(M):
    """The peeled core of M and all of M, as rows {i: {j: entry}}."""
    whole = {}
    for (i, j), entry in M.entries.items():
        whole.setdefault(i, {})[j] = entry
    return linalg._peel(M)[1], whole


def _value_at(ops, seed, num_vars):
    """The evaluator at the first point that a Random(seed) draws in `ops`,
    the point rank_probabilistic(M, seed) tries first."""
    rng = random.Random(seed)
    return evaluator([ops.random_element(rng) for _ in range(num_vars)], ops)


def _transpose(M):
    T = PolyMatrix(M.ring, M.cols, M.rows)
    T.entries = {(j, i): p for (i, j), p in M.entries.items()}
    return T


class TestRankExact:
    def test_identity_and_zero(self):
        ring = RingSpec(Q, 2, 1)
        assert rank_exact(PolyMatrix.identity(ring, 5)) == 5
        assert rank_exact(PolyMatrix(ring, 3, 4)) == 0

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
            assert rank_exact(M) == rank_exact(_transpose(M))

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
        M = PolyMatrix(ring, 1, 1)
        M.entries = {(0, 0): ring.monomial((1,), P61)}
        assert rank_exact(M) == 1 and fields == []

    def test_row_vanishing_mod_p_takes_the_next_prime(self, monkeypatch):
        # mod 2**61 - 1 the first row is zero, so the rank there is 1; the
        # kernel certificate fails over Q and the next prime gives 2
        ring = RingSpec(Q, 2, 1)
        M = PolyMatrix(ring, 2, 2)
        M.entries = {
            (0, 0): ring.monomial((1, 0), P61), (0, 1): ring.monomial((0, 1), P61),
            (1, 0): ring.var(2), (1, 1): ring.var(1),
        }
        fields = self._fields_tried(monkeypatch)
        assert rank_exact(M) == 2 == bareiss_rank(M)
        assert fields[0] == P61 and len(fields) == 2 and fields[1] < P61
        assert rank_probabilistic(M, seed=0) == 1  # a lower bound, here strict

    def test_denominator_divisible_by_the_prime_twice(self, monkeypatch):
        """The ValueError of a coefficient with no residue leaves nothing
        half-filled in the evaluator that rank_exact keeps at that point:
        a second run in the same process takes the same path."""
        for _ in range(2):
            self.test_denominator_divisible_by_the_prime(monkeypatch)
            monkeypatch.undo()

    def test_denominator_divisible_by_the_prime(self, monkeypatch):
        ring = RingSpec(Q, 2, 1)
        M = PolyMatrix(ring, 2, 2)
        M.entries = {
            (0, 0): ring.monomial((1, 0), Fraction(1, P61)), (0, 1): ring.var(2),
            (1, 0): ring.var(2), (1, 1): ring.var(1),
        }
        fields = self._fields_tried(monkeypatch)
        assert rank_exact(M) == 2
        assert rank_probabilistic(M, seed=0) == 2
        # both ranks try 2**61 - 1, where the entry has no residue, then the next prime
        assert fields[0] == P61 and fields[1] < P61 and fields[2:] == fields[:2]

    @pytest.mark.parametrize("field", [Q, F2, F5], ids=["Q", "F2", "F5"])
    def test_gives_up_when_no_certificate_holds(self, field, monkeypatch):
        calls = []

        def never(*args):
            calls.append(args)
            # fail rather than hang where the retries do not end
            assert len(calls) <= 100, "rank_exact still retrying after 100 points"
            return False

        monkeypatch.setattr(linalg, "_rank_at_most", never)
        ring = RingSpec(field, 2, 1)
        M = PolyMatrix(ring, 2, 2)
        M.entries = {
            (0, 0): ring.var(1), (0, 1): ring.var(2), (1, 0): ring.var(2), (1, 1): ring.var(1),
        }
        with pytest.raises(RuntimeError) as failure:
            rank_exact(M)
        assert len(calls) == linalg._POINTS
        assert f"at {linalg._POINTS} evaluation points" in str(failure.value)

    @pytest.mark.parametrize("field", [Q, F2, F3], ids=["Q", "F2", "F3"])
    def test_peeled_matrices_need_no_evaluation_field(self, field, monkeypatch):
        def refuse(field):
            raise AssertionError("evaluation_domain called")

        monkeypatch.setattr(linalg, "evaluation_domain", refuse)
        ring = RingSpec(field, 2, 1)
        triangular = PolyMatrix(ring, 3, 3)
        triangular.entries = {
            (0, 0): ring.var(1), (0, 1): ring.var(2), (0, 2): ring.parse("t1*t2 + 1"),
            (1, 1): ring.var(1, 2), (1, 2): ring.var(2), (2, 2): ring.parse("t1 + t2"),
        }
        for M, rank in [(PolyMatrix(ring, 3, 4), 0),
                        (PolyMatrix.identity(ring, 4), 4), (triangular, 3)]:
            assert rank_exact(M) == rank == rank_probabilistic(M, seed=1)
            assert rank_exact(_transpose(M)) == rank


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
    assert rank_exact(M) == exact == rank_exact(_transpose(M))
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
        for p in (2, 3, 5, 7, 83, P61):
            ops = evaluation_domain(FieldSpec(p))
            deg = getattr(ops, "k", None) or ops.modulus.bit_length() - 1
            assert p ** deg >= 2 ** 61
            if p > 2:
                _check_slot_width(ops)


def _check_slot_width(dom):
    """The packed field's slot width W keeps its slots apart: 2^(W-1) >= p
    for the guard bit of sums, and the product of two elements with every
    coefficient p - 1, which bounds every other, carries between no slots
    in `mul`'s folds: its packed slots equal the same steps on lists."""
    p, k, w = dom.p, dom.k, dom.slot_width
    assert 2 ** (w - 1) >= p
    top = dom.pack([p - 1] * k)
    n = top * top
    c = [0] * (2 * k - 1)
    for i in range(k):
        for j in range(k):
            c[i + j] += (p - 1) ** 2
    fold = dom.pack(dom.modulus)
    while True:
        assert n >> (w * len(c)) == 0
        assert [n >> (w * i) & ((1 << w) - 1) for i in range(len(c))] == c
        if len(c) == k:
            break
        high, c = c[k:], c[:k] + [0] * (len(c) - 1 - k)
        for i, h in enumerate(high):
            for j, m in enumerate(dom.modulus):
                c[i + j] += h * m
        while len(c) > k and c[-1] == 0:
            c.pop()
        n = (n & ((1 << w * k) - 1)) + (n >> w * k) * fold


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


_ECHELON_FIELDS = {
    "Q": (Q, [0, 0, 0, 1, -1, 2, Fraction(1, 2)]),
    "F2": (F2, [0, 0, 1]),
    "F3": (F3, [0, 0, 1, 2]),
}


@st.composite
def echelon_steps(draw):
    """A field, a width and a sequence of (dense vector, use insert):
    small scalars over few columns, so that new pivots fill earlier rows
    and fills cancel entries.  Some vectors are sums of earlier ones."""
    ops, scalars = _ECHELON_FIELDS[draw(st.sampled_from(sorted(_ECHELON_FIELDS)))]
    ncols = draw(st.integers(1, 7))
    vectors = []
    for _ in range(draw(st.integers(1, 9))):
        if vectors and draw(st.booleans()) and draw(st.booleans()):
            a, b = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            v = [ops.add(x, y) for x, y in zip(a, b)]
        else:
            v = [ops.of(draw(st.sampled_from(scalars))) for _ in range(ncols)]
        vectors.append(v)
    return ops, ncols, [(v, draw(st.booleans())) for v in vectors]


def _check_echelon_step(E, vectors, order, ops):
    """The rows are the RREF of `vectors`, in the order their pivots were
    found, and the column index names every row that holds a column."""
    red, pivots = gauss_jordan(vectors, ops)
    assert list(E.rows) == order and sorted(order) == pivots
    assert [dense(E.rows[c], len(vectors[0]), ops) for c in pivots] == red
    for p, row in E.rows.items():
        assert all(not ops.is_zero(x) for x in row.values())
        assert all(p in E._holders[c] for c in row if c != p)
    assert not set(E._holders) & set(E.rows)


def _stale_entries(E):
    return sum(p not in E.rows or c not in E.rows[p] for c, held in E._holders.items() for p in held)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(echelon_steps())
def test_echelon_matches_gauss_jordan_at_every_step(steps):
    """add and reduce + insert keep the canonical RREF of the prefix, with
    the rows in pivot-insertion order."""
    ops, _, sequence = steps
    E = Echelon(ops)
    added, order = [], []
    for v, use_insert in sequence:
        before = set(E.rows)
        grew = E.insert(E.reduce(sparse(v, ops))) if use_insert else E.add(sparse(v, ops))
        added.append(v)
        order += sorted(set(E.rows) - before)
        assert grew == (len(order) > len(before))
        _check_echelon_step(E, added, order, ops)


@pytest.mark.parametrize("name", sorted(_ECHELON_FIELDS))
def test_echelon_index_left_stale_by_a_cancelling_fill(name):
    """Row 0 holds column 2 until the new pivot 1 fills it and cancels
    it there; the stale index entry does not disturb later steps."""
    ops = _ECHELON_FIELDS[name][0]
    one, minus = ops.one, ops.neg(ops.one)
    vectors = [[one, one, minus, 0], [0, one, minus, 0], [0, 0, one, one], [one, 0, 0, one]]
    vectors = [[ops.of(x) for x in v] for v in vectors]
    E = Echelon(ops)
    E.add(sparse(vectors[0], ops))
    E.add(sparse(vectors[1], ops))
    assert E.rows[0] == {0: one} and 0 in E._holders[2]
    assert _stale_entries(E) == 1
    for k in (2, 3):
        E.add(sparse(vectors[k], ops))
        _check_echelon_step(E, vectors[: k + 1], list(E.rows), ops)
    assert sorted(E.rows) == gauss_jordan(vectors, ops)[1]


# the smallest irreducible x^n + ... over F_2, top bit included
GF2_MODULI = {2: 0x7, 3: 0xB, 8: 0x11B, 13: 0x201B, 61: 0x2000000000000027}


def test_gfp_modulus_is_pinned():
    """The irreducible moduli of the F_3, F_5 and F_2 evaluation fields, and
    of the smaller F_{2^n} below; over F_2 the search finds the smallest."""
    assert _find_gfp_modulus(3, 39) == (1, 0, 2, 1, 0, 2) + (0,) * 33
    assert _find_gfp_modulus(5, 27) == (4, 4) + (0,) * 25
    for degree, modulus in GF2_MODULI.items():
        low = sum(c << i for i, c in enumerate(_find_gfp_modulus(2, degree)))
        assert 1 << degree | low == modulus
    assert evaluation_domain(F2).modulus == GF2_MODULI[61]


def _evaluation_degree(p):
    """The least k with p^k >= 2^61, as `evaluation_domain` picks it."""
    return next(k for k in itertools.count(2) if p**k >= 2**61)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 31, 101])
def test_packed_modulus_search_matches_list_search(p):
    """The packed Ben-Or search returns the modulus of the list search in
    `gfp_oracle`, which takes one gcd per step on coefficient lists, for
    k = 1..12 and at the evaluation degree of p."""
    for k in [*range(1, 13), _evaluation_degree(p)]:
        assert _find_gfp_modulus(p, k) == list_modulus(p, k), k


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
    acc, n = (1,) + (0,) * (dom.k - 1), dom.p**dom.k - 2
    while n:
        if n & 1:
            acc = schoolbook_mul(dom, acc, a)
        a = schoolbook_mul(dom, a, a)
        n >>= 1
    return acc


@pytest.mark.parametrize("p", [3, 5, 7, 13, 83, P61])
def test_gfp_ext_matches_schoolbook(p):
    """mul and inv of the evaluation field of F_p equal the references, on
    the extreme elements and on seeded dense and sparse random ones.  The
    references work on coefficient tuples, converted by pack and unpack."""
    dom = evaluation_domain(FieldSpec(p))
    k = dom.k
    rng = random.Random(p)

    def coefficients(a):
        return tuple(dom.unpack(a))

    elements = [coefficients(x) for x in (dom.zero, dom.one, dom.of(2), dom.of(p - 1))]
    elements += [(p - 1,) * k,  # every product slot at its largest sum
                 (0,) * (k - 1) + (1,)]  # x^(k-1): x^(2k-2) has the longest fold
    elements += [coefficients(dom.random_element(rng)) for _ in range(8)]
    elements += [tuple(rng.randrange(p) if rng.random() < 0.2 else 0 for _ in range(k))
                 for _ in range(6)]
    for a in elements:
        for b in elements:
            assert coefficients(dom.mul(dom.pack(a), dom.pack(b))) == schoolbook_mul(dom, a, b)
        if not dom.is_zero(dom.pack(a)):
            inv = dom.inv(dom.pack(a))
            assert coefficients(inv) == fermat_inv(dom, a)
            assert dom.mul(dom.pack(a), inv) == dom.one
    with pytest.raises(ZeroDivisionError):
        dom.inv(dom.zero)


@functools.cache
def _tuple_oracle(p):
    return TupleGFPExtOps(p, evaluation_domain(FieldSpec(p)).k)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 83, P61])
def test_packed_field_matches_tuple_oracle(p):
    """Every operation of the packed field equals the tuple oracle's on 0,
    1, the element with every coefficient p - 1, x^(k-1), and seeded sparse
    and dense random elements; random_element draws the oracle's
    coefficients from the same random state and leaves the same state."""
    dom, oracle = evaluation_domain(FieldSpec(p)), _tuple_oracle(p)
    k = dom.k
    assert oracle.modulus == dom.modulus

    def coefficients(a):
        return tuple(dom.unpack(a))

    rng = random.Random(p + 1)
    elements = [oracle.zero, oracle.one, (p - 1,) * k, (0,) * (k - 1) + (1,)]
    elements += [oracle.random_element(rng) for _ in range(5)]
    elements += [tuple(rng.randrange(p) if rng.random() < 0.2 else 0 for _ in range(k))
                 for _ in range(5)]
    for a in elements:
        A = dom.pack(a)
        assert coefficients(A) == a
        assert dom.is_zero(A) == oracle.is_zero(a)
        assert coefficients(dom.neg(A)) == oracle.neg(a)
        if not oracle.is_zero(a):
            assert coefficients(dom.inv(A)) == oracle.inv(a)
        for b in elements:
            B = dom.pack(b)
            assert coefficients(dom.add(A, B)) == oracle.add(a, b)
            assert coefficients(dom.sub(A, B)) == oracle.sub(a, b)
            assert coefficients(dom.mul(A, B)) == oracle.mul(a, b)
            if not oracle.is_zero(b):
                assert coefficients(dom.div(A, B)) == oracle.div(a, b)
    for n in (0, 1, 2, p - 1, p, p + 1, -1, -p, 10**30):
        assert coefficients(dom.of(n)) == oracle.of(n)
    assert dom.zero == 0 and dom.one == 1
    for seed in range(5):
        mine, theirs = random.Random(seed), random.Random(seed)
        assert coefficients(dom.random_element(mine)) == oracle.random_element(theirs)
        assert mine.getstate() == theirs.getstate()
    with pytest.raises(ZeroDivisionError):
        dom.inv(dom.zero)


@pytest.fixture(scope="module")
def random_poly_matrix():
    """The benchmark's rank-oracle matrix generator, perfbench/gen.py."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.random_poly_matrix


@pytest.mark.parametrize("p", [3, 5, 7])
def test_packed_field_gives_the_same_ranks(p, random_poly_matrix, monkeypatch):
    """On the rank-oracle matrices of seeds 0..29, the packed field and the
    tuple oracle pick the same independent rows at the point drawn from
    the same seed, from the peeled core and from the whole matrix, and
    rank_exact and rank_probabilistic are the same with the oracle as the
    evaluation field."""
    ring = RingSpec(FieldSpec(p), 3, 1)
    packed, oracle = evaluation_domain(ring.field), _tuple_oracle(p)
    matrices = [random_poly_matrix(ring, random.Random(seed)) for seed in range(30)]
    for seed, M in enumerate(matrices):
        for rows in _cores(M):
            assert (linalg._rows_at_point(rows, packed, _value_at(packed, seed, ring.num_vars))
                    == linalg._rows_at_point(rows, oracle, _value_at(oracle, seed, ring.num_vars)))
    ranks = [(rank_exact(M), rank_probabilistic(M, seed)) for seed, M in enumerate(matrices)]
    monkeypatch.setattr(linalg, "_EVALUATORS", {})
    monkeypatch.setitem(linalg._EXT_CACHE, p, oracle)
    assert evaluation_domain(ring.field) is oracle
    assert [(rank_exact(M), rank_probabilistic(M, seed))
            for seed, M in enumerate(matrices)] == ranks


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


def gf2_reduce(dom, x):
    """x mod the modulus by long division, in the bit form."""
    while x >> dom.degree:
        x ^= dom.modulus << (x.bit_length() - 1 - dom.degree)
    return x


@pytest.mark.parametrize("degree", sorted(GF2_MODULI))
def test_gf2_ext_matches_bitwise(degree):
    """mul, inv and the packed fold of F_{2^n} against the references, on
    0, 1, x^(n-1), x^(n-1) + 1, all ones and seeded random elements.  The
    references work on the bit form, converted by pack and unpack."""
    dom = GF2ExtOps(degree, GF2_MODULI[degree])
    top = 1 << (degree - 1)
    rng = random.Random(degree)
    elements = [0, 1, top, top | 1, 2 * top - 1]
    elements += [dom.unpack(dom.random_element(rng)) for _ in range(10)]
    for i in range(degree):
        assert dom.pack(1 << i) == 1 << 8 * i  # coefficient i in byte i
    # the fold is x^n mod f, and every x^(n+i) of a product reduces through it
    assert dom.unpack(dom._fold) == gf2_reduce(dom, 1 << degree)
    for i in range(degree - 1):
        assert (dom.unpack(dom.mul(dom.pack(top), dom.pack(2 << i)))
                == gf2_reduce(dom, 1 << (degree + i)))
    for a in elements:
        A = dom.pack(a)
        assert dom.unpack(A) == a
        for b in elements:
            assert dom.unpack(dom.mul(A, dom.pack(b))) == gf2_bitwise_mul(dom, a, b)
        if a:
            inv = dom.inv(A)
            assert dom.unpack(inv) == gf2_fermat_inv(dom, a)
            assert dom.mul(A, inv) == dom.one
    with pytest.raises(ZeroDivisionError):
        dom.inv(0)


def test_gf2_evaluation_field():
    """The F_2 evaluation field is F_{2^61}, and x^60 is its top element."""
    dom = evaluation_domain(F2)
    assert dom.degree == 61
    assert dom.unpack(dom.mul(dom.pack(1 << 60), dom.pack(2))) == dom.modulus ^ (1 << 61)


@pytest.mark.parametrize("degree", sorted(GF2_MODULI))
def test_gf2_random_element_matches_window_oracle(degree):
    """random_element draws the bit-form oracle's points from the same
    random state and leaves the same state."""
    dom = GF2ExtOps(degree, GF2_MODULI[degree])
    oracle = WindowGF2ExtOps(degree, GF2_MODULI[degree])
    for seed in range(5):
        mine, theirs = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert dom.unpack(dom.random_element(mine)) == oracle.random_element(theirs)
        assert mine.getstate() == theirs.getstate()


# The kinds of map of the survey benchmark, as in perfbench/workloads.py:
# label, field, r, random_homotopy options
SURVEY_KINDS = [
    ("F2-r4-dense", F2, 4, {}),
    ("Q-r4-dense", Q, 4, {}),
    ("F2-r5-sparse", F2, 5, {"zero_probability": 0.75, "max_terms": 2}),
]


@functools.cache
def _survey_maps():
    """The 180 maps of the survey benchmark, (label, seed, matrix):
    perturbations of iota at r = 4 over F_2 and Q (dense homotopies) and
    at r = 5 over F_2 (sparse ones), seeds 0..59."""
    out = []
    for label, field, r, options in SURVEY_KINDS:
        iota, Km, K0 = chainmaps.standard_iota(RingSpec(field, r, 1), 1)
        for seed in range(60):
            h = chainmaps.random_homotopy(
                Km.base, K0.base, random.Random(seed), homogeneous=True, **options
            )
            out.append((f"{label}#{seed}", seed, chainmaps.perturb(iota, h).matrix))
    return out


def _survey_f2_maps():
    """The 120 F_2 maps of the survey benchmark, (seed, matrix)."""
    return [(seed, M) for _, seed, M in _survey_maps() if M.ring.field == F2]


def test_gf2_field_gives_the_same_ranks(random_poly_matrix, monkeypatch):
    """On the 120 F_2 survey maps and the 30 F_2 rank-oracle matrices, the
    byte-slot field and the bit-form oracle pick the same independent rows
    at the point drawn from the same seed, from the peeled core and from
    the whole matrix, and rank_exact and rank_probabilistic are the same
    with the oracle as the evaluation field."""
    packed = evaluation_domain(F2)
    oracle = WindowGF2ExtOps(packed.degree, packed.modulus)
    ring = RingSpec(F2, 3, 1)
    cases = _survey_f2_maps()
    cases += [(seed, random_poly_matrix(ring, random.Random(seed))) for seed in range(30)]
    for seed, M in cases:
        r = M.ring.num_vars
        for rows in _cores(M):
            assert (linalg._rows_at_point(rows, packed, _value_at(packed, seed, r))
                    == linalg._rows_at_point(rows, oracle, _value_at(oracle, seed, r)))
    ranks = [(rank_exact(M), rank_probabilistic(M, seed)) for seed, M in cases]
    monkeypatch.setattr(linalg, "_EVALUATORS", {})
    monkeypatch.setitem(linalg._EXT_CACHE, 2, oracle)
    assert evaluation_domain(F2) is oracle
    assert [(rank_exact(M), rank_probabilistic(M, seed)) for seed, M in cases] == ranks


# ---------------------------------------------------------------------------
# the rows at a point against the reduced row echelon form, and the
# evaluators that rank_exact keeps
# ---------------------------------------------------------------------------


def _check_rows_at_point(core, ops, value):
    """The forward-only elimination names the rows that Echelon does;
    returns how many rows of the core are dependent."""
    rows = linalg._rows_at_point(core, ops, value)
    assert rows == echelon_rows_at_point(core, ops, value)
    return len(core) - len(rows)


def test_rows_at_point_on_the_survey_maps():
    ops = evaluation_domain(F2)
    for seed, M in _survey_f2_maps():
        for core in _cores(M):
            _check_rows_at_point(core, ops, _value_at(ops, seed, M.ring.num_vars))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rows_at_point_on_the_rank_oracle_matrices(p, random_poly_matrix):
    ring = RingSpec(FieldSpec(p), 3, 1)
    ops = evaluation_domain(ring.field)
    dependent = 0
    for seed in range(30):
        M = random_poly_matrix(ring, random.Random(seed))
        for core in _cores(M):
            dependent += _check_rows_at_point(core, ops, _value_at(ops, seed, 3))
    assert dependent  # some rows are in the span of those before them


def _rank_deficient_products(count):
    """Products A @ B over Q, A n x k and B k x n with k < n."""
    ring = RingSpec(Q, 3, 1)
    rng = random.Random(24)
    out = []
    for _ in range(count):
        n = rng.randint(3, 8)
        k = rng.randint(1, n - 1)
        A = _random_matrix(ring, rng, n, k, max_deg=1)
        out.append(A @ _random_matrix(ring, rng, k, n, max_deg=1))
    return out


def test_rows_at_point_on_rank_deficient_products():
    """At 2**61 - 1 and at the next prime, the field rank_exact tries next
    over Q."""
    fields = list(itertools.islice(linalg._domains(Q), 2))
    dependent = 0
    for seed, M in enumerate(_rank_deficient_products(20)):
        for ops, core in itertools.product(fields, _cores(M)):
            dependent += _check_rows_at_point(core, ops, _value_at(ops, seed, 3))
    assert dependent


def test_rows_at_point_with_duplicated_and_vanishing_rows(random_poly_matrix):
    """Cores in which every row comes twice, and cores with rows that are
    zero at the point: multiples of the prime, and multiples of t1 - x1
    for the point's first coordinate x1."""
    ring = RingSpec(Q, 3, 1)
    ops = evaluation_domain(Q)
    t1 = ring.var(1)
    matrices = [random_poly_matrix(ring, random.Random(seed)) for seed in range(15)]
    matrices += _rank_deficient_products(15)
    for seed, M in enumerate(matrices):
        value = _value_at(ops, seed, 3)
        x1 = ops.random_element(random.Random(seed))
        vanishing = t1 - ring.constant(x1)
        for core in _cores(M):
            twice = {}
            for i, row in core.items():
                twice[2 * i] = row
                twice[2 * i + 1] = dict(row)
            assert _check_rows_at_point(twice, ops, value) >= len(core)
            mixed = {}
            for i, row in core.items():
                mixed[3 * i] = {j: p * ring.constant(P61) for j, p in row.items()}
                mixed[3 * i + 1] = {j: p * vanishing for j, p in row.items()}
                mixed[3 * i + 2] = row
            assert _check_rows_at_point(mixed, ops, value) >= 2 * len(core)


class TestKeptEvaluators:
    """rank_exact keeps the evaluator of each of its fixed points."""

    def test_ranks_are_the_same_warm_cleared_and_by_bareiss(self, monkeypatch):
        cases = []
        rng = random.Random(2024)
        for field in (Q, F2, F3):
            ring = RingSpec(field, 3, 1)
            cases += [_random_matrix(ring, rng, rng.randint(2, 7), rng.randint(2, 7))
                      for _ in range(21)]
        expected = [bareiss_rank(M) for M in cases]
        assert [rank_exact(M) for M in cases] == expected
        built = _spy(monkeypatch, "evaluator")
        assert [rank_exact(M) for M in cases] == expected  # warm
        assert built == []  # every point's evaluator was kept
        cleared = []
        for M in cases:
            monkeypatch.setattr(linalg, "_EVALUATORS", {})
            cleared.append(rank_exact(M))
        assert cleared == expected

    def test_rank_probabilistic_keeps_none(self):
        """Its points change with the seed, so it keeps no evaluator."""
        ring = RingSpec(F2, 2, 1)
        M = PolyMatrix(ring, 2, 2)
        M.entries = {
            (0, 0): ring.var(1), (0, 1): ring.var(2), (1, 0): ring.var(2), (1, 1): ring.var(1),
        }
        kept = list(linalg._EVALUATORS)
        assert [rank_probabilistic(M, seed) for seed in range(1000)] == [2] * 1000
        assert list(linalg._EVALUATORS) == kept


def test_benchmark_ranks_match_the_recorded_answers(random_poly_matrix):
    """rank_exact and rank_probabilistic on the 90 matrices of the oracle
    benchmark, and rank_exact on the 180 maps of the survey benchmark,
    give the answers recorded in perfbench/expected.json."""
    expected = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text()
    )
    oracle = {}
    for p in (2, 3, 5):
        ring = RingSpec(FieldSpec(p), 3, 1)
        for k in range(30):
            M = random_poly_matrix(ring, random.Random(k))
            oracle[f"F{p}#{k}"] = [rank_exact(M), rank_probabilistic(M, k),
                                   rank_probabilistic(M, k + 100)]
    assert oracle == {label: [rank] * 3 for label, rank in expected["oracle"].items()}
    survey = {label: rank_exact(M) for label, _, M in _survey_maps()}
    assert survey == expected["survey"]
