import random

import pytest
from hypothesis import given, settings, strategies as st

from koszulalg.ring import FieldSpec, RingSpec
from koszulalg.complexes import koszul, FreeComplex, direct_sum, min_generators_of_homology
from koszulalg.linalg import PolyMatrix, apply_columns, axpy
from koszulalg.chainmaps import ChainMap
from koszulalg.filtration import compute_filtration
from koszulalg.minimal import (
    minimal_model,
    is_minimal,
    LambdaAction,
    lambda_ops,
    lambda_length,
)

from conftest import noisy_complex, random_free_complex, scalar_rank
from minimal_oracle import oracle_minimal_model

Q = FieldSpec(0)
F2 = FieldSpec(2)
F3 = FieldSpec(3)


def _dim_homology_mod_k(C):
    """Independent oracle: dim H(C x k) = n - 2 * rank(constant part)."""
    ops = C.ring.field
    rows = [[ops.zero] * C.n for _ in range(C.n)]
    for (i, j), p in C.differential.entries.items():
        rows[i][j] = p.constant_coeff()
    return C.n - 2 * scalar_rank(rows, ops)


def anticommutation_problems(action):
    """(a, b, i, j) for each nonzero entry of lambda_a lambda_b +
    lambda_b lambda_a (a <= b), then of each lambda_a^2."""
    f = action.model.ring.field
    maps = action.maps
    problems = []

    def product(a, b):  # maps[a] @ maps[b], by column
        return {j: apply_columns(maps[a], col, f) for j, col in maps[b].items()}

    def report(a, b, columns):
        nonzero = sorted((i, j) for j, col in columns.items() for i in col)
        problems.extend((a, b, i, j) for i, j in nonzero)

    for a in range(len(maps)):
        for b in range(a, len(maps)):
            total = product(a, b)
            for j, col in product(b, a).items():
                axpy(total.setdefault(j, {}), f.one, col, f)
            report(a, b, total)
    # lambda_i^2 = 0 follows from d^2 = 0 in every characteristic
    for a in range(len(maps)):
        report(a, a, product(a, a))
    return problems


class TestMinimalModel:
    def test_koszul_already_minimal(self):
        K = koszul(RingSpec(Q, 3, 1), 1)
        mm = minimal_model(K.base)
        assert mm.model.n == K.base.n
        assert mm.verify() == []

    def test_corrupted_inclusion_reported(self):
        K = koszul(RingSpec(Q, 2, 1), 1)
        mm = minimal_model(K.base)
        mm.inclusion.matrix.set(0, 0, K.ring.var(1))
        assert "inclusion is not a chain map" in mm.verify()
        assert "projection is not a chain map" not in mm.verify()

    def test_verify_builds_each_commutator_once(self, monkeypatch):
        mm = minimal_model(koszul(RingSpec(Q, 2, 1), 1).base)
        built = []
        commutator = ChainMap.commutator

        def counting(f):
            built.append(f)
            return commutator(f)

        monkeypatch.setattr(ChainMap, "commutator", counting)
        assert mm.verify() == []
        assert len(built) == 2

    def test_contractible_pair_collapses(self):
        ring = RingSpec(Q, 2, 1)
        D = PolyMatrix(ring, 2, 2)
        D.entries[(0, 1)] = ring.one()
        C = FreeComplex(ring, [("e1", 3), ("e2", 2)], D)
        mm = minimal_model(C)
        assert mm.model.n == 0
        assert mm.verify() == []
        assert mm.homotopy.matrix.entries == {(1, 0): ring.one()}

    @pytest.mark.parametrize("field", [Q, F2], ids=["Q", "F2"])
    @pytest.mark.parametrize("r", [2, 3])
    def test_random_complex_certificates(self, field, r, rng):
        ring = RingSpec(field, r, 1)
        for _ in range(15):
            C, expected = random_free_complex(ring, rng)
            mm = minimal_model(C)
            assert mm.verify() == []
            assert mm.model.n == expected
            assert mm.model.n == _dim_homology_mod_k(C)

    def test_idempotent(self, rng):
        ring = RingSpec(Q, 2, 1)
        C, _ = random_free_complex(ring, rng)
        mm = minimal_model(C)
        mm2 = minimal_model(mm.model)
        assert mm2.model.n == mm.model.n
        assert mm2.model.differential == mm.model.differential

    def test_pivot_order_invariance(self, rng):
        ring = RingSpec(F2, 2, 1)
        C, expected = random_free_complex(ring, rng)
        results = set()
        for seed in range(6):
            mm = minimal_model(C, pivot_rng=random.Random(seed))
            assert mm.verify() == []
            results.add((mm.model.n, tuple(sorted(mm.model.degrees))))
        assert len(results) == 1

    def test_invalid_input_rejected(self):
        ring = RingSpec(Q, 1, 1)
        D = PolyMatrix(ring, 2, 2)
        D.entries[(0, 1)] = ring.one()
        D.entries[(1, 0)] = ring.one()
        C = FreeComplex(ring, [("a", 0), ("b", 1)], D)
        with pytest.raises(ValueError):
            minimal_model(C)


def _assert_same_model(got, want):
    assert got.model.generators == want.model.generators
    assert got.model.differential == want.model.differential
    assert got.inclusion.matrix == want.inclusion.matrix
    assert got.projection.matrix == want.projection.matrix
    assert got.homotopy.matrix == want.homotopy.matrix
    assert got.verify() == []


class TestAgainstMatrixProductOracle:
    """Rank-one updates give the model and certificates of the
    matrix-product composition, entry for entry."""

    def test_random_corpus(self, random_corpus):
        for C, _ in random_corpus:
            _assert_same_model(minimal_model(C), oracle_minimal_model(C))

    @pytest.mark.parametrize("field", [Q, F2, F3], ids=["Q", "F2", "F3"])
    @pytest.mark.parametrize("r, m, weight", [(2, 0, 1), (2, 1, 1), (3, 1, 1), (3, 1, 2)])
    def test_noisy_koszul(self, field, r, m, weight):
        K = koszul(RingSpec(field, r, weight), m)
        for seed in range(3):
            C = noisy_complex(K.base, random.Random(seed), pairs=6)
            mm = minimal_model(C)
            _assert_same_model(mm, oracle_minimal_model(C))
            assert mm.model.n == K.n

    def test_no_matrix_products(self, monkeypatch, random_corpus):
        """The cancellation makes no matrix product: the one `@` of a
        minimal_model call is the d∘d check of its input, d @ d."""
        noisy = noisy_complex(koszul(RingSpec(F3, 3, 1), 1).base, random.Random(0), pairs=6)
        products = []
        matmul = PolyMatrix.__matmul__
        monkeypatch.setattr(
            PolyMatrix, "__matmul__", lambda a, b: products.append((a, b)) or matmul(a, b)
        )
        for C in [noisy] + [C for C, _ in random_corpus]:
            products.clear()
            minimal_model(C)
            assert len(products) == 1
            assert all(operand is C.differential for operand in products[0])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.sampled_from([Q, F2, F3]),
    st.sampled_from([(2, 1), (2, 2), (3, 1)]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_generators_of_homology_counted_on_the_model(field, r_m, koszul_base, seed):
    """H(C ⊗ R/(t^a)) is a homotopy invariant of C over R, so C and its
    minimal model have the same number of generators."""
    r, m = r_m
    rng = random.Random(seed)
    ring = RingSpec(field, r, 1)
    if koszul_base:
        base = koszul(ring, m).base
    else:
        base, _ = random_free_complex(ring, rng, max_gens=6)
    C = noisy_complex(base, rng, pairs=3)
    a = (m + 1,) * r
    model = minimal_model(C).model
    assert is_minimal(model)
    count = min_generators_of_homology(model, a)
    assert min_generators_of_homology(C, a) == count
    if koszul_base:
        assert count == 2 ** r


class TestLambda:
    def test_lambda_nontrivial_weight1_m0(self):
        K = koszul(RingSpec(Q, 3, 1), 0)
        act = lambda_ops(compute_filtration(K.base))
        assert not act.is_trivial()
        assert anticommutation_problems(act) == []

    def test_non_anticommuting_pair_flagged(self):
        ring = RingSpec(Q, 2, 1)
        C = FreeComplex(ring, [("a", 0), ("b", 0)], PolyMatrix(ring, 2, 2))
        # lambda_1: e_b -> e_a and lambda_2: e_a -> e_b, each of square 0,
        # with lambda_1 lambda_2 + lambda_2 lambda_1 the identity
        act = LambdaAction(C, [{1: {0: Q.one}}, {0: {1: Q.one}}])
        assert anticommutation_problems(act) == [(0, 1, 0, 0), (0, 1, 1, 1)]

    def test_nonzero_square_flagged(self):
        ring = RingSpec(Q, 1, 1)
        C = FreeComplex(ring, [("a", 0), ("b", 0), ("c", 0)], PolyMatrix(ring, 3, 3))
        # e_a -> e_b -> e_c: the square sends e_a to e_c; over Q both the
        # anticommutator (2 lambda^2) and the square check report it
        act = LambdaAction(C, [{0: {1: Q.one}, 1: {2: Q.one}}])
        assert anticommutation_problems(act) == [(0, 0, 2, 0), (0, 0, 2, 0)]

    def test_lambda_trivial_weight2(self):
        K = koszul(RingSpec(Q, 3, 2), 0)
        assert lambda_ops(compute_filtration(K.base)).is_trivial()

    def test_lambda_trivial_for_higher_m(self):
        K = koszul(RingSpec(Q, 3, 1), 1)
        assert lambda_ops(compute_filtration(K.base)).is_trivial()

    @pytest.mark.parametrize("field", [Q, F2], ids=["Q", "F2"])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_lambda_length_koszul_m0(self, field, r):
        # all generators of K_r(0) under weight 1 live in degree 0 and the
        # lambda algebra acts like the full exterior algebra: length r+1
        K = koszul(RingSpec(field, r, 1), 0)
        assert lambda_length(lambda_ops(compute_filtration(K.base)), 0) == r + 1

    def test_lambda_length_zero_on_empty_degree(self):
        K = koszul(RingSpec(Q, 2, 1), 0)
        assert lambda_length(lambda_ops(compute_filtration(K.base)), 5) == 0

