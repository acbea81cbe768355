import copy
import random

import pytest

from koszulalg.ring import FieldSpec, RingSpec
from koszulalg.complexes import koszul, FreeComplex, canonical_augmentation
from koszulalg.linalg import Echelon, PolyMatrix, dense
from koszulalg.minimal import minimal_model
from koszulalg.filtration import (
    Filtration,
    compute_filtration,
    check_properties,
    bound_checks,
)

from conftest import random_free_complex
from test_linalg import dot, gauss_jordan, _oracle_nullspace

Q = FieldSpec(0)
F2 = FieldSpec(2)
F3 = FieldSpec(3)


# ---------------------------------------------------------------------------
# dense reference: the filtration and its graded bases by dense Gauss-Jordan
# on the n x n slice matrices and the residual matrix of each level
# ---------------------------------------------------------------------------


def _unit(n, c, ops):
    v = [ops.zero] * n
    v[c] = ops.one
    return v


def _dense_slices(model):
    ops, n = model.ring.field, model.n
    slices = {}
    for (i, j), p in model.differential.entries.items():
        for exps, c in p.terms.items():
            mat = slices.setdefault(exps, [[ops.zero] * n for _ in range(n)])
            mat[i][j] = c
    return slices


def _residual_matrix(basis, n, ops):
    """M with M@v = 0 iff v in span(basis); basis must be RREF rows."""
    pivots = [next(c for c, x in enumerate(row) if not ops.is_zero(x)) for row in basis]
    mat = []
    for c in range(n):
        row = _unit(n, c, ops)
        for k, p in enumerate(pivots):
            row[p] = ops.sub(row[p], basis[k][c])
        mat.append(row)
    return mat


def oracle_levels(model):
    """RREF bases (dense rows) of F_1, F_2, ..."""
    ops, n = model.ring.field, model.n
    slices = _dense_slices(model)
    units = [_unit(n, c, ops) for c in range(n)]
    stacked = [row for mat in slices.values() for row in mat]
    levels = [gauss_jordan(_oracle_nullspace(stacked, n, ops) if stacked else units, ops)[0]]
    while len(levels[-1]) < n:
        res = _residual_matrix(levels[-1], n, ops)
        rows = [
            [dot(rrow, [mat[k][j] for k in range(n)], ops) for j in range(n)]
            for mat in slices.values()
            for rrow in res
        ]
        nxt = gauss_jordan(_oracle_nullspace(rows, n, ops) if rows else units, ops)[0]
        assert len(nxt) > len(levels[-1])
        levels.append(nxt)
    return levels


def oracle_graded_basis(model, basis):
    """{degree: dense vectors} spanning the degree parts of span(basis)."""
    ops, n = model.ring.field, model.n
    res = _residual_matrix(basis, n, ops)
    out = {}
    for q in sorted(set(model.degrees)):
        rows = res + [_unit(n, c, ops) for c in range(n) if model.degree(c) != q]
        vecs = _oracle_nullspace(rows, n, ops)
        if vecs:
            out[q] = vecs
    return out


def _assert_matches_oracle(model):
    """Levels as RREF rows, and graded bases as the same vectors in the
    same order, as the dense reference."""
    ops, n = model.ring.field, model.n
    F = compute_filtration(model)
    levels = oracle_levels(model)
    assert [[dense(row, n, ops) for row in F.basis(i)] for i in range(1, F.length + 1)] == levels
    for i, basis in enumerate(levels, start=1):
        graded = [(q, [dense(v, n, ops) for v in vs]) for q, vs in F.graded_basis(i).items()]
        assert graded == list(oracle_graded_basis(model, basis).items())


@pytest.mark.parametrize("field", [Q, F2], ids=["Q", "F2"])
@pytest.mark.parametrize("weight", [1, 2])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_koszul_matches_dense_oracle(field, weight, r):
    for m in (0, 1):
        _assert_matches_oracle(koszul(RingSpec(field, r, weight), m).base)


@pytest.mark.parametrize("field", [Q, F2, F3], ids=["Q", "F2", "F3"])
def test_random_models_match_dense_oracle(field):
    rng = random.Random(2008)
    for r in (2, 3):
        for _ in range(4):
            C, _ = random_free_complex(RingSpec(field, r, 1), rng, max_gens=10)
            model = minimal_model(C).model
            if model.n:
                _assert_matches_oracle(model)


class TestComputeFiltration:
    def test_k3_m0_levels(self):
        K = koszul(RingSpec(Q, 3, 1), 0)
        F = compute_filtration(K.base)
        assert F.dims() == [1, 4, 7, 8]
        assert F.length == 4
        # F_1 is the span of the empty-set generator
        basis = F.basis(1)
        assert len(basis) == 1
        assert set(basis[0]) == {K.subset_index[()]}

    def test_k1_m0(self):
        K = koszul(RingSpec(Q, 1, 1), 0)
        F = compute_filtration(K.base)
        assert F.dims() == [1, 2]

    @pytest.mark.parametrize("field", [Q, F2], ids=["Q", "F2"])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_koszul_length_r_plus_1(self, field, r):
        K = koszul(RingSpec(field, r, 1), 0)
        assert compute_filtration(K.base).length == r + 1

    def test_zero_differential(self):
        ring = RingSpec(Q, 2, 1)
        C = FreeComplex(ring, [("a", 0), ("b", 2)], PolyMatrix(ring, 2, 2))
        F = compute_filtration(C)
        assert F.length == 1 and F.dims() == [2]

    def test_weight2_koszul(self):
        K = koszul(RingSpec(Q, 2, 2), 2)
        F = compute_filtration(K.base)
        assert F.length == 3 and F.dims() == [1, 3, 4]

    def test_rejects_non_minimal(self):
        ring = RingSpec(Q, 1, 1)
        D = PolyMatrix(ring, 2, 2)
        D.entries[(0, 1)] = ring.one()
        C = FreeComplex(ring, [("a", 1), ("b", 0)], D)
        with pytest.raises(ValueError):
            compute_filtration(C)

    def test_graded_basis_partitions_levels(self):
        K = koszul(RingSpec(Q, 3, 1), 1)
        F = compute_filtration(K.base)
        for i in range(1, F.length + 1):
            graded = F.graded_basis(i)
            assert sum(len(v) for v in graded.values()) == len(F.basis(i))
        assert {q: len(v) for q, v in F.graded_basis(4).items()} == {0: 1, 1: 3, 2: 3, 3: 1}

    def test_generator_permutation_invariance(self, rng):
        ring = RingSpec(F2, 2, 1)
        K = koszul(ring, 1)
        perm = list(range(K.n))
        rng.shuffle(perm)
        gens = [K.base.generators[p] for p in perm]
        D = PolyMatrix(ring, K.n, K.n)
        pos = {p: i for i, p in enumerate(perm)}
        for (i, j), v in K.base.differential.entries.items():
            D.entries[(pos[i], pos[j])] = v
        C = FreeComplex(ring, gens, D)
        F1 = compute_filtration(K.base)
        F2_ = compute_filtration(C)
        assert F1.dims() == F2_.dims()


class TestProperties:
    def test_koszul_all_pass(self):
        for r, m in [(2, 0), (3, 1)]:
            K = koszul(RingSpec(Q, r, 1), m)
            F = compute_filtration(K.base)
            rep = check_properties(F, canonical_augmentation(K))
            assert rep["passed"], rep["failures"]
            # property (d) witnesses exist for every consecutive quotient
            assert set(rep["quotient_witnesses"]) == set(range(2, F.length + 1))

    def test_corrupted_filtration_detected(self):
        K = koszul(RingSpec(Q, 3, 1), 0)
        F = compute_filtration(K.base)
        bad = copy.deepcopy(F)
        bad.subspaces[1] = Echelon(Q)
        for row in F.basis(2)[:-1]:
            bad.subspaces[1].add(row)
        rep = check_properties(bad)
        assert not rep["passed"]

    @staticmethod
    def _k3_m0_filtration(levels):
        """A filtration of K_3(0) with the given levels (lists of subsets)."""
        K = koszul(RingSpec(Q, 3, 1), 0)
        subspaces = []
        for subsets in levels:
            E = Echelon(Q)
            for I in subsets:
                E.add({K.subset_index[I]: Q.one})
            subspaces.append(E)
        return Filtration(K.base, subspaces, len(subspaces))

    def test_slice_escape_detected(self):
        # s12 in F_2, but d(s12) has slices s1 and s2 outside F_1
        F = self._k3_m0_filtration([
            [()],
            [(), (1,), (2,), (1, 2)],
            [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)],
            [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)],
        ])
        rep = check_properties(F)
        assert rep["failures"] == [
            "(b) d(F_2) escapes F_1 x R",
            "(b) d(F_3) escapes F_2 x R",
        ]

    def test_zero_quotient_map_detected(self):
        # F_3 / F_2 is spanned by s2 and s3, whose differentials lie in F_1
        F = self._k3_m0_filtration([
            [()],
            [(), (1,)],
            [(), (1,), (2,), (3,)],
            [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)],
            [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)],
        ])
        rep = check_properties(F)
        assert rep["failures"] == ["(d) induced map F_3/F_2 -> F_2/F_1 x R is zero"]
        assert set(rep["quotient_witnesses"]) == {2, 4, 5}

    def test_augmentation_surjectivity_failure_detected(self):
        from koszulalg.complexes import Augmentation

        K = koszul(RingSpec(Q, 2, 1), 1)
        F = compute_filtration(K.base)
        zero_aug = Augmentation(K.base, [Q.zero] * K.n)
        rep = check_properties(F, zero_aug)
        assert any("(c)" in m for m in rep["failures"])

    def test_random_models(self, rng):
        for field in (Q, F2):
            ring = RingSpec(field, 2, 1)
            for _ in range(10):
                C, _ = random_free_complex(ring, rng, max_gens=8)
                mm = minimal_model(C)
                if mm.model.n == 0:
                    continue
                F = compute_filtration(mm)
                rep = check_properties(F)
                assert rep["passed"], rep["failures"]


class TestBounds:
    def test_k3_m0_values(self):
        K = koszul(RingSpec(Q, 3, 1), 0)
        F = compute_filtration(K.base)
        rep = bound_checks(K.base, F)
        assert rep["dim_H"] == 8
        assert rep["dim_vs_twice_length"] == (8, 6, True)
        assert rep["lambda_sum"] == 4
        assert rep["passed"]

    def test_k3_m1_degree_count(self):
        K = koszul(RingSpec(Q, 3, 1), 1)
        F = compute_filtration(K.base)
        rep = bound_checks(K.base, F)
        assert rep["lambda_trivial"]
        assert rep["nonzero_degrees"] == 4
        assert rep["degrees_vs_length"] == (4, 4, True)

    def test_random_models_satisfy_dim_bound(self, rng):
        for field in (Q, F2):
            ring = RingSpec(field, 3, 1)
            for _ in range(10):
                C, _ = random_free_complex(ring, rng)
                mm = minimal_model(C)
                if mm.model.n == 0:
                    continue
                F = compute_filtration(mm)
                rep = bound_checks(mm, F)
                assert rep["dim_vs_twice_length"][2]
                assert rep["passed"]
