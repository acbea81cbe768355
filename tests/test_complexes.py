import itertools
import random

import pytest

from koszulalg.ring import FieldSpec, RingSpec
from koszulalg.complexes import (
    FreeComplex,
    koszul,
    direct_sum,
    canonical_augmentation,
    Augmentation,
    tensor_quotient,
    FiniteComplex,
    HomologyData,
    min_generators_of_homology,
)
from koszulalg.linalg import PolyMatrix, scalar_rank, sparse_dot

from conftest import noisy_complex, random_free_complex

Q = FieldSpec(0)
F2 = FieldSpec(2)


class TestFreeComplex:
    def test_validate_catches_d_squared(self):
        ring = RingSpec(Q, 1, 1)
        D = PolyMatrix(ring, 2, 2)
        D.entries[(0, 1)] = ring.var(1)
        D.entries[(1, 0)] = ring.var(1)
        C = FreeComplex(ring, [("a", 0), ("b", 0)], D)
        problems = C.validate()
        assert any("d∘d" in m or "d" in m for m in problems)

    def test_validate_reports_first_witness_by_row(self):
        # d∘d is nonzero at (g2, g1), (g0, g3) and (g0, g5): the reported
        # witness is the first in (row, column) order, not the first column
        ring = RingSpec(Q, 1, 1)
        D = PolyMatrix(ring, 8, 8)
        for target, source in [(6, 1), (2, 6), (7, 3), (7, 5), (0, 7)]:
            D.entries[(target, source)] = ring.var(1)
        C = FreeComplex(ring, [(f"g{k}", 0) for k in range(8)], D)
        assert C.validate() == ["d∘d != 0: column g3 hits g0 with t1^2"]

    def test_validate_witness_matches_matrix_square(self, rng):
        """On random complexes with one corrupted homogeneous entry, the
        d∘d report is the first entry of D @ D in (row, column) order."""
        reported = 0
        for field in (Q, F2):
            ring = RingSpec(field, 2, 1)
            for _ in range(20):
                C, _ = random_free_complex(ring, rng)
                D = PolyMatrix(ring, C.n, C.n, C.differential.entries)
                u, v = rng.randrange(C.n), rng.randrange(C.n)
                need = C.degree(v) + 1 - C.degree(u)
                if need >= 0:
                    D.set(u, v, D.entry(u, v) + ring.monomial((need, 0), 1))
                bad = FreeComplex(ring, C.generators, D)
                dd = D @ D
                want = []
                if dd.entries:
                    i, j = min(dd.entries)
                    want.append(
                        f"d∘d != 0: column {C.generators[j][0]} hits "
                        f"{C.generators[i][0]} with {dd.entries[(i, j)]}"
                    )
                    reported += 1
                assert bad.validate() == want
        assert reported

    def test_validate_catches_inhomogeneity(self):
        ring = RingSpec(Q, 1, 1)
        D = PolyMatrix(ring, 2, 2)
        D.entries[(0, 1)] = ring.var(1, 3)  # degree 3 entry, degrees demand 1
        C = FreeComplex(ring, [("a", 0), ("b", 0)], D)
        assert any("inhomogeneous" in m for m in C.validate())

    def test_direct_sum_valid(self, rng):
        ring = RingSpec(Q, 2, 1)
        A, _ = random_free_complex(ring, rng, max_gens=5)
        B, _ = random_free_complex(ring, rng, max_gens=5)
        S = direct_sum(A, B)
        assert S.n == A.n + B.n
        assert S.validate() == []


class TestKoszul:
    @pytest.mark.parametrize("field", [Q, F2], ids=["Q", "F2"])
    @pytest.mark.parametrize("w", [1, 2])
    @pytest.mark.parametrize("r,m", [(1, 0), (2, 1), (3, 1), (3, 2)])
    def test_koszul_is_valid(self, field, w, r, m):
        K = koszul(RingSpec(field, r, w), m)
        assert K.base.validate() == []
        assert K.n == 2 ** r

    def test_generator_degrees(self):
        K1 = koszul(RingSpec(Q, 3, 1), 2)
        assert K1.base.degree(K1.subset_index[(1, 3)]) == 2 * 2
        K2 = koszul(RingSpec(Q, 3, 2), 2)
        assert K2.base.degree(K2.subset_index[(1, 3)]) == 2 * 5

    def test_wedge_signs(self):
        K = koszul(RingSpec(Q, 3, 1), 0)
        wedge = K.dga().multiply
        s1 = K.base.basis_element(K.subset_index[(1,)])
        s2 = K.base.basis_element(K.subset_index[(2,)])
        s12 = K.subset_index[(1, 2)]
        assert wedge(s1, s2) == {s12: K.ring.one()}
        assert wedge(s2, s1) == {s12: -K.ring.one()}
        assert wedge(s1, s1) == {}

    def test_leibniz_via_dga(self):
        for w in (1, 2):
            K = koszul(RingSpec(Q, 3, w), 1)
            assert K.dga().validate() == []

    def test_dga_char2(self):
        K = koszul(RingSpec(F2, 2, 1), 1)
        assert K.dga().validate() == []

    def test_canonical_augmentation_valid(self):
        K = koszul(RingSpec(Q, 2, 1), 1)
        assert canonical_augmentation(K).validate() == []


class TestTensorQuotient:
    @pytest.mark.parametrize("weight", [1, 2])
    def test_boundary_matches_reduced_products(self, weight, rng):
        """Each boundary entry is a term of mu * d_ij reduced mod t^a."""
        for field in (Q, F2, FieldSpec(3)):
            ring = RingSpec(field, 2, weight)
            for C in [koszul(ring, 1).base] + [
                noisy_complex(koszul(ring, 0).base, rng, pairs=2) for _ in range(3)
            ]:
                a = (2, 3)
                F = tensor_quotient(C, a)
                lookup = F.tensor_info["lookup"]
                want = {}
                for (i, j), p in C.differential.entries.items():
                    for mu in itertools.product(range(a[0]), range(a[1])):
                        q = p * ring.monomial(mu)
                        for e, c in q.terms.items():
                            if all(x < b for x, b in zip(e, a)):
                                want[(lookup[(i, e)], lookup[(j, mu)])] = c
                assert F.boundary == want
                assert F.validate() == []

    def test_basis_size(self):
        K = koszul(RingSpec(Q, 2, 1), 1)
        F = tensor_quotient(K.base, (2, 2))
        assert F.n == 4 * 4
        assert F.boundary_squared_is_zero()
        assert F.validate() == []

    def test_boundary_squared_nonzero_detected(self):
        field = FieldSpec(3)
        basis = [("a", 0), ("b", 1), ("c", 1), ("z", 2)]
        # d a = b + c; d b = z and d c = -z cancel, then d c = z does not
        good = {(1, 0): 1, (2, 0): 1, (3, 1): 1, (3, 2): 2}
        bad = dict(good)
        bad[(3, 2)] = 1
        assert FiniteComplex(field, basis, good).boundary_squared_is_zero()
        assert not FiniteComplex(field, basis, bad).boundary_squared_is_zero()
        assert FiniteComplex(field, basis, bad).validate() == ["boundary squared is nonzero"]

    def test_homology_of_contractible(self):
        ring = RingSpec(Q, 2, 1)
        D = PolyMatrix(ring, 2, 2)
        D.entries[(0, 1)] = ring.one()
        C = FreeComplex(ring, [("a", 1), ("b", 0)], D)
        H = HomologyData(tensor_quotient(C, (2, 2)))
        assert H.total_dim == 0

    def test_homology_dimensions_koszul(self):
        # modulo (t^(m+1)) the differential of K_r(m) vanishes, so the
        # homology is the whole truncated module: 2^r * (m+1)^r
        for r, m in [(1, 1), (2, 1), (2, 2)]:
            K = koszul(RingSpec(Q, r, 1), m)
            H = HomologyData(tensor_quotient(K.base, (m + 1,) * r))
            assert H.total_dim == 2 ** r * (m + 1) ** r

    def test_projection_include_roundtrip(self):
        K = koszul(RingSpec(F2, 2, 1), 1)
        F = tensor_quotient(K.base, (2, 2))
        H = HomologyData(F)
        ops = H.field
        for rep in H.representatives:
            coords = H.project(rep)
            back = H.include(coords)
            # back - rep must be a boundary: project again to compare
            assert H.project(back) == coords


def _check_homology_certificates(F):
    """proj ∘ incl = id, proj(boundary) = 0, the representatives are
    independent cycles, and dim H^q = dim C^q - rank d^q - rank d^(q-1)."""
    H = HomologyData(F)
    ops = H.field
    columns = F.columns()
    n = H.total_dim
    assert len(H.projection_rows) == n == sum(H.dims.values())
    for t, rep in enumerate(H.representatives):
        assert rep and all(not ops.is_zero(x) for x in rep.values())
        assert H.project(rep) == [ops.one if s == t else ops.zero for s in range(n)]
        assert H.include(H.project(rep)) == rep
        for i in range(F.n):  # d(rep) = 0, row by row
            row = {j: c for (i2, j), c in F.boundary.items() if i2 == i}
            assert ops.is_zero(sparse_dot(row, rep, ops))
    for col in columns.values():
        assert H.project(col) == [ops.zero] * n

    def rank_of_d(q):  # rank of d from degree q to q + 1
        src = by_degree.get(q, [])
        dst = by_degree.get(q + 1, [])
        return scalar_rank(
            [[columns.get(j, {}).get(i, ops.zero) for j in src] for i in dst], ops
        ) if src and dst else 0

    by_degree = F.degree_indices()
    for q, idx in by_degree.items():
        assert H.dims[q] == len(idx) - rank_of_d(q) - rank_of_d(q - 1)
    return H


class TestHomologyCertificates:
    @pytest.mark.parametrize("field", [Q, F2], ids=["Q", "F2"])
    def test_koszul_quotients(self, field):
        K = koszul(RingSpec(field, 2, 1), 1)
        for a in [(2, 2), (3, 2), (1, 3)]:
            H = _check_homology_certificates(tensor_quotient(K.base, a))
            assert H.total_dim > 0

    def test_random_free_complex(self, field, rng):
        ring = RingSpec(field, 2, 1)
        for _ in range(3):
            C, _ = random_free_complex(ring, rng, max_gens=8)
            _check_homology_certificates(tensor_quotient(C, (2, 3)))


class TestMinGenerators:
    @pytest.mark.parametrize("field", [Q, F2], ids=["Q", "F2"])
    def test_koszul_values(self, field):
        for r, m in [(2, 1), (3, 1)]:
            K = koszul(RingSpec(field, r, 1), m)
            assert min_generators_of_homology(K.base, (m + 1,) * r) == 2 ** r

    def test_contractible_gives_zero(self):
        ring = RingSpec(Q, 2, 1)
        D = PolyMatrix(ring, 2, 2)
        D.entries[(0, 1)] = ring.one()
        C = FreeComplex(ring, [("a", 1), ("b", 0)], D)
        assert min_generators_of_homology(C, (2, 2)) == 0

    def test_requires_exponents_at_least_two(self):
        K = koszul(RingSpec(Q, 2, 1), 0)
        with pytest.raises(ValueError):
            min_generators_of_homology(K.base, (1, 1))
