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
from koszulalg.linalg import PolyMatrix

from conftest import random_free_complex

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
        s1 = K.base.basis_element(K.subset_index[(1,)])
        s2 = K.base.basis_element(K.subset_index[(2,)])
        s12 = K.wedge(s1, s2)
        assert s12[K.subset_index[(1, 2)]] == K.ring.one()
        s21 = K.wedge(s2, s1)
        assert s21[K.subset_index[(1, 2)]] == -K.ring.one()
        assert all(p.is_zero() for p in K.wedge(s1, s1))

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
