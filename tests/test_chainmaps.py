import random

import pytest

from koszulalg.ring import FieldSpec, RingSpec
from koszulalg.complexes import degree_violations, koszul
from koszulalg.chainmaps import (
    ChainMap,
    standard_iota,
    perturb,
    is_chain_map,
    rank_of_map,
    restricted_rank,
    random_homotopy,
    rank_six_fixture,
)
from koszulalg.linalg import PolyMatrix, rank_exact

from conftest import scalar_rank
from homology_oracle import induced_map_mod

Q = FieldSpec(0)
F2 = FieldSpec(2)


class TestStandardIota:
    @pytest.mark.parametrize("field", [Q, F2], ids=["Q", "F2"])
    @pytest.mark.parametrize("r,m", [(1, 1), (2, 1), (3, 2)])
    def test_is_chain_map_with_full_rank(self, field, r, m):
        iota, Km, K0 = standard_iota(RingSpec(field, r, 1), m)
        assert is_chain_map(iota) is None
        assert rank_of_map(iota) == 2 ** r


class TestPerturb:
    @pytest.mark.parametrize("field", [Q, F2], ids=["Q", "F2"])
    def test_perturbation_stays_chain_map(self, field, rng):
        iota, Km, K0 = standard_iota(RingSpec(field, 3, 1), 1)
        for _ in range(10):
            h = random_homotopy(Km.base, K0.base, rng)
            gamma = perturb(iota, h)
            assert is_chain_map(gamma) is None

    def test_rank_lower_bound_sample(self, rng):
        iota, Km, K0 = standard_iota(RingSpec(F2, 3, 1), 1)
        for _ in range(20):
            h = random_homotopy(Km.base, K0.base, rng, homogeneous=True)
            gamma = perturb(iota, h)
            assert rank_of_map(gamma) >= 6


class TestRankFixture:
    def test_full_fixture(self):
        gamma, iota, h, x, dx, Km, K0 = rank_six_fixture()
        assert is_chain_map(gamma) is None
        assert gamma.apply(x) == {}
        assert gamma.apply(dx) == {}
        span = PolyMatrix(Km.ring, Km.n, 2)
        for j, v in enumerate((x, dx)):
            for i, p in v.items():
                span.set(i, j, p)
        assert rank_exact(span) == 2
        assert rank_of_map(gamma) == 6
        assert rank_of_map(gamma, mode="probabilistic", seed=11) == 6

    def test_explicit_image_values(self):
        gamma, iota, h, x, dx, Km, K0 = rank_six_fixture()
        ring = Km.ring
        s2 = Km.base.basis_element(Km.subset_index[(2,)])
        img = gamma.apply(s2)
        assert img[K0.subset_index[(2,)]] == ring.var(2)
        s123 = Km.base.basis_element(Km.subset_index[(1, 2, 3)])
        img = gamma.apply(s123)
        assert img[K0.subset_index[(1, 2, 3)]] == ring.parse("t1*t2*t3")
        assert img[K0.subset_index[(1, 2)]] == ring.parse("t1^2*t3")

    def test_weight2_homotopy_rejected_by_degrees(self):
        gamma, iota, h, *_ = rank_six_fixture()
        ring2 = RingSpec(F2, 3, 2)
        Km2 = koszul(ring2, 1)
        K02 = koszul(ring2, 0)
        H2 = PolyMatrix(ring2, K02.n, Km2.n)
        for (i, j), p in h.matrix.entries.items():
            exps, c = next(iter(p.terms.items()))
            H2.entries[(i, j)] = ring2.monomial(exps, c)
        violations = degree_violations(H2, Km2.base, K02.base, -1)
        assert violations  # the same data cannot be a degree -1 homotopy


class TestRestrictedRank:
    def test_submatrix_rank(self):
        iota, Km, K0 = standard_iota(RingSpec(Q, 3, 1), 1)
        sub = [Km.subset_index[(i,)] for i in (1, 2, 3)]
        assert restricted_rank(iota, sub) == 3
        assert restricted_rank(iota, []) == 0
        with pytest.raises(IndexError):
            restricted_rank(iota, [99])


class TestInducedMap:
    def test_homotopy_invariance(self, rng):
        ring = RingSpec(Q, 2, 1)
        iota, Km, K0 = standard_iota(ring, 1)
        rows0, Hs, Ht = induced_map_mod(iota, (2, 2))
        for _ in range(5):
            h = random_homotopy(Km.base, K0.base, rng)
            gamma = perturb(iota, h)
            rows, _, _ = induced_map_mod(gamma, (2, 2))
            assert rows == rows0

    def test_rank_of_induced_iota(self):
        # mod (t^2) the map multiplies s_I by prod t_i: classes with I=∅
        # survive, everything else is killed or lands in t-multiples
        ring = RingSpec(F2, 2, 1)
        iota, Km, K0 = standard_iota(ring, 1)
        rows, Hs, Ht = induced_map_mod(iota, (2, 2))
        ops = ring.field
        assert scalar_rank(rows, ops) >= 1
