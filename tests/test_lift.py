import pytest

from koszulalg.ring import FieldSpec, RingSpec
from koszulalg.complexes import (
    koszul,
    canonical_augmentation,
    Augmentation,
    FreeComplex,
    direct_sum,
)
from koszulalg.linalg import PolyMatrix
from koszulalg.chainmaps import is_chain_map, rank_of_map
from koszulalg.minimal import minimal_model
from koszulalg import lift
from koszulalg.filtration import compute_filtration, bound_checks
from koszulalg.lift import (
    LiftError,
    monomials_of_weighted_degree,
    solve_boundary_equation,
    lift_alpha,
    lift_beta,
    pipeline,
    verify_bounds,
    case0_improved_bound,
    multiplicative_alpha,
    beta_respects_filtration,
)

Q = FieldSpec(0)
F2 = FieldSpec(2)


class TestSolver:
    def test_monomial_enumeration(self):
        r1 = RingSpec(Q, 2, 1)
        assert set(monomials_of_weighted_degree(r1, 2)) == {(2, 0), (1, 1), (0, 2)}
        r2 = RingSpec(Q, 2, 2)
        assert monomials_of_weighted_degree(r2, 3) == []
        assert set(monomials_of_weighted_degree(r2, 4)) == {(2, 0), (1, 1), (0, 2)}

    def test_shortcut_recovers_minimal_support(self):
        ring = RingSpec(Q, 2, 1)
        K0 = koszul(ring, 0)
        # d y = t1^2 s0 has the one-generator solution t1 * s1
        rhs = K0.base.zero_element()
        rhs[K0.subset_index[()]] = ring.var(1, 2)
        y = solve_boundary_equation(K0.base, rhs, 1)
        assert y[K0.subset_index[(1,)]] == ring.var(1)
        assert sum(0 if p.is_zero() else 1 for p in y) == 1

    def test_unsolvable_returns_none(self):
        ring = RingSpec(Q, 1, 1)
        C = FreeComplex(ring, [("a", 0)], PolyMatrix(ring, 1, 1))
        rhs = [ring.var(1)]
        assert solve_boundary_equation(C, rhs, 1) is None


class TestAlpha:
    @pytest.mark.parametrize("field", [Q, F2], ids=["Q", "F2"])
    @pytest.mark.parametrize("r,m", [(2, 1), (3, 1), (2, 2)])
    def test_into_weight_zero_koszul(self, field, r, m):
        ring = RingSpec(field, r, 1)
        K0 = koszul(ring, 0)
        alpha = lift_alpha(K0.base, canonical_augmentation(K0), m)
        assert is_chain_map(alpha) is None
        # minimal-support solutions: the diagonal t^m map
        for (i, j), p in alpha.matrix.entries.items():
            assert i == j and len(p.terms) == 1
        assert rank_of_map(alpha) == 2 ** r

    def test_augmentation_of_unit(self):
        ring = RingSpec(Q, 2, 1)
        K0 = koszul(ring, 0)
        aug = canonical_augmentation(K0)
        alpha = lift_alpha(K0.base, aug, 1)
        one = [alpha.matrix.entry(i, 0) for i in range(K0.n)]
        assert aug.of_element(one) == Q.one

    def test_obstruction_reported(self):
        # a complex with no augmentation-1 cycle: single generator with
        # nonzero differential is impossible, so use epsilon = 0 instead
        ring = RingSpec(Q, 1, 1)
        C = FreeComplex(ring, [("a", 0)], PolyMatrix(ring, 1, 1))
        zero_aug = Augmentation(C, [Q.zero])
        with pytest.raises(LiftError):
            lift_alpha(C, zero_aug, 1)

    def test_missing_cycle_in_higher_length(self):
        # rank-1 free module over r=2: t2^2 * alpha(s2) has no preimage
        ring = RingSpec(Q, 2, 1)
        C = FreeComplex(ring, [("a", 0)], PolyMatrix(ring, 1, 1))
        aug = Augmentation(C, [Q.one])
        with pytest.raises(LiftError) as err:
            lift_alpha(C, aug, 1)
        assert err.value.obstruction is not None


class TestBeta:
    def test_koszul_m1_diagonal(self):
        ring = RingSpec(Q, 3, 1)
        K1 = koszul(ring, 1)
        F = compute_filtration(K1.base)
        beta = lift_beta(F, canonical_augmentation(K1))
        assert is_chain_map(beta) is None
        assert beta_respects_filtration(beta, F) == []
        for (i, j), p in beta.matrix.entries.items():
            assert i == j
        assert rank_of_map(beta) == 8

    def test_zero_differential_rank_one(self):
        ring = RingSpec(Q, 2, 1)
        C = FreeComplex(ring, [("a", 0)], PolyMatrix(ring, 1, 1))
        F = compute_filtration(C)
        beta = lift_beta(F, Augmentation(C, [Q.one]))
        assert rank_of_map(beta) == 1

    def test_augmentation_commutes(self):
        ring = RingSpec(F2, 2, 1)
        K1 = koszul(ring, 1)
        aug = canonical_augmentation(K1)
        F = compute_filtration(K1.base)
        beta = lift_beta(F, aug)
        K0 = koszul(ring, 0)
        aug0 = canonical_augmentation(K0)
        for j in range(K1.n):
            img = [beta.matrix.entry(i, j) for i in range(K0.n)]
            assert aug0.of_element(img) == aug.values[j]


class TestPipeline:
    @pytest.mark.parametrize("field", [Q, F2], ids=["Q", "F2"])
    @pytest.mark.parametrize("r", [2, 3])
    def test_rank_bound(self, field, r):
        ring = RingSpec(field, r, 1)
        K = koszul(ring, 1)
        rep = verify_bounds(K.base, 1, canonical_augmentation(K))
        assert rep["passed"]
        assert rep["rank_gamma"] >= 2 * r
        assert rep["length"] >= r + 1

    def test_non_minimal_input(self):
        ring = RingSpec(Q, 2, 1)
        K = koszul(ring, 1)
        D = PolyMatrix(ring, 2, 2)
        D.entries[(0, 1)] = ring.one()
        pair = FreeComplex(ring, [("u", 2), ("v", 1)], D)
        C = direct_sum(K.base, pair)
        aug_vals = [Q.zero] * C.n
        aug_vals[C.index("s0")] = Q.one
        rep = verify_bounds(C, 1, Augmentation(C, aug_vals))
        assert rep["dim_H"] == 4
        assert rep["passed"]

    def test_weight2_char0(self):
        ring = RingSpec(Q, 2, 2)
        K = koszul(ring, 2)
        rep = verify_bounds(K.base, 2, canonical_augmentation(K))
        assert rep["dim_H"] == 4 and rep["length"] == 3
        assert rep["a_dim_vs_2r"][2]


class TestVerifyBoundsReports:
    def test_one_pipeline_feeds_every_report(self, monkeypatch):
        ring = RingSpec(Q, 3, 2)
        K = koszul(ring, 1)
        runs = []
        original = lift.pipeline
        monkeypatch.setattr(lift, "pipeline", lambda *a: runs.append(a) or original(*a))
        rep = verify_bounds(K.base, 1, canonical_augmentation(K))
        assert len(runs) == 1
        parts = rep["parts"]
        assert rep["bound_checks"] == bound_checks(parts["minimal"], parts["filtration"])
        alone = case0_improved_bound(K.base, 1, canonical_augmentation(K))
        del alone["parts"]
        assert rep["improved_bound"] == alone

    def test_no_improved_bound_outside_its_case(self):
        K = koszul(RingSpec(Q, 3, 1), 1)
        assert "improved_bound" not in verify_bounds(K.base, 1, canonical_augmentation(K))


class TestCase0:
    def test_k3_restricted_rank(self):
        ring = RingSpec(Q, 3, 2)
        K = koszul(ring, 1)
        rep = case0_improved_bound(K.base, 1, canonical_augmentation(K))
        assert rep["restricted_rank"] == 4
        assert rep["total_bound"] == 8
        assert rep["passed"]

    def test_preconditions(self):
        with pytest.raises(LiftError):
            case0_improved_bound(koszul(RingSpec(Q, 2, 2), 1).base, 1)
        with pytest.raises(LiftError):
            case0_improved_bound(koszul(RingSpec(Q, 3, 1), 1).base, 1)
        with pytest.raises(LiftError):
            case0_improved_bound(koszul(RingSpec(FieldSpec(5), 3, 2), 1).base, 1)


class TestMultiplicative:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_full_rank_on_koszul(self, r):
        ring = RingSpec(Q, r, 1)
        K0 = koszul(ring, 0)
        alpha, rank = multiplicative_alpha(K0.dga(), canonical_augmentation(K0), 1)
        assert is_chain_map(alpha) is None
        assert rank == 2 ** r

    def test_broken_product_table_rejected(self):
        ring = RingSpec(Q, 2, 1)
        K0 = koszul(ring, 0)
        dga = K0.dga()
        a = K0.subset_index[(1,)]
        b = K0.subset_index[(2,)]
        dga.table[(a, b)] = list(K0.base.zero_element())  # break s1*s2
        with pytest.raises(LiftError):
            multiplicative_alpha(dga, canonical_augmentation(K0), 1)
