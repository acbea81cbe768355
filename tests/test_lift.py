import math
import random

import pytest

from conftest import noisy_complex, random_free_complex, _nonzero_scalar
from test_linalg import _oracle_solve
from koszulalg.ring import FieldSpec, RingSpec
from koszulalg.complexes import (
    koszul,
    canonical_augmentation,
    Augmentation,
    FreeComplex,
    direct_sum,
    linear_combination,
)
from koszulalg.linalg import PolyMatrix
from koszulalg.chainmaps import ChainMap, is_chain_map, rank_of_map
from koszulalg.minimal import minimal_model
from koszulalg import lift, linalg
from koszulalg.filtration import compute_filtration, bound_checks
from koszulalg.lift import (
    BoundaryCache,
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
F3 = FieldSpec(3)


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
        rhs = {K0.subset_index[()]: ring.var(1, 2)}
        y = solve_boundary_equation(BoundaryCache(K0.base), rhs, 1)
        assert y == {K0.subset_index[(1,)]: ring.var(1)}

    def test_no_shortcut_solution_of_another_degree(self):
        """t1 * s1 solves d y = t1^2 s0 in degree 1 only."""
        ring = RingSpec(Q, 2, 1)
        K0 = koszul(ring, 0)
        rhs = {K0.subset_index[()]: ring.var(1, 2)}
        for q in (0, 2, 3):
            assert solve_boundary_equation(BoundaryCache(K0.base), rhs, q) is None

    def test_unsolvable_returns_none(self):
        ring = RingSpec(Q, 1, 1)
        C = FreeComplex(ring, [("a", 0)], PolyMatrix(ring, 1, 1))
        rhs = {0: ring.var(1)}
        assert solve_boundary_equation(BoundaryCache(C), rhs, 1) is None


def _full_vector_violations(beta, F, K0):
    """The reference check: beta applied, as a matrix, to each basis
    vector of F_i as a module element of constant polynomials."""
    model = F.model_complex
    violations = []
    for i in range(1, F.length + 1):
        for v in F.basis(i):
            img = beta.apply({j: model.ring.constant(c) for j, c in v.items()})
            for u, p in sorted(img.items()):
                if not p.is_zero() and K0.exterior_length(u) > i - 1:
                    violations.append((i, u))
    return violations


class TestAlpha:
    @pytest.mark.parametrize("field", [Q, F2], ids=["Q", "F2"])
    @pytest.mark.parametrize("r,m", [(2, 1), (3, 1), (2, 2)])
    def test_into_weight_zero_koszul(self, field, r, m):
        ring = RingSpec(field, r, 1)
        K0 = koszul(ring, 0)
        alpha = lift_alpha(K0.base, canonical_augmentation(K0), koszul(ring, m))
        assert is_chain_map(alpha) is None
        # minimal-support solutions: the diagonal t^m map
        for (i, j), p in alpha.matrix.entries.items():
            assert i == j and len(p.terms) == 1
        assert rank_of_map(alpha) == 2 ** r

    def test_augmentation_of_unit(self):
        ring = RingSpec(Q, 2, 1)
        K0 = koszul(ring, 0)
        aug = canonical_augmentation(K0)
        alpha = lift_alpha(K0.base, aug, koszul(ring, 1))
        one = alpha.apply(K0.base.basis_element(0))
        assert aug.of_scalars({i: p.constant_coeff() for i, p in one.items()}) == Q.one

    def test_obstruction_reported(self):
        # a complex with no augmentation-1 cycle: single generator with
        # nonzero differential is impossible, so use epsilon = 0 instead
        ring = RingSpec(Q, 1, 1)
        C = FreeComplex(ring, [("a", 0)], PolyMatrix(ring, 1, 1))
        zero_aug = Augmentation(C, [Q.zero])
        with pytest.raises(LiftError):
            lift_alpha(C, zero_aug, koszul(ring, 1))

    def test_missing_cycle_in_higher_length(self):
        # rank-1 free module over r=2: t2^2 * alpha(s2) has no preimage
        ring = RingSpec(Q, 2, 1)
        C = FreeComplex(ring, [("a", 0)], PolyMatrix(ring, 1, 1))
        aug = Augmentation(C, [Q.one])
        with pytest.raises(LiftError) as err:
            lift_alpha(C, aug, koszul(ring, 1))
        assert err.value.obstruction is not None


class TestBeta:
    def test_koszul_m1_diagonal(self):
        ring = RingSpec(Q, 3, 1)
        K1 = koszul(ring, 1)
        K0 = koszul(ring, 0)
        F = compute_filtration(K1.base)
        beta = lift_beta(F, canonical_augmentation(K1), K0)
        assert is_chain_map(beta) is None
        assert beta_respects_filtration(beta, F, K0) == []
        for (i, j), p in beta.matrix.entries.items():
            assert i == j
        assert rank_of_map(beta) == 8

    @pytest.mark.parametrize("field", [Q, F2, F3], ids=["Q", "F2", "F3"])
    def test_filtration_violations_match_full_vectors(self, field):
        """A beta corrupted in rows of too-long exterior length, in columns
        that F_1 and F_2 vectors use, is reported exactly as the
        full-vector computation reports it."""
        ring = RingSpec(field, 3, 1)
        K1 = koszul(ring, 1)
        K0 = koszul(ring, 0)
        F = compute_filtration(K1.base)
        beta = lift_beta(F, canonical_augmentation(K1), K0)
        assert beta_respects_filtration(beta, F, K0) == []
        for level, u in [(1, K0.subset_index[(1, 2, 3)]), (2, K0.subset_index[(1, 3)])]:
            j = max(F.basis(level)[-1])
            beta.matrix.set(u, j, beta.matrix.entry(u, j) + ring.var(2))
        got = beta_respects_filtration(beta, F, K0)
        assert got
        assert got == _full_vector_violations(beta, F, K0)

    @pytest.mark.parametrize("field", [Q, F3], ids=["Q", "F3"])
    def test_filtration_violations_on_combinations(self, field):
        """Random beta on filtrations whose basis vectors have several
        entries, with beta(v) made to cancel on one such v: the same
        violations as the full-vector computation."""
        rng = random.Random(7)
        ring = RingSpec(field, 3, 1)
        K0 = koszul(ring, 0)
        tried = 0
        for _ in range(12):
            C, _ = random_free_complex(ring, rng)
            F = compute_filtration(minimal_model(C).model)
            combos = [v for i in range(1, F.length + 1) for v in F.basis(i) if len(v) > 1]
            if not combos:
                continue
            model = F.model_complex
            M = PolyMatrix(ring, K0.n, model.n)
            for _ in range(model.n):
                M.set(rng.randrange(K0.n), rng.randrange(model.n), ring.var(rng.randint(1, 3)))
            (j1, c1), (j2, c2) = list(combos[0].items())[:2]
            u = K0.subset_index[(1, 2, 3)]
            M.set(u, j1, ring.constant(c2))
            M.set(u, j2, ring.constant(field.neg(c1)))
            for j in combos[0]:
                if j not in (j1, j2):
                    M.set(u, j, ring.zero())
            beta = ChainMap(model, K0.base, M)
            got = beta_respects_filtration(beta, F, K0)
            assert got == _full_vector_violations(beta, F, K0)
            tried += 1
        assert tried

    def test_zero_differential_rank_one(self):
        ring = RingSpec(Q, 2, 1)
        C = FreeComplex(ring, [("a", 0)], PolyMatrix(ring, 1, 1))
        F = compute_filtration(C)
        beta = lift_beta(F, Augmentation(C, [Q.one]), koszul(ring, 0))
        assert rank_of_map(beta) == 1

    def test_augmentation_commutes(self):
        ring = RingSpec(F2, 2, 1)
        K1 = koszul(ring, 1)
        aug = canonical_augmentation(K1)
        F = compute_filtration(K1.base)
        K0 = koszul(ring, 0)
        beta = lift_beta(F, aug, K0)
        aug0 = canonical_augmentation(K0)
        for j in range(K1.n):
            img = beta.apply(K1.base.basis_element(j))
            eps = aug0.of_scalars({i: p.constant_coeff() for i, p in img.items()})
            assert eps == aug.values[j]

    @pytest.mark.parametrize("field", [Q, F2, F3], ids=["Q", "F2", "F3"])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_contraction_is_a_homotopy(self, field, r):
        """dH + Hd = id - ιπ on every t^a s_I with |a| <= 3, ιπ keeping
        only the constant s0 term, and H raises exterior length by one."""
        ring = RingSpec(field, r, 1)
        K0 = koszul(ring, 0)
        d, one = K0.base.d, ring.one()
        cases = 0
        for total in range(4):
            for exps in monomials_of_weighted_degree(ring, total):
                for u, I in enumerate(K0.subsets):
                    x = {u: ring.monomial(exps)}
                    Hx = lift._contract(K0, x)
                    assert {len(K0.subsets[w]) for w in Hx} <= {len(I) + 1}
                    got = linear_combination(ring, [(one, d(Hx)), (one, lift._contract(K0, d(x)))])
                    assert got == ({} if total == 0 and not I else x)
                    cases += 1
        assert cases == 2 ** r * math.comb(r + 3, 3)

    @pytest.mark.parametrize("noisy", [False, True], ids=["K4(1)-F2", "noisy-K3(1)-Q"])
    def test_beta_solves_nothing(self, noisy, monkeypatch):
        """beta is one pass of the contraction per basis vector: no
        boundary equation, no linear solve and no BoundaryCache."""
        if noisy:
            C = noisy_complex(koszul(RingSpec(Q, 3, 1), 1).base, random.Random(3), pairs=6)
        else:
            C = koszul(RingSpec(F2, 4, 1), 1).base
        mm = minimal_model(C)
        aug = mm.model_augmentation(lift._default_augmentation(C))
        F = compute_filtration(mm.model)
        K0 = koszul(C.ring, 0)
        calls = []

        def spy(name, real):
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        for module, name in [(lift, "solve_boundary_equation"), (lift, "solve"),
                             (linalg, "solve"), (lift, "BoundaryCache")]:
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        beta = lift_beta(F, aug, K0)
        assert calls == []
        assert beta_respects_filtration(beta, F, K0) == []


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
        aug_vals[[name for name, _ in C.generators].index("s0")] = Q.one
        rep = verify_bounds(C, 1, Augmentation(C, aug_vals))
        assert rep["dim_H"] == 4
        assert rep["passed"]
        # alpha lands in the model that beta starts from, not in C
        parts = rep["parts"]
        assert parts["alpha"].target is parts["minimal"].model is parts["beta"].source

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
        assert rep["bound_checks"] == bound_checks(parts["filtration"])
        alone = case0_improved_bound(K.base, 1, canonical_augmentation(K))
        del alone["parts"]
        assert rep["improved_bound"] == alone

    def test_each_koszul_complex_built_once(self, monkeypatch):
        ring = RingSpec(Q, 3, 2)
        K = koszul(ring, 1)
        built = []
        monkeypatch.setattr(lift, "koszul", lambda *a: built.append(a[1]) or koszul(*a))
        rep = verify_bounds(K.base, 1, canonical_augmentation(K))
        assert "improved_bound" in rep
        assert sorted(built) == [0, 1]
        parts = rep["parts"]
        assert parts["alpha"].source is parts["koszul_m"].base
        assert parts["beta"].target is parts["koszul_0"].base

    @pytest.mark.parametrize("field", [Q, F2], ids=["Q", "F2"])
    def test_generators_counted_on_the_model(self, field, monkeypatch):
        ring = RingSpec(field, 2, 1)
        K = koszul(ring, 1)
        D = PolyMatrix(ring, 2, 2)
        D.entries[(0, 1)] = ring.one()
        C = direct_sum(K.base, FreeComplex(ring, [("u", 2), ("v", 1)], D))
        aug = Augmentation(C, [field.one] + [field.zero] * (C.n - 1))
        counted = []
        original = lift.min_generators_of_homology
        monkeypatch.setattr(
            lift,
            "min_generators_of_homology",
            lambda complex, a: counted.append((complex, a)) or original(complex, a),
        )
        rep = verify_bounds(C, 1, aug)
        assert counted == [(rep["parts"]["minimal"].model, (2, 2))]
        assert rep["min_generators"] == 4 == original(C, (2, 2))
        assert "min_generators" not in verify_bounds(koszul(ring, 0).base, 0)

    def test_one_verdict_for_library_and_cli(self, monkeypatch, tmp_path, capsys):
        """A generator count below 2^r fails the report as it fails the CLI."""
        from koszulalg.cli import main
        from koszulalg.fileio import write_complex

        K = koszul(RingSpec(F2, 3, 1), 1)
        monkeypatch.setattr(lift, "min_generators_of_homology", lambda complex, a: 1)
        rep = verify_bounds(K.base, 1, canonical_augmentation(K))
        assert rep["failures"] == ["min generators"]
        assert rep["passed"] is False
        path = str(tmp_path / "k.cx")
        write_complex(path, K.base, canonical_augmentation(K))
        assert main(["verify-bounds", path]) == 1
        out = capsys.readouterr().out
        assert "check min generators of homology >= 2^r: 1 vs 8 -> FAIL" in out
        assert out.endswith("result FAIL: min generators\n")

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
        del dga.table[(a, b)]  # break s1*s2: a missing cell is the zero product
        with pytest.raises(LiftError):
            multiplicative_alpha(dga, canonical_augmentation(K0), 1)


# ---------------------------------------------------------------------------
# solve_boundary_equation against the dense keys x unknowns system
# ---------------------------------------------------------------------------


def _dense_column_image(ring, column, exps):
    """d(mu * e_i) as {(target gen, exponent): scalar}, by polynomial products."""
    f = ring.field
    out = {}
    for u, p in column:
        for e, c in (p * ring.monomial(exps)).terms.items():
            s = f.add(out.get((u, e), f.zero), c)
            if f.is_zero(s):
                out.pop((u, e), None)
            else:
                out[(u, e)] = s
    return out


def _dense_solve_boundary(C, rhs, degree, augmentation=None):
    """The reference solver: the single-generator shortcut, then the dense
    keys x unknowns system solved by Gauss-Jordan, with epsilon(y) = 1 when
    an augmentation is given.  Returns (y, how) with how one of
    "shortcut", "system", "none"."""
    ring = C.ring
    f = ring.field
    unknowns = [
        (i, exps)
        for i in range(C.n)
        for exps in monomials_of_weighted_degree(ring, degree - C.degree(i))
    ]
    rhs_terms = {(u, e): c for u, p in rhs.items() for e, c in p.terms.items()}
    zero_exps = (0,) * ring.num_vars
    by_column = {}
    for (u, i), p in sorted(C.differential.entries.items()):
        by_column.setdefault(i, []).append((u, p))
    cols = [_dense_column_image(ring, by_column.get(i, ()), exps) for i, exps in unknowns]
    if rhs_terms:
        for (i, exps), img in zip(unknowns, cols):
            if set(img) != set(rhs_terms):
                continue
            key = next(iter(img))
            c = f.div(rhs_terms[key], img[key])
            if any(not f.is_zero(f.sub(rhs_terms[k], f.mul(c, v))) for k, v in img.items()):
                continue
            if augmentation is not None:
                eps = f.mul(c, augmentation.values[i]) if exps == zero_exps else f.zero
                if not f.is_zero(f.sub(eps, f.one)):
                    continue
            return {i: ring.monomial(exps, c)}, "shortcut"
    keys = sorted(set(rhs_terms) | {k for col in cols for k in col})
    key_row = {k: r for r, k in enumerate(keys)}
    rows = [[f.zero] * len(unknowns) for _ in range(len(keys))]
    for j, col in enumerate(cols):
        for k, c in col.items():
            rows[key_row[k]][j] = c
    b = [rhs_terms.get(k, f.zero) for k in keys]
    if augmentation is not None:
        rows.append([augmentation.values[i] if exps == zero_exps else f.zero
                     for i, exps in unknowns])
        b.append(f.one)
    if not unknowns:
        return (None, "none") if any(not f.is_zero(x) for x in b) else ({}, "system")
    x = _oracle_solve(rows, b, f)
    if x is None:
        return None, "none"
    y = {}
    for (i, exps), c in zip(unknowns, x):
        if not f.is_zero(c):
            y[i] = y.get(i, ring.zero()) + ring.monomial(exps, c)
    return y, "system"


def _random_element(C, degree, rng, density=0.4):
    ring = C.ring
    y = {}
    for i in range(C.n):
        for exps in monomials_of_weighted_degree(ring, degree - C.degree(i)):
            if rng.random() < density:
                y[i] = y.get(i, ring.zero()) + ring.monomial(exps, _nonzero_scalar(ring, rng))
    return y


def _solver_inputs(C, rng):
    """(rhs, degree, augmentation) cases on C: boundaries, non-boundaries,
    the augmentation condition, and scaled images of one unknown (shortcut
    candidates)."""
    ring = C.ring
    f = ring.field
    w = ring.var_weight
    degrees = sorted({C.degree(i) + w * k for i in range(C.n) for k in range(2)})
    for q in degrees:
        z = _random_element(C, q, rng)
        yield C.d(z), q, None
        yield _random_element(C, q + 1, rng), q, None
        unknowns = [(i, e) for i in range(C.n)
                    for e in monomials_of_weighted_degree(ring, q - C.degree(i))]
        if unknowns:
            i, exps = rng.choice(unknowns)
            one = {i: ring.monomial(exps, _nonzero_scalar(ring, rng))}
            yield C.d(one), q, None
    values = [f.of(rng.randrange(3)) for _ in range(C.n)]
    aug = Augmentation(C, values)
    for q in sorted({C.degree(i) for i in range(C.n)}):
        for rhs in ({}, C.d(_random_element(C, q, rng))):
            yield rhs, q, aug


def _solver_complexes(field, rng):
    for r, m, w in [(2, 0, 1), (2, 1, 1), (3, 0, 1), (3, 1, 2)]:
        yield koszul(RingSpec(field, r, w), m).base
    for r in (2, 3):
        for _ in range(2):
            yield random_free_complex(RingSpec(field, r, 1), rng, max_gens=8)[0]


@pytest.mark.parametrize("field", [Q, F2, F3], ids=["Q", "F2", "F3"])
def test_solve_boundary_equation_matches_dense_system(field, monkeypatch):
    """The same y as the dense reference, with at most one image per
    unknown, and exactly one per unknown when the general solve runs."""
    calls = []
    monomial_image = lift.monomial_image
    monkeypatch.setattr(
        lift, "monomial_image", lambda *args: calls.append(1) or monomial_image(*args)
    )
    rng = random.Random(2008)
    seen = {"shortcut": 0, "system": 0, "none": 0, "augmented": 0, "images skipped": 0}
    for C in _solver_complexes(field, rng):
        for rhs, q, aug in _solver_inputs(C, rng):
            want, how = _dense_solve_boundary(C, rhs, q, aug)
            calls.clear()
            got = solve_boundary_equation(BoundaryCache(C), rhs, q, aug)
            assert got == want
            n_unknowns = sum(
                len(monomials_of_weighted_degree(C.ring, q - C.degree(i))) for i in range(C.n)
            )
            assert len(calls) <= n_unknowns
            if how == "system":
                assert len(calls) == n_unknowns
            seen["images skipped"] += len(calls) < n_unknowns
            if got is not None:
                assert C.d(got) == rhs
            seen[how] += 1
            seen["augmented"] += aug is not None and how != "none"
    assert all(seen.values()), seen


@pytest.mark.parametrize("field", [Q, F2, F3], ids=["Q", "F2", "F3"])
def test_shared_cache_builds_each_image_once(field, monkeypatch):
    """Solves sharing one BoundaryCache give the answers of uncached
    solves and build each (generator, exponents) image at most once."""
    calls = []
    monomial_image = lift.monomial_image
    monkeypatch.setattr(
        lift, "monomial_image", lambda *args: calls.append(1) or monomial_image(*args)
    )
    rng = random.Random(2008)
    uncached = shared = 0
    for C in _solver_complexes(field, rng):
        cache = BoundaryCache(C)
        built = 0
        for rhs, q, aug in _solver_inputs(C, rng):
            calls.clear()
            want = solve_boundary_equation(BoundaryCache(C), rhs, q, aug)
            uncached += len(calls)
            calls.clear()
            assert solve_boundary_equation(cache, rhs, q, aug) == want
            built += len(calls)
        assert built == len(cache._images)
        shared += built
    assert shared < uncached



def _with_copies(C, rng):
    """C with a copy of some of its generators appended: the same degree
    and column, and nothing maps to it.  Returns (complex, {copy: original})."""
    originals = sorted(rng.sample(range(C.n), max(1, C.n // 2)))
    n = C.n + len(originals)
    D = PolyMatrix(C.ring, n, n)
    D.entries = dict(C.differential.entries)
    gens = list(C.generators)
    copies = {}
    for i in originals:
        copies[len(gens)] = i
        gens.append((C.generators[i][0] + "_copy", C.degree(i)))
        for (u, j), p in C.differential.entries.items():
            if j == i:
                D.entries[(u, len(gens) - 1)] = p
    return FreeComplex(C.ring, gens, D), copies


@pytest.mark.parametrize("field", [Q, F2, F3], ids=["Q", "F2", "F3"])
def test_shortcut_takes_the_first_match_of_a_full_scan(field):
    """The shortcut walks only the generators of one row of d, yet it
    returns the unknown that a scan of every unknown in order finds
    first.  Each complex has copies of some generators, so a scaled image
    of an original is one of its copy too, and the earlier one must win."""
    rng = random.Random(22)
    seen = {"shortcut": 0, "copy also matches": 0}
    for C in _solver_complexes(field, rng):
        D, copies = _with_copies(C, rng)
        for rhs, q, aug in _solver_inputs(D, rng):
            want, how = _dense_solve_boundary(D, rhs, q, aug)
            if how != "shortcut":
                continue
            assert solve_boundary_equation(BoundaryCache(D), rhs, q, aug) == want
            seen["shortcut"] += 1
            (i,) = want
            seen["copy also matches"] += i in copies.values()
    assert all(seen.values()), seen
