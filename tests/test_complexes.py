import itertools
import random
from fractions import Fraction

import pytest

from koszulalg import complexes
from koszulalg.ring import FieldSpec, RingSpec, _NAME
from koszulalg.complexes import (
    FreeComplex,
    degree_violations,
    koszul,
    linear_combination,
    direct_sum,
    canonical_augmentation,
    Augmentation,
    tensor_quotient,
    FiniteComplex,
    HomologyData,
    min_generators_of_homology,
)
from koszulalg.fileio import complex_from_text, complex_to_text
from koszulalg.linalg import PolyMatrix

from conftest import noisy_complex, random_free_complex, scalar_rank
from homology_oracle import (
    finite_complex_problems, include, min_generators_by_projection, project, sparse_dot,
)

Q = FieldSpec(0)
F2 = FieldSpec(2)
F3 = FieldSpec(3)


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
                D = PolyMatrix(ring, C.n, C.n)
                D.entries = dict(C.differential.entries)
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

    def test_direct_sum_names_read_back(self):
        """A name of B already taken gets b_ prefixes until it is free, so
        the sum's file reads back to the same complex."""
        ring = RingSpec(F2, 1, 1)
        A = FreeComplex(ring, [("x", 0), ("b_x", 0), ("y", 0)], PolyMatrix(ring, 3, 3))
        D = PolyMatrix(ring, 2, 2)
        D.entries[(0, 1)] = ring.var(1)
        B = FreeComplex(ring, [("x", 1), ("y", 0)], D)
        S = direct_sum(A, B)
        assert [name for name, _ in S.generators] == ["x", "b_x", "y", "b_b_x", "b_y"]
        text = complex_to_text(S)
        C, _, _ = complex_from_text(text)
        assert C.generators == S.generators and C.differential == S.differential
        assert complex_to_text(C) == text


def _random_polynomial(ring, rng, terms=3):
    """A nonzero polynomial of a few terms of degree <= 2; over Q its
    coefficients are fractions with denominators up to 4."""
    denominators = (1, 2, 3, 4) if ring.field.characteristic == 0 else (1,)
    p = ring.zero()
    while p.is_zero():
        for _ in range(rng.randint(1, terms)):
            exps = [rng.randint(0, 2) for _ in range(ring.num_vars)]
            c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice(denominators))
            p = p + ring.monomial(exps, c)
    return p


@pytest.mark.parametrize("field", [Q, F2, F3], ids=["Q", "F2", "F3"])
def test_linear_combination_matches_matrix_apply(field):
    """sum c_k x_k equals M.apply({k: c_k}) for M with column k = x_k, with
    some pairs cancelling outright (c, x) + (-c, x) and others in part."""
    ring = RingSpec(field, 2, 1)
    rng = random.Random(7)
    n = 5
    for _ in range(40):
        pairs = []
        for _ in range(rng.randint(1, 5)):
            support = rng.sample(range(n), rng.randint(1, 3))
            x = {u: _random_polynomial(ring, rng) for u in sorted(support)}
            pairs.append((_random_polynomial(ring, rng), x))
        c, x = pairs[0]
        pairs.append((-c, x))  # cancels pair 0 outright
        c, x = pairs[-2]
        pairs.append((c, {u: -p for u, p in x.items() if u % 2}))  # cancels part of it
        M = PolyMatrix(ring, n, len(pairs))
        for k, (_, x) in enumerate(pairs):
            for u, p in x.items():
                M.set(u, k, p)
        got = linear_combination(ring, pairs)
        want = M.apply({k: c for k, (c, _) in enumerate(pairs)})
        assert got == want
        assert list(got) == sorted(got)
    assert linear_combination(ring, []) == {}


def test_degree_violations_shift():
    """want = deg e_j + shift - deg e_i, sorted by (i, j); got is None for
    an inhomogeneous entry."""
    ring = RingSpec(Q, 2, 1)
    C = FreeComplex(ring, [("a", 0), ("b", 1), ("c", 3)], PolyMatrix(ring, 3, 3))
    M = PolyMatrix(ring, 3, 3)
    M.set(2, 0, ring.parse("t1"))  # degree 1; deg a + shift - deg c = shift - 3
    M.set(0, 1, ring.parse("t1 + t2^2"))  # inhomogeneous
    M.set(1, 2, ring.parse("t1*t2"))  # degree 2; deg c + shift - deg b = shift + 2
    assert degree_violations(M, C, C, 0) == [(0, 1, None, 1), (2, 0, 1, -3)]
    assert degree_violations(M, C, C, 4) == [(0, 1, None, 5), (1, 2, 2, 6)]


class TestKoszul:
    @pytest.mark.parametrize("field", [Q, F2], ids=["Q", "F2"])
    @pytest.mark.parametrize("w", [1, 2])
    @pytest.mark.parametrize("r,m", [(1, 0), (2, 1), (3, 1), (3, 2)])
    def test_koszul_is_valid(self, field, w, r, m):
        K = koszul(RingSpec(field, r, w), m)
        assert K.base.validate() == []
        assert K.n == 2 ** r

    def test_generator_names_distinct_at_r12(self):
        # joined without a separator, s_(1,2) and s_(12) would both be s12
        K = koszul(RingSpec(F2, 12, 1), 0)
        names = [name for name, _ in K.base.generators]
        assert len(set(names)) == K.n == 2 ** 12
        assert all(_NAME.fullmatch(name) for name in names)
        assert names[K.subset_index[(12,)]] == "s12"
        assert names[K.subset_index[(1, 2)]] == "s1_2"
        text = complex_to_text(K.base)
        C, _, _ = complex_from_text(text)
        assert C.generators == K.base.generators
        assert C.differential == K.base.differential
        assert complex_to_text(C) == text

    def test_generator_names_unchanged_at_r9(self):
        K = koszul(RingSpec(F2, 9, 1), 0)
        assert [name for name, _ in K.base.generators] == [
            "s" + ("".join(map(str, I)) or "0") for I in K.subsets
        ]

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

    def test_augmentation_is_a_degree_0_map_that_kills_d(self):
        """epsilon may be nonzero only in degree 0, and on K_2(1) it kills
        d, which has no constant terms; in the second complex d(b) = 2a
        has one.  Each value off the rule is reported."""
        K = koszul(RingSpec(F3, 2, 1), 1)
        values = {"s0": 1, "s1": 2, "s12": 1}
        aug = Augmentation(K.base, [values.get(name, 0) for name, _ in K.base.generators])
        assert aug.validate() == [
            "augmentation is nonzero on s1 of degree 1",
            "augmentation is nonzero on s12 of degree 2",
        ]
        ring = RingSpec(F3, 1, 1)
        D = PolyMatrix(ring, 2, 2)
        D.entries[(0, 1)] = ring.constant(2)  # d(b) = 2a, a and b of degree 1 and 0
        C = FreeComplex(ring, [("a", 1), ("b", 0)], D)
        assert Augmentation(C, [1, 1]).validate() == [
            "augmentation is nonzero on a of degree 1", "augmentation does not kill d(b)",
        ]


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
                                want.setdefault(lookup[(j, mu)], {})[lookup[(i, e)]] = c
                assert F.columns == want
                assert finite_complex_problems(F) == []

    def test_basis_size(self):
        K = koszul(RingSpec(Q, 2, 1), 1)
        F = tensor_quotient(K.base, (2, 2))
        assert F.n == 4 * 4
        assert finite_complex_problems(F) == []

    def test_boundary_squared_nonzero_detected(self):
        field = FieldSpec(3)
        degrees = [0, 1, 1, 2]  # a, b, c, z
        # d a = b + c; d b = z and d c = -z cancel, then d c = z does not
        good = {0: {1: 1, 2: 1}, 1: {3: 1}, 2: {3: 2}}
        bad = {**good, 2: {3: 1}}
        assert finite_complex_problems(FiniteComplex(field, degrees, good)) == []
        assert finite_complex_problems(FiniteComplex(field, degrees, bad)) == [
            "boundary squared is nonzero"
        ]

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
            coords = project(H, rep)
            back = include(H, coords)
            # back - rep must be a boundary: project again to compare
            assert project(H, back) == coords


def _check_homology_certificates(F):
    """proj ∘ incl = id, proj(boundary) = 0, the representatives are
    independent cycles, and dim H^q = dim C^q - rank d^q - rank d^(q-1)."""
    H = HomologyData(F)
    ops = H.field
    columns = F.columns
    n = H.total_dim
    assert len(H.projection_rows) == n == sum(H.dims.values())
    for t, rep in enumerate(H.representatives):
        assert rep and all(not ops.is_zero(x) for x in rep.values())
        assert project(H, rep) == [ops.one if s == t else ops.zero for s in range(n)]
        assert include(H, project(H, rep)) == rep
        for i in range(F.n):  # d(rep) = 0, row by row
            row = {j: col[i] for j, col in columns.items() if i in col}
            assert ops.is_zero(sparse_dot(row, rep, ops))
    for col in columns.values():
        assert project(H, col) == [ops.zero] * n

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
        # one exponent per variable, also when no generator is live
        with pytest.raises(ValueError):
            min_generators_of_homology(koszul(RingSpec(Q, 2, 1), 1).base, (2,))


def _nonzero_quotient_cases(field):
    """Complexes and exponents whose quotient differential is nonzero."""
    for weight in (1, 2):
        for r in (1, 2, 3):
            ring = RingSpec(field, r, weight)
            yield koszul(ring, 0).base, (2,) * r
            yield koszul(ring, 1).base, (3,) * r
    rng = random.Random(11)
    for r in (1, 2):
        ring = RingSpec(field, r, 1)
        for _ in range(4):
            yield random_free_complex(ring, rng, max_gens=8)[0], (2, 3)[:r]
        yield noisy_complex(koszul(ring, 0).base, rng, pairs=2), (3,) * r
        yield noisy_complex(koszul(ring, 1).base, rng, pairs=2), (2, 3)[:r]


def _split_cases(field):
    """Complexes some of whose generators meet no term of d that survives
    mod t^a (all of K_r(1) at a = (2,...)), beside live ones."""
    rng = random.Random(7)
    for r in (1, 2, 3):
        ring = RingSpec(field, r, 1)
        both = direct_sum(koszul(ring, 0).base, koszul(ring, 1).base)
        yield both, (2,) * r
        yield noisy_complex(both, rng), (2,) * r
        yield koszul(ring, 1).base, (2, 3, 2)[:r]
        yield koszul(ring, 2).base, (3, 2, 4)[:r]


@pytest.mark.parametrize("field", [Q, F2, F3], ids=["Q", "F2", "F3"])
def test_min_generators_matches_projection_oracle(field):
    """dim Z - dim(B + t·Z) per degree, with the isolated generators split
    off, is the count the homology projections of the whole quotient
    give, on quotients whose differential is nonzero and on complexes
    that are partly isolated."""
    nonzero = 0
    for C, a in _nonzero_quotient_cases(field):
        assert min_generators_of_homology(C, a) == min_generators_by_projection(C, a)
        nonzero += bool(tensor_quotient(C, a).columns)
    assert nonzero >= 12
    split = list(_split_cases(field))
    assert len(split) == 12
    for C, a in split:
        assert min_generators_of_homology(C, a) == min_generators_by_projection(C, a)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_isolated_generators_build_no_quotient_item(monkeypatch, r):
    """In K_r(1) every term of d is some t_i^2, zero mod t^2: each
    generator is its own summand, and the count builds no quotient item."""
    sizes = []
    tensor_quotient = complexes.tensor_quotient

    def spy(C, a):
        F = tensor_quotient(C, a)
        sizes.append(F.n)
        return F

    monkeypatch.setattr(complexes, "tensor_quotient", spy)
    K = koszul(RingSpec(F2, r, 1), 1)
    assert min_generators_of_homology(K.base, (2,) * r) == 2 ** r
    assert sum(sizes) == 0
