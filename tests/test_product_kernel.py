"""The one term-product loop (ring.add_product), the matrix sums built on
it (linalg.sum_of_products) and the chain-map checks on them, against
entry-by-entry products (product_oracle)."""

import random
from fractions import Fraction

import pytest

from koszulalg import linalg, ring as ring_module
from koszulalg.chainmaps import (
    ChainMap, is_chain_map, perturb, random_homotopy, standard_iota,
)
from koszulalg.complexes import koszul, linear_combination
from koszulalg.linalg import PolyMatrix, sum_of_products
from koszulalg.minimal import minimal_model
from koszulalg.ring import FieldSpec, PrimeField, RationalField, RingSpec

from conftest import noisy_complex, random_free_complex
from product_oracle import oracle_commutator, oracle_sum, oracle_verify, schoolbook_mul

FIELDS = [FieldSpec(0), FieldSpec(2), FieldSpec(3)]
FIELD_IDS = ["Q", "F2", "F3"]


def _scalar(field, rng):
    """A nonzero scalar; over Q often non-integral."""
    if field.characteristic:
        return rng.randrange(1, field.characteristic)
    return field.of(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))


def _poly(ring, rng):
    p = ring.zero()
    for _ in range(rng.randint(1, 3)):
        exps = [rng.randint(0, 2) for _ in range(ring.num_vars)]
        p = p + ring.monomial(exps, _scalar(ring.field, rng))
    return p


def _matrix(ring, rng, rows, cols, density=0.4):
    M = PolyMatrix(ring, rows, cols)
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                M.set(i, j, _poly(ring, rng))
    return M


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("seed", range(6))
def test_products_match_oracle(field, seed):
    rng = random.Random(seed)
    ring = RingSpec(field, 3, 1)
    m, k, n = (rng.randint(1, 6) for _ in range(3))
    A, B = _matrix(ring, rng, m, k), _matrix(ring, rng, k, n)
    assert (A @ B).entries == oracle_sum([(1, A, B)])
    C, E = _matrix(ring, rng, m, n), _matrix(ring, rng, m, k)
    terms = [(_scalar(field, rng), A, B), (field.one, C, None), (_scalar(field, rng), E, B)]
    got = sum_of_products(terms)
    assert (got.rows, got.cols) == (m, n)
    assert got.entries == oracle_sum(terms)
    assert all(got.entries.values())
    # a sum that cancels has no entries
    c = _scalar(field, rng)
    assert sum_of_products([(c, A, B), (field.neg(c), A, B)]).is_zero()


def _first_reached(terms):
    """The (i, j) of the sum of c*A*B in the order the kernel first reaches
    them: each term in turn; for B None each entry of A, otherwise each
    entry (i, k) of A with each entry (k, j) of B, in storage order."""
    seen = {}
    for _, A, B in terms:
        if B is None:
            seen.update(dict.fromkeys(A.entries))
            continue
        for i, k in A.entries:
            for k2, j in B.entries:
                if k2 == k:
                    seen.setdefault((i, j))
    return list(seen)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("seed", range(6))
def test_entries_come_in_first_reached_order(field, seed):
    """sum_of_products gives its entries in the order each (i, j) is first
    reached, cancelled entries left out, on sums with scaled, identity and
    cancelling terms; _peel, and through it _rows_at_point, iterates the
    rows and columns of its core in that order."""
    rng = random.Random(100 + seed)
    ring = RingSpec(field, 3, 1)
    m, k, n = (rng.randint(3, 7) for _ in range(3))
    A, B = _matrix(ring, rng, m, k), _matrix(ring, rng, k, n)
    A2 = PolyMatrix(ring, m, k)
    A2.entries = {key: p for key, p in A.entries.items() if rng.random() < 0.6}
    C = _matrix(ring, rng, m, n)
    C2 = PolyMatrix(ring, m, n)
    C2.entries = {key: p for key, p in C.entries.items() if rng.random() < 0.5}
    c, s = _scalar(field, rng), _scalar(field, rng)
    minus = field.neg(c)
    # c*A2*B and c*C2 cancel their parts of the first terms; s*A*B adds back
    terms = [(c, A, B), (c, C, None), (minus, A2, B), (minus, C2, None), (s, A, B),
             (field.one, C, None)]
    got = sum_of_products(terms)
    want = oracle_sum(terms)
    assert got.entries == want
    assert list(got.entries) == [key for key in _first_reached(terms) if key in want]
    partial = terms[:4]  # the pairs of c*A*B and c*A2*B, c*C and c*C2, only
    got = sum_of_products(partial)
    assert list(got.entries) == [key for key in _first_reached(partial)
                                 if key in oracle_sum(partial)]
    _, core = linalg._peel(got)
    order = list(dict.fromkeys(i for i, _ in got.entries))
    assert list(core) == [i for i in order if i in core]
    for i, row in core.items():
        assert list(row) == [j for i2, j in got.entries if i2 == i and j in row]


def test_add_product_reduces_each_total_once():
    """Over F_3, 2*t1^2 and 4*t1^2 meet in one total 6*t1^2 = 0: that
    entry is dropped, not built, and the (i, j) come in the order first
    reached."""
    ring = RingSpec(FieldSpec(3), 2, 1)
    t1, t2 = ring.var(1), ring.var(2)
    row = ring_module.triples({5: ring.monomial((1, 0), 2), 4: t2})
    sums = ring_module.add_product(
        [(0, 1, t1, row), (1, 2, ring.one(), row), (0, 2, t1, row[:1])], ring
    )
    assert list(sums) == [(0, 4), (1, 5), (1, 4)]
    assert sums == {(0, 4): t1 * t2, (1, 5): t1, (1, 4): ring.monomial((0, 1), 2)}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("seed", range(4))
def test_polynomial_product_matches_schoolbook(field, seed):
    rng = random.Random(seed)
    ring = RingSpec(field, 3, 1)
    for _ in range(20):
        p, q = _poly(ring, rng), _poly(ring, rng)
        assert p * q == schoolbook_mul(p, q)


def test_shape_and_ring_mismatches_raise():
    ring = RingSpec(FieldSpec(0), 2, 1)
    A = PolyMatrix.identity(ring, 2)
    with pytest.raises(ValueError):
        A @ PolyMatrix.identity(ring, 3)
    with pytest.raises(ValueError):
        sum_of_products([(1, A, None), (1, PolyMatrix.identity(ring, 3), None)])
    with pytest.raises(ValueError):
        A @ PolyMatrix.identity(RingSpec(FieldSpec(2), 2, 1), 2)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("r,m", [(2, 1), (3, 1), (3, 2)])
def test_perturb_and_commutator_match_oracle(field, r, m):
    ring = RingSpec(field, r, 1)
    iota, Km, K0 = standard_iota(ring, m)
    rng = random.Random(r * 10 + m)
    for trial in range(4):
        h = random_homotopy(Km.base, K0.base, rng, homogeneous=trial % 2 == 0)
        gamma = perturb(iota, h)
        want = oracle_sum([(1, iota.matrix, None), (1, K0.base.differential, h.matrix),
                           (1, h.matrix, Km.base.differential)])
        assert gamma.matrix.entries == want
        assert gamma.commutator().entries == oracle_commutator(gamma) == {}
        assert is_chain_map(gamma) is None
        # an arbitrary map of the same shape is usually not a chain map
        f = ChainMap(Km.base, K0.base, _matrix(ring, rng, K0.n, Km.n, density=0.2))
        delta = oracle_commutator(f)
        assert f.commutator().entries == delta
        assert is_chain_map(f) == (min(j for _, j in delta) if delta else None)


def test_chain_map_check_builds_no_polynomial(monkeypatch):
    ring = RingSpec(FieldSpec(0), 3, 1)
    iota, Km, K0 = standard_iota(ring, 1)
    gamma = perturb(iota, random_homotopy(Km.base, K0.base, random.Random(1), homogeneous=True))

    def no_polynomial(*args):
        raise AssertionError("a Polynomial was built")

    monkeypatch.setattr(linalg, "Polynomial", no_polynomial)
    monkeypatch.setattr(ring_module, "Polynomial", no_polynomial)
    assert is_chain_map(gamma) is None


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_product_paths_make_no_field_calls(field, monkeypatch):
    """Polynomial.__mul__, sum_of_products (through @ and +),
    PolyMatrix.apply, linear_combination and the rank-one updates of
    minimal_model multiply and add raw scalars in add_product: no
    FieldSpec.mul or FieldSpec.add call on any term."""
    rng = random.Random(3)
    ring = RingSpec(field, 3, 1)
    A, B, C = _matrix(ring, rng, 5, 4), _matrix(ring, rng, 4, 6), _matrix(ring, rng, 5, 6)
    p, q = _poly(ring, rng), _poly(ring, rng)
    x = {k: _poly(ring, rng) for k in range(4) if rng.random() < 0.7}
    pairs = [(_poly(ring, rng), {k: _poly(ring, rng) for k in range(3)}) for _ in range(3)]
    noisy = noisy_complex(koszul(ring, 1).base, random.Random(1), pairs=4)
    calls = []
    for cls in (RationalField, PrimeField):
        for name in ("mul", "add"):
            static = isinstance(cls.__dict__[name], staticmethod)
            original = getattr(cls, name)

            def spy(self, *args, original=original, static=static, name=name):
                calls.append(name)
                return original(*args) if static else original(self, *args)

            monkeypatch.setattr(cls, name, spy)
    assert field.mul(1, 1) == 1 and calls == ["mul"]  # the spies are live
    calls.clear()
    p * q
    A @ B
    A @ B + C
    A.apply(x)
    linear_combination(ring, pairs)
    mm = minimal_model(noisy)
    assert mm.model.n < noisy.n  # pairs were cancelled by rank-one updates
    assert calls == []


def _corrupt(mm, rng):
    """Add a random term to one entry of one part of the model data."""
    ring = mm.model.ring
    part = rng.choice(["model", "inclusion", "projection", "homotopy"])
    M = {
        "model": mm.model.differential,
        "inclusion": mm.inclusion.matrix,
        "projection": mm.projection.matrix,
        "homotopy": mm.homotopy.matrix,
    }[part]
    if not M.rows or not M.cols:
        return
    i, j = rng.randrange(M.rows), rng.randrange(M.cols)
    exps = [rng.randint(0, 1) for _ in range(ring.num_vars)]
    M.set(i, j, M.entry(i, j) + ring.monomial(exps, _scalar(ring.field, rng)))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_minimal_model_verify_matches_oracle(field):
    rng = random.Random(7)
    seen = set()
    for trial in range(12):
        ring = RingSpec(field, 2 + trial % 2, 1)
        C, _ = random_free_complex(ring, rng, max_gens=8)
        if trial % 3 == 0:
            C = noisy_complex(C, rng, pairs=2)
        mm = minimal_model(C)
        assert mm.verify() == oracle_verify(mm) == []
        for _ in range(1 + trial % 3):
            _corrupt(mm, rng)
        problems = mm.verify()
        assert problems == oracle_verify(mm)
        seen.update(problems)
    assert len(seen) >= 3  # the corruptions reach several identities


def test_rational_scalars_are_ints_when_integral():
    Q = FieldSpec(0)
    for value in (Q.of(Fraction(4, 2)), Q.inv(-1), Q.parse_scalar("6/3"), Q.div(6, 3),
                  Q.div(Fraction(1, 2), Fraction(1, 4)), Q.one, Q.zero):
        assert type(value) is int
    half = Q.parse_scalar("1/2")
    assert type(half) is Fraction and half == Fraction(1, 2)
    assert Q.inv(2) == half and type(Q.inv(2)) is Fraction
    assert Q.of(Fraction(4, 2)) == 2 == Fraction(2)
    for value in (2, -3, 0):
        assert Q.format_scalar(value) == Q.format_scalar(Fraction(value)) == str(value)
        assert hash(value) == hash(Fraction(value))
    assert Q.format_scalar(Q.parse_scalar("-6/4")) == "-3/2"
    with pytest.raises(ZeroDivisionError):
        Q.inv(0)
