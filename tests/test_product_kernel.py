"""The one sparse product kernel (linalg.sum_of_products) and the chain-map
checks on it, against entry-by-entry products (product_oracle)."""

import random
from fractions import Fraction

import pytest

from koszulalg import linalg
from koszulalg.chainmaps import (
    ChainMap, is_chain_map, perturb, random_homotopy, standard_iota,
)
from koszulalg.linalg import PolyMatrix, sum_of_products
from koszulalg.minimal import minimal_model
from koszulalg.ring import FieldSpec, RingSpec

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
    assert is_chain_map(gamma) is None


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
