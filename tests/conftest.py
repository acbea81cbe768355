import random

import pytest

from koszulalg.ring import FieldSpec, RingSpec
from koszulalg.complexes import FreeComplex, direct_sum
from koszulalg.linalg import PolyMatrix, rref


def scalar_rank(rows, ops):
    """The rank of a dense scalar matrix, the number of RREF pivots."""
    return len(rref(rows, ops)[1])


def random_free_complex(ring, rng, max_gens=12):
    """Valid homogeneous free complex built from small blocks conjugated
    by random elementary basis changes.

    Blocks: lone generators (survive into the minimal model), scalar
    contractible pairs (cancelled by minimization), and polynomial pairs
    d(b) = p*a with p a positive-degree monomial (minimal but with
    nonzero differential).  Returns (complex, expected model dimension).
    """
    w = ring.var_weight
    gens = []
    entries = {}
    expected_model_dim = 0
    while len(gens) < max_gens - 1:
        kind = rng.randrange(3)
        if kind == 0 or max_gens - len(gens) < 2:
            gens.append((f"g{len(gens)}", rng.randrange(0, 4) * w))
            expected_model_dim += 1
            if len(gens) >= max_gens:
                break
            continue
        qa = rng.randrange(0, 4) * w
        a = len(gens)
        if kind == 1:
            gens.append((f"g{a}", qa + 1))
            gens.append((f"g{a + 1}", qa))
            entries[(a, a + 1)] = ring.constant(_nonzero_scalar(ring, rng))
        else:
            d = rng.randrange(1, 3)
            exps = [0] * ring.num_vars
            for _ in range(d):
                exps[rng.randrange(ring.num_vars)] += 1
            gens.append((f"g{a}", qa))
            gens.append((f"g{a + 1}", qa + d * w - 1))
            entries[(a, a + 1)] = ring.monomial(exps, _nonzero_scalar(ring, rng))
            expected_model_dim += 2
    n = len(gens)
    D = PolyMatrix(ring, n, n)
    D.entries.update(entries)
    C = _conjugate(FreeComplex(ring, gens, D), rng, 2 * n)
    assert C.validate() == []
    return C, expected_model_dim


def noisy_complex(base, rng, pairs=4, moves=None):
    """base plus `pairs` contractible scalar pairs d(b) = c*a (deg a =
    deg b + 1, going round the degrees of base), after random homogeneous
    basis changes.  Homotopy equivalent to base."""
    ring = base.ring
    degrees = sorted(set(base.degrees)) or [0]
    gens = []
    D = PolyMatrix(ring, 2 * pairs, 2 * pairs)
    for k in range(pairs):
        q = degrees[k % len(degrees)]
        gens += [(f"na{k}", q + 1), (f"nb{k}", q)]
        D.entries[(2 * k, 2 * k + 1)] = ring.constant(_nonzero_scalar(ring, rng))
    C = direct_sum(base, FreeComplex(ring, gens, D))
    C = _conjugate(C, rng, 3 * C.n if moves is None else moves)
    assert C.validate() == []
    return C


def _conjugate(C, rng, steps):
    """C after up to `steps` random homogeneous elementary basis changes
    e_s -> e_s + p e_t."""
    ring = C.ring
    w = ring.var_weight
    gens = C.generators
    n = C.n
    for _ in range(steps):
        s = rng.randrange(n)
        t = rng.randrange(n)
        if s == t:
            continue
        need = gens[s][1] - gens[t][1]
        if need < 0 or need % w:
            continue
        exps = [0] * ring.num_vars
        for _ in range(need // w):
            exps[rng.randrange(ring.num_vars)] += 1
        p = ring.monomial(exps, _nonzero_scalar(ring, rng))
        T = PolyMatrix.identity(ring, n)
        T.entries[(t, s)] = p
        Tinv = PolyMatrix.identity(ring, n)
        Tinv.entries[(t, s)] = -p
        C = FreeComplex(ring, gens, Tinv @ C.differential @ T)
    return C


def _nonzero_scalar(ring, rng):
    p = ring.field.characteristic
    if p == 0:
        c = 0
        while c == 0:
            c = rng.randint(-3, 3)
        return c
    return rng.randrange(1, p)


@pytest.fixture(scope="module")
def random_corpus():
    """100 random free complexes with their known minimal dimensions."""
    rng = random.Random(20260823)
    corpus = []
    for k in range(100):
        field = FieldSpec(2) if k % 2 else FieldSpec(0)
        r = 2 + (k % 4 == 0)
        C, expected = random_free_complex(RingSpec(field, r, 1), rng, max_gens=12)
        corpus.append((C, expected))
    return corpus


@pytest.fixture
def rng():
    return random.Random(20260823)


@pytest.fixture(params=[0, 2], ids=["Q", "F2"])
def field(request):
    return FieldSpec(request.param)
