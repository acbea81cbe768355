"""Matrix products entry by entry: the test oracle for
koszulalg.linalg.sum_of_products.

Each entry of A*B is built as a sum of Polynomial products, with the term
products multiplied out by a schoolbook loop of its own, so the oracle
shares no product code with the library kernel.  MinimalModel.verify is
restated on these products as the reference for its problem messages.
"""

from koszulalg.linalg import PolyMatrix
from koszulalg.minimal import is_minimal
from koszulalg.ring import Polynomial


def schoolbook_mul(p, q):
    """p * q, one term product at a time."""
    f = p.ring.field
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = f.add(out.get(e, f.zero), f.mul(c1, c2))
            if f.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
    return Polynomial(p.ring, out)


def oracle_sum(terms):
    """{(i, j): nonzero Polynomial} of the sum of c*A*B over (c, A, B);
    B None stands for the identity."""
    total = {}
    for c, A, B in terms:
        ring = A.ring
        if B is None:
            B = PolyMatrix.identity(ring, A.cols)
        for i in range(A.rows):
            for j in range(B.cols):
                entry = ring.zero()
                for k in range(A.cols):
                    entry = entry + schoolbook_mul(A.entry(i, k), B.entry(k, j))
                entry = entry.scale(c)
                total[(i, j)] = total.get((i, j), ring.zero()) + entry
    return {key: p for key, p in total.items() if p}


def oracle_commutator(f):
    """f d_source - d_target f, entry by entry."""
    minus = f.matrix.ring.field.neg(f.matrix.ring.field.one)
    return oracle_sum(
        [(1, f.matrix, f.source.differential), (minus, f.target.differential, f.matrix)]
    )


def oracle_verify(mm):
    """The problems of MinimalModel.verify, from oracle products."""
    field = mm.model.ring.field
    minus = field.neg(field.one)
    problems = []
    if not is_minimal(mm.model):
        problems.append("model differential has a nonzero constant part")
    incl, proj = mm.inclusion.matrix, mm.projection.matrix
    d, H = mm.source.differential, mm.homotopy.matrix
    id_m = PolyMatrix.identity(mm.model.ring, mm.model.n)
    if oracle_sum([(1, proj, incl)]) != oracle_sum([(1, id_m, None)]):
        problems.append("projection ∘ inclusion != identity")
    id_c = PolyMatrix.identity(mm.model.ring, mm.source.n)
    lhs = oracle_sum([(1, id_c, None), (minus, incl, proj)])
    if lhs != oracle_sum([(1, d, H), (1, H, d)]):
        problems.append("id - inclusion ∘ projection != dH + Hd")
    if oracle_commutator(mm.inclusion):
        problems.append("inclusion is not a chain map")
    if oracle_commutator(mm.projection):
        problems.append("projection is not a chain map")
    return problems
