"""Minimal models by matrix products: the test oracle for
koszulalg.minimal.minimal_model.

Each cancellation builds the local inclusion, projection and homotopy
of one scalar pivot as PolyMatrix objects and composes them with full
matrix products.  The library updates the same data in place by rank-one
(Schur) updates; both must give the same model and certificates.
"""

from koszulalg.complexes import FreeComplex
from koszulalg.linalg import PolyMatrix
from koszulalg.chainmaps import ChainMap, Homotopy
from koszulalg.minimal import MinimalModel


def _scalar_pivots(C: FreeComplex):
    """All (i, j, c) with d_ij having nonzero constant term c."""
    f = C.ring.field
    out = []
    for (i, j), p in C.differential.entries.items():
        c = p.constant_coeff()
        if not f.is_zero(c):
            if len(p.terms) != 1:
                raise ValueError(
                    f"differential entry ({i},{j}) mixes a constant with higher terms"
                )
            out.append((i, j, c))
    return out


def oracle_minimal_model(C: FreeComplex) -> MinimalModel:
    """Cancel the scalar pivot with the lowest (source degree, i, j)
    until none remain, composing the certificates by matrix products."""
    problems = C.validate()
    if problems:
        raise ValueError("invalid complex: " + "; ".join(problems))
    ring = C.ring
    f = ring.field
    n0 = C.n
    incl = PolyMatrix.identity(ring, n0)  # n0 x n_cur
    proj = PolyMatrix.identity(ring, n0)  # n_cur x n0
    hom = PolyMatrix(ring, n0, n0)
    cur = FreeComplex(ring, list(C.generators), C.differential)
    while True:
        pivots = _scalar_pivots(cur)
        if not pivots:
            break
        i, j, c = min(pivots, key=lambda t: (cur.degree(t[1]), t[0], t[1]))
        n = cur.n
        keep = [u for u in range(n) if u not in (i, j)]
        c_inv = f.inv(c)
        # local inclusion: e_v -> e_v - c^{-1} d_{iv} e_j
        inc_s = PolyMatrix(ring, n, len(keep))
        for col, v in enumerate(keep):
            inc_s.entries[(v, col)] = ring.one()
            d_iv = cur.differential.entries.get((i, v))
            if d_iv is not None:
                inc_s.entries[(j, col)] = d_iv * ring.constant(f.neg(c_inv))
        # local projection: e_u -> e_u; e_i -> -c^{-1} sum_u d_{uj} e_u; e_j -> 0
        prj_s = PolyMatrix(ring, len(keep), n)
        row_of = {v: row for row, v in enumerate(keep)}
        for row, v in enumerate(keep):
            prj_s.entries[(row, v)] = ring.one()
        for u in keep:
            d_uj = cur.differential.entries.get((u, j))
            if d_uj is not None:
                prj_s.entries[(row_of[u], i)] = d_uj * ring.constant(f.neg(c_inv))
        # local homotopy: e_i -> c^{-1} e_j
        hom_s = PolyMatrix(ring, n, n)
        hom_s.entries[(j, i)] = ring.constant(c_inv)
        new_D = prj_s @ cur.differential @ inc_s
        hom = hom + incl @ hom_s @ proj
        incl = incl @ inc_s
        proj = prj_s @ proj
        cur = FreeComplex(ring, [cur.generators[v] for v in keep], new_D)
    return MinimalModel(
        model=cur,
        inclusion=ChainMap(cur, C, incl),
        projection=ChainMap(C, cur, proj),
        homotopy=Homotopy(C, C, hom),
        source=C,
    )
