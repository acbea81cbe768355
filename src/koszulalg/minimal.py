"""Additive minimal models via iterated cancellation of scalar pivots.

A differential entry with nonzero constant term is necessarily a pure
scalar (homogeneity between distinct degrees), so each cancellation is a
change of basis killing one generator pair.  For the pivot c = d_ij it
is a rank-one update of sparse rows, with no matrix product; each of
these four is one `ring.add_product` call:

    D[u, v]    -= c^-1 d_uj d_iv            (the Schur complement)
    incl[:, v] -= c^-1 d_iv incl[:, j]
    proj[u, :] -= c^-1 d_uj proj[i, :]
    hom        += c^-1 incl[:, j] (x) proj[i, :]

over the kept generators u, v.  These are the products with the local
inclusion, projection and homotopy of the pair, so the returned
equivalence data satisfies exact matrix identities (MinimalModel.verify).
"""

from __future__ import annotations

from .ring import add_product, triples
from .complexes import FreeComplex, Augmentation
from .linalg import PolyMatrix, apply_columns, span, sum_of_products
from .chainmaps import ChainMap, Homotopy


class MinimalModel:
    def __init__(self, model: FreeComplex, inclusion: ChainMap, projection: ChainMap,
                 homotopy: Homotopy, source: FreeComplex):
        self.model = model
        self.inclusion = inclusion  # model -> source
        self.projection = projection  # source -> model
        self.homotopy = homotopy  # source -> source
        self.source = source

    def model_augmentation(self, augmentation: Augmentation) -> Augmentation:
        """The augmentation of the source carried to the model (ε ∘ inclusion)."""
        return Augmentation(self.model, augmentation.on_columns(self.inclusion.matrix))

    def verify(self):
        """Exact certificate identities; [] when all hold."""
        problems = []
        if not is_minimal(self.model):
            problems.append("model differential has a nonzero constant part")
        ring = self.model.ring
        one, minus = ring.field.one, ring.field.neg(ring.field.one)
        incl, proj = self.inclusion.matrix, self.projection.matrix
        d, H = self.source.differential, self.homotopy.matrix
        # each identity as one sum that must vanish
        id_m = PolyMatrix.identity(ring, self.model.n)
        if not sum_of_products([(one, proj, incl), (minus, id_m, None)]).is_zero():
            problems.append("projection ∘ inclusion != identity")
        id_c = PolyMatrix.identity(ring, self.source.n)
        if not sum_of_products(
            [(one, id_c, None), (minus, incl, proj), (minus, d, H), (minus, H, d)]
        ).is_zero():
            problems.append("id - inclusion ∘ projection != dH + Hd")
        if not self.inclusion.commutator().is_zero():
            problems.append("inclusion is not a chain map")
        if not self.projection.commutator().is_zero():
            problems.append("projection is not a chain map")
        return problems


def is_minimal(C: FreeComplex) -> bool:
    """True iff every differential entry has zero constant term."""
    f = C.ring.field
    return all(
        f.is_zero(p.constant_coeff()) for p in C.differential.entries.values()
    )


def minimal_model(C: FreeComplex, pivot_rng=None) -> MinimalModel:
    """Cancel scalar pivots until none remain, updating certificates.

    pivot_rng, when given, randomizes the pivot choice (used to check
    order-invariance of the result); the default picks the candidate
    with the lowest source-generator degree, then the lowest (i, j).
    Raises ValueError when C fails `FreeComplex.validate`.
    """
    problems = C.validate()
    if problems:
        raise ValueError("invalid complex: " + "; ".join(problems))
    ring = C.ring
    f = ring.field
    deg = C.degrees
    # sparse dicts over the generator indices of C, which the kept
    # generators keep until the model is assembled; D by row
    rows = {u: {} for u in range(C.n)}
    for (u, v), p in C.differential.entries.items():
        rows[u][v] = p
    one = ring.one()
    incl = {v: {v: one} for v in range(C.n)}  # by column: model -> source
    proj = {u: {u: one} for u in range(C.n)}  # by row: source -> model
    hom = {}
    while True:
        # an entry is a nonzero scalar exactly when deg u = deg v + 1
        pivots = sorted(
            (deg[v], u, v) for u, row in rows.items() for v in row if deg[u] == deg[v] + 1
        )
        if not pivots:
            break
        _, i, j = pivots[0 if pivot_rng is None else pivot_rng.randrange(len(pivots))]
        c_inv = f.inv(rows[i][j].constant_coeff())
        minus = f.neg(c_inv)
        # d_iv and d_uj over the kept u, v; rows and columns i, j go
        row_i = rows.pop(i)
        del rows[j]
        col_j = {u: row.pop(j) for u, row in rows.items() if j in row}
        for row in rows.values():
            row.pop(i, None)
        row_i.pop(i, None)
        row_i.pop(j)
        _add_rank_one(hom, c_inv, incl[j], proj[i], ring)
        _add_rank_one(incl, minus, row_i, incl[j], ring)
        _add_rank_one(proj, minus, col_j, proj[i], ring)
        _add_rank_one(rows, minus, col_j, row_i, ring)
        for g in (i, j):
            del incl[g], proj[g]
    kept = sorted(incl)
    at = {g: k for k, g in enumerate(kept)}
    n = len(kept)
    D = _assemble(ring, n, n, ((at[u], at[v], p) for u in kept for v, p in rows[u].items()))
    model = FreeComplex(ring, [C.generators[g] for g in kept], D)
    inclusion = _assemble(ring, C.n, n, ((a, at[v], p) for v in kept for a, p in incl[v].items()))
    projection = _assemble(ring, n, C.n, ((at[u], b, p) for u in kept for b, p in proj[u].items()))
    homotopy = _assemble(ring, C.n, C.n, ((a, b, p) for a in hom for b, p in hom[a].items()))
    return MinimalModel(
        model=model,
        inclusion=ChainMap(model, C, inclusion),
        projection=ChainMap(C, model, projection),
        homotopy=Homotopy(C, C, homotopy),
        source=C,
    )


def _add_rank_one(vectors, c, coeffs, other, ring):
    """vectors[v] += c * coeffs[v] * other for each v of coeffs, in place,
    as one `add_product`; vectors and other are sparse {index: Polynomial}
    and vectors[v] is made empty when absent.  Only the entries at the
    indices of other change, so each vector keeps its order."""
    one, unit, row = ring.field.one, ring.one(), triples(other)
    products = []
    for v, p in coeffs.items():
        vec = vectors.setdefault(v, {})
        products.append((v, one, unit, triples({k: vec[k] for k in other if k in vec})))
        products.append((v, c, p, row))
    sums = add_product(products, ring)
    for v in coeffs:
        vec = vectors[v]
        for k in other:
            q = sums.get((v, k))
            if q is None:
                vec.pop(k, None)
            else:
                vec[k] = q


def _assemble(ring, rows, cols, entries):
    """The PolyMatrix with the (i, j, p) entries given."""
    M = PolyMatrix(ring, rows, cols)
    M.entries = {(i, j): p for i, j, p in entries}
    return M


class LambdaAction:
    """The degree-preserving linear-in-t_i parts of a minimal differential.

    maps[i] is a scalar matrix on the model generators, stored by column
    as {j: {i: nonzero scalar}}.  With weight-1 grading the coefficient
    of t_i is automatically degree-preserving; with weight 2 a t_i
    coefficient would shift the total degree, so the degree-preserving
    part (and hence the whole action) vanishes.
    """

    def __init__(self, model: FreeComplex, maps: list):
        self.model = model
        self.maps = maps  # one scalar matrix, by column, per variable

    def is_trivial(self) -> bool:
        return not any(self.maps)


def lambda_ops(F) -> LambdaAction:
    """The lambda_i matrices of the minimal model of the Filtration F:
    the slices of t_i, read from `F.slices`."""
    model = F.model_complex
    r = model.ring.num_vars
    maps = []
    for var in range(r):
        mat = {}
        for j, col in F.slices.get(tuple(int(k == var) for k in range(r)), {}).items():
            # only the degree-preserving part acts on H^q
            kept = {i: c for i, c in col.items() if model.degree(i) == model.degree(j)}
            if kept:
                mat[j] = kept
        maps.append(mat)
    return LambdaAction(model, maps)


def lambda_length(action: LambdaAction, q: int) -> int:
    """Minimal i with (Λ⁺)^i H^q = 0; 0 when H^q itself is zero."""
    model = action.model
    ops = model.ring.field
    n = model.n
    current = span(({i: ops.one} for i in range(n) if model.degree(i) == q), ops)
    length = 0
    while current.rank:
        length += 1
        current = span(
            (apply_columns(mat, v, ops) for mat in action.maps for v in current.rows.values()),
            ops,
        )
        if length > n + 1:
            raise RuntimeError("lambda action is not nilpotent")  # d^2 != 0
    return length

