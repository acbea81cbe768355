"""Additive minimal models via iterated cancellation of scalar pivots.

A differential entry with nonzero constant term is necessarily a pure
scalar (homogeneity between distinct degrees), so each cancellation is a
change of basis killing one generator pair.  For the pivot c = d_ij it
is a rank-one update of sparse rows, with no matrix product:

    D[u, v]    -= c^-1 d_uj d_iv            (the Schur complement)
    incl[:, v] -= c^-1 d_iv incl[:, j]
    proj[u, :] -= c^-1 d_uj proj[i, :]
    hom        += c^-1 incl[:, j] (x) proj[i, :]

over the kept generators u, v.  These are the products with the local
inclusion, projection and homotopy of the pair, so the returned
equivalence data satisfies exact matrix identities (MinimalModel.verify).
"""

from __future__ import annotations

from dataclasses import dataclass

from .ring import Polynomial, add_product
from .complexes import FreeComplex
from .linalg import PolyMatrix, apply_columns, axpy, span, sum_of_products
from .chainmaps import ChainMap, Homotopy


@dataclass
class MinimalModel:
    model: FreeComplex
    inclusion: ChainMap  # model -> source
    projection: ChainMap  # source -> model
    homotopy: Homotopy  # source -> source
    source: FreeComplex

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
        for a, p in incl[j].items():
            _add_rank_one(hom.setdefault(a, {}), c_inv, p, proj[i], ring)
        for v, d_iv in row_i.items():
            _add_rank_one(incl[v], minus, d_iv, incl[j], ring)
        for u, d_uj in col_j.items():
            _add_rank_one(proj[u], minus, d_uj, proj[i], ring)
            _add_rank_one(rows[u], minus, d_uj, row_i, ring)
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


def _add_rank_one(vec, c, p, other, ring):
    """vec += c * p * other for sparse vectors {index: Polynomial}, in place."""
    for k, q in other.items():
        old = vec.get(k)
        terms = add_product(dict(old.terms) if old is not None else {}, c, p, q, ring.field)
        if terms:
            vec[k] = Polynomial(ring, terms)
        elif old is not None:
            del vec[k]


def _assemble(ring, rows, cols, triples):
    """The PolyMatrix with the (i, j, p) entries given."""
    M = PolyMatrix(ring, rows, cols)
    M.entries = {(i, j): p for i, j, p in triples}
    return M


@dataclass
class LambdaAction:
    """The degree-preserving linear-in-t_i parts of a minimal differential.

    maps[i] is a scalar matrix on the model generators, stored by column
    as {j: {i: nonzero scalar}}.  With weight-1 grading the coefficient
    of t_i is automatically degree-preserving; with weight 2 a t_i
    coefficient would shift the total degree, so the degree-preserving
    part (and hence the whole action) vanishes.
    """

    model: FreeComplex
    maps: list  # one scalar matrix, by column, per variable

    def _product(self, a, b):
        """maps[a] @ maps[b], by column."""
        f = self.model.ring.field
        return {j: apply_columns(self.maps[a], col, f) for j, col in self.maps[b].items()}

    def check_anticommutation(self):
        """(a, b, i, j) for each nonzero entry of lambda_a lambda_b +
        lambda_b lambda_a (a <= b), then of each lambda_a^2."""
        f = self.model.ring.field
        problems = []

        def report(a, b, columns):
            nonzero = sorted((i, j) for j, col in columns.items() for i in col)
            problems.extend((a, b, i, j) for i, j in nonzero)

        for a in range(len(self.maps)):
            for b in range(a, len(self.maps)):
                total = self._product(a, b)
                for j, col in self._product(b, a).items():
                    axpy(total.setdefault(j, {}), f.one, col, f)
                report(a, b, total)
        # lambda_i^2 = 0 follows from d^2 = 0 in every characteristic
        for a in range(len(self.maps)):
            report(a, a, self._product(a, a))
        return problems

    def is_trivial(self) -> bool:
        return not any(self.maps)


def lambda_ops(M) -> LambdaAction:
    """Extract the lambda_i matrices from a minimal model (or FreeComplex)."""
    model = M.model if isinstance(M, MinimalModel) else M
    if not is_minimal(model):
        raise ValueError("lambda operators need a minimal differential")
    ring = model.ring
    maps = []
    for var in range(ring.num_vars):
        exps = [0] * ring.num_vars
        exps[var] = 1
        exps = tuple(exps)
        mat = {}
        for (i, j), p in model.differential.entries.items():
            if model.degree(i) != model.degree(j):
                continue  # only the degree-preserving part acts on H^q
            c = p.terms.get(exps)
            if c is not None:
                mat.setdefault(j, {})[i] = c
        maps.append(mat)
    return LambdaAction(model, maps)


def lambda_length(M, q: int) -> int:
    """Minimal i with (Λ⁺)^i H^q = 0; 0 when H^q itself is zero."""
    action = M if isinstance(M, LambdaAction) else lambda_ops(M)
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

