"""Additive minimal models via iterated cancellation of scalar pivots.

A differential entry with nonzero constant term is necessarily a pure
scalar (homogeneity between distinct degrees), so each cancellation is a
change of basis killing one generator pair.  The inclusion, projection
and homotopy certificates are composed step by step, so the returned
equivalence data satisfies exact matrix identities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import FreeComplex
from .linalg import PolyMatrix, apply_columns, axpy, span
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
        n_m = self.model.n
        n_c = self.source.n
        ring = self.model.ring
        pi = self.projection.matrix @ self.inclusion.matrix
        if pi != PolyMatrix.identity(ring, n_m):
            problems.append("projection ∘ inclusion != identity")
        lhs = PolyMatrix.identity(ring, n_c) - self.inclusion.matrix @ self.projection.matrix
        d = self.source.differential
        rhs = d @ self.homotopy.matrix + self.homotopy.matrix @ d
        if lhs != rhs:
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


def _scalar_pivots(C: FreeComplex):
    """All (i, j, c) with d_ij having nonzero constant term c.

    Asserts the homogeneity consequence that such an entry is a pure
    scalar; a violating entry means the input complex was invalid.
    """
    f = C.ring.field
    out = []
    for (i, j), p in C.differential.entries.items():
        c = p.constant_coeff()
        if not f.is_zero(c):
            if len(p.terms) != 1:
                raise ValueError(
                    f"differential entry ({i},{j}) mixes a constant with higher "
                    "terms; the complex is not degree-homogeneous"
                )
            out.append((i, j, c))
    return out


def minimal_model(C: FreeComplex, pivot_rng=None) -> MinimalModel:
    """Cancel scalar pivots until none remain, composing certificates.

    pivot_rng, when given, randomizes the pivot choice (used to check
    order-invariance of the result); the default picks the candidate
    with the lowest source-generator degree.
    """
    problems = C.validate()
    if problems:
        raise ValueError("invalid complex: " + "; ".join(problems))
    ring = C.ring
    f = ring.field
    n0 = C.n
    gens = list(C.generators)
    D = C.differential
    incl = PolyMatrix.identity(ring, n0)  # n0 x n_cur
    proj = PolyMatrix.identity(ring, n0)  # n_cur x n0
    hom = PolyMatrix.zero(ring, n0, n0)
    cur = FreeComplex(ring, gens, D)
    while True:
        pivots = _scalar_pivots(cur)
        if not pivots:
            break
        if pivot_rng is not None:
            i, j, c = pivots[pivot_rng.randrange(len(pivots))]
        else:
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
                inc_s.entries[(j, col)] = d_iv.scale(f.neg(c_inv))
        # local projection: e_u -> e_u; e_i -> -c^{-1} sum_u d_{uj} e_u; e_j -> 0
        prj_s = PolyMatrix(ring, len(keep), n)
        row_of = {v: row for row, v in enumerate(keep)}
        for row, v in enumerate(keep):
            prj_s.entries[(row, v)] = ring.one()
        for u in keep:
            d_uj = cur.differential.entries.get((u, j))
            if d_uj is not None:
                prj_s.entries[(row_of[u], i)] = d_uj.scale(f.neg(c_inv))
        # local homotopy: e_i -> c^{-1} e_j
        hom_s = PolyMatrix(ring, n, n)
        hom_s.entries[(j, i)] = ring.constant(c_inv)
        new_D = prj_s @ cur.differential @ inc_s
        hom = hom + incl @ hom_s @ proj
        incl = incl @ inc_s
        proj = prj_s @ proj
        cur = FreeComplex(
            ring, [cur.generators[v] for v in keep], new_D
        )
    model = cur
    return MinimalModel(
        model=model,
        inclusion=ChainMap(model, C, incl),
        projection=ChainMap(C, model, proj),
        homotopy=Homotopy(C, C, hom),
        source=C,
    )


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

