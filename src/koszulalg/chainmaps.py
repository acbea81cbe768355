"""Chain maps and homotopies between free complexes.

Maps ignore grading and exterior length unless a caller asks otherwise;
the only structural requirement on a ChainMap is the commutation
identity, checked exactly as a PolyMatrix identity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .ring import RingSpec
from .complexes import FreeComplex, HomologyData, koszul, tensor_quotient
from .linalg import PolyMatrix, rank_exact, rank_probabilistic


@dataclass
class ChainMap:
    source: FreeComplex
    target: FreeComplex
    matrix: PolyMatrix  # target.n x source.n; column j = image of e_j

    def __post_init__(self):
        if self.matrix.rows != self.target.n or self.matrix.cols != self.source.n:
            raise ValueError("chain map matrix has wrong shape")

    def apply(self, element):
        return self.matrix.apply(element)

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self ∘ other (other first)."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition shape mismatch")
        return ChainMap(other.source, self.target, self.matrix @ other.matrix)

    def commutator(self) -> PolyMatrix:
        return self.matrix @ self.source.differential - self.target.differential @ self.matrix


@dataclass
class Homotopy:
    """Any R-linear map source -> target; no constraints beyond shape."""

    source: FreeComplex
    target: FreeComplex
    matrix: PolyMatrix

    def __post_init__(self):
        if self.matrix.rows != self.target.n or self.matrix.cols != self.source.n:
            raise ValueError("homotopy matrix has wrong shape")

    def degree_violations(self):
        """Entries whose weighted degree differs from the -1 requirement."""
        bad = []
        for (i, j), p in sorted(self.matrix.entries.items()):
            want = self.source.degree(j) - 1 - self.target.degree(i)
            got = p.weighted_degree()
            if got != want:
                bad.append((i, j, got, want))
        return bad


def standard_iota(ring: RingSpec, m: int):
    """The dga map K_r(m) -> K_r(0), s_I -> (prod_{i in I} t_i^m) s_I.

    Returns (ChainMap, source KoszulComplex, target KoszulComplex).
    """
    Km = koszul(ring, m)
    K0 = koszul(ring, 0)
    M = PolyMatrix(ring, K0.n, Km.n)
    for j, I in enumerate(Km.subsets):
        exps = [0] * ring.num_vars
        for i in I:
            exps[i - 1] = m
        M.entries[(K0.subset_index[I], j)] = ring.monomial(exps)
    return ChainMap(Km.base, K0.base, M), Km, K0


def perturb(f: ChainMap, h: Homotopy) -> ChainMap:
    """f + d_target ∘ h + h ∘ d_source; a chain map by construction."""
    if h.source != f.source or h.target != f.target:
        raise ValueError("homotopy shape incompatible with map")
    g = f.matrix + f.target.differential @ h.matrix + h.matrix @ f.source.differential
    return ChainMap(f.source, f.target, g)


def is_chain_map(f: ChainMap):
    """None if the commutation identity holds, else the first bad column index."""
    delta = f.commutator()
    if delta.is_zero():
        return None
    return min(j for (_, j) in delta.entries)


def rank_of_map(f: ChainMap, mode: str = "exact", seed: int = 0) -> int:
    if mode == "exact":
        return rank_exact(f.matrix)
    if mode == "probabilistic":
        return rank_probabilistic(f.matrix, seed)
    raise ValueError(f"unknown rank mode {mode!r}")


def restricted_rank(f: ChainMap, sub_basis) -> int:
    """Exact rank of the column submatrix; |sub_basis| iff injective there."""
    sub_basis = list(sub_basis)
    for j in sub_basis:
        if not 0 <= j < f.source.n:
            raise IndexError(j)
    if not sub_basis:
        return 0
    return rank_exact(f.matrix.submatrix_columns(sub_basis))


def induced_map_mod(f: ChainMap, a):
    """Induced k-linear map on homology of the two tensor-quotient complexes.

    Returns (matrix rows over k, source HomologyData, target HomologyData);
    the matrix has one row per target class and one column per source class.
    """
    a = tuple(a)
    Fs = tensor_quotient(f.source, a)
    Ft = tensor_quotient(f.target, a)
    Hs = HomologyData(Fs)
    Ht = HomologyData(Ft)
    ops = Hs.field
    lookup_t = Ft.tensor_info["lookup"]
    cols = []
    for rep in Hs.representatives:
        image = {}
        for pos, c in rep.items():
            gi, mu = Fs.tensor_info["items"][pos]
            for i in range(f.target.n):
                p = f.matrix.entries.get((i, gi))
                if p is None:
                    continue
                q = p.multiply_monomial(mu).reduce_mod_powers(a)
                for e, pc in q.terms.items():
                    k = lookup_t[(i, e)]
                    image[k] = ops.add(image.get(k, ops.zero), ops.mul(c, pc))
        cols.append(Ht.project(image))
    rows = [[cols[j][i] for j in range(len(cols))] for i in range(Ht.total_dim)]
    return rows, Hs, Ht


def random_homotopy(
    source: FreeComplex,
    target: FreeComplex,
    rng: random.Random,
    homogeneous: bool = False,
    zero_probability: float = 0.5,
    max_terms: int = 2,
    degree_bound: int = 4,
) -> Homotopy:
    """Sparse random homotopy: each basis image is 0 with the given
    probability, otherwise a short sum of monomial multiples of target
    generators.  With homogeneous=True every entry gets the exact
    degree-(-1) monomial degree (impossible choices are skipped)."""
    ring = source.ring
    M = PolyMatrix(ring, target.n, source.n)
    for j in range(source.n):
        if rng.random() < zero_probability:
            continue
        for _ in range(rng.randint(1, max_terms)):
            i = rng.randrange(target.n)
            if homogeneous:
                need = source.degree(j) - 1 - target.degree(i)
                if need < 0 or need % ring.var_weight:
                    continue
                total = need // ring.var_weight
            else:
                total = rng.randint(0, degree_bound)
            exps = _random_composition(rng, total, ring.num_vars)
            coeff = _random_nonzero_scalar(ring, rng)
            p = M.entry(i, j) + ring.monomial(exps, coeff)
            M.set(i, j, p)
    return Homotopy(source, target, M)


def _random_composition(rng, total, parts):
    exps = [0] * parts
    for _ in range(total):
        exps[rng.randrange(parts)] += 1
    return exps


def _random_nonzero_scalar(ring: RingSpec, rng):
    p = ring.field.characteristic
    if p == 0:
        c = 0
        while c == 0:
            c = rng.randint(-3, 3)
        return c
    return rng.randrange(1, p)


def rank_six_fixture(ring: RingSpec = None):
    """The explicit rank-6 perturbation of iota at r = 3, m = 1 over F_2.

    Returns (gamma, iota, homotopy, x, dx, Km, K0) where x is the
    element gamma kills.
    """
    from .ring import FieldSpec

    if ring is None:
        ring = RingSpec(FieldSpec(2), 3, 1)
    if ring.num_vars != 3:
        raise ValueError("the fixture needs r = 3")
    iota, Km, K0 = standard_iota(ring, 1)
    H = PolyMatrix(ring, K0.n, Km.n)
    # h(s_1) = s0_123, h(s_23) = t3 * s0_12, otherwise 0
    H.set(K0.subset_index[(1, 2, 3)], Km.subset_index[(1,)], ring.one())
    H.set(K0.subset_index[(1, 2)], Km.subset_index[(2, 3)], ring.var(3))
    h = Homotopy(Km.base, K0.base, H)
    gamma = perturb(iota, h)
    x = Km.base.zero_element()
    x[Km.subset_index[(1, 2)]] = ring.var(1) * ring.var(3)
    x[Km.subset_index[(1, 2, 3)]] = ring.var(2)
    dx = Km.base.d(x)
    return gamma, iota, h, x, dx, Km, K0
