"""Free graded cochain complexes over k[t_1..t_r] and the Koszul family.

A FreeComplex stores its differential as a square PolyMatrix whose
column j is d(e_j) in the generator basis.  An element of a free module
is a dict {generator index: nonzero Polynomial}; a missing generator has
coordinate 0 (see RingSpec.element).  Koszul complexes carry the
exterior product (signs keyed to exterior length) so they are honest
dgas; tensor_quotient and HomologyData provide the finite-dimensional
coefficient reductions everything downstream is checked against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add

from .ring import Polynomial, RingSpec, _grlex_key, add_product
from .linalg import PolyMatrix, Echelon, axpy, sparse_dot


class FreeComplex:
    """Finitely generated free graded R-module with differential of degree +1."""

    def __init__(self, ring: RingSpec, generators, differential: PolyMatrix):
        self.ring = ring
        self.generators = list(generators)  # (name, degree) pairs
        n = len(self.generators)
        if differential.rows != n or differential.cols != n:
            raise ValueError("differential must be square of size #generators")
        self.differential = differential
        self._index = {name: i for i, (name, _) in enumerate(self.generators)}
        if len(self._index) != n:
            raise ValueError("duplicate generator names")

    @property
    def n(self):
        return len(self.generators)

    def degree(self, i: int) -> int:
        return self.generators[i][1]

    @property
    def degrees(self):
        return [d for _, d in self.generators]

    def index(self, name: str) -> int:
        return self._index[name]

    def basis_element(self, i: int):
        return {i: self.ring.one()}

    def d(self, element):
        return self.differential.apply(element)

    def validate(self):
        """Every violated invariant as a list of messages; [] means ok."""
        problems = []
        f = self.ring.field
        by_row = self.differential.transpose().columns()  # {i: {k: d_ik}}
        # (d∘d)[i, j] = sum_k d_ik d_kj, row by row; the first nonzero
        # entry in (row, column) order is the one witness reported
        for i in sorted(by_row):
            dd_row = {}
            for k, p in by_row[i].items():
                for j, q in by_row.get(k, {}).items():
                    add_product(dd_row.setdefault(j, {}), f.one, p, q, f)
            bad = [j for j, terms in dd_row.items() if terms]
            if bad:
                j = min(bad)
                problems.append(
                    f"d∘d != 0: column {self.generators[j][0]} hits "
                    f"{self.generators[i][0]} with {Polynomial(self.ring, dd_row[j])}"
                )
                break
        for (i, j) in sorted(self.differential.entries):
            p = self.differential.entries[(i, j)]
            want = self.degree(j) + 1 - self.degree(i)
            got = p.weighted_degree()
            if got != want:
                problems.append(
                    f"inhomogeneous entry d[{self.generators[i][0]}, "
                    f"{self.generators[j][0]}]: degree {got}, expected {want}"
                )
        return problems

    def __repr__(self):
        return f"FreeComplex({self.n} generators over {self.ring})"


def direct_sum(A: FreeComplex, B: FreeComplex, rename=None) -> FreeComplex:
    if A.ring != B.ring:
        raise ValueError("summands over different rings")
    gens = list(A.generators)
    used = {n for n, _ in gens}
    mapping = {}
    for name, deg in B.generators:
        new = name if name not in used else (rename or "b_") + name
        while new in used:
            new += "'"
        used.add(new)
        mapping[name] = new
        gens.append((new, deg))
    n_a = A.n
    D = PolyMatrix(A.ring, len(gens), len(gens))
    for (i, j), p in A.differential.entries.items():
        D.entries[(i, j)] = p
    for (i, j), p in B.differential.entries.items():
        D.entries[(i + n_a, j + n_a)] = p
    return FreeComplex(A.ring, gens, D)


# ---------------------------------------------------------------------------
# Koszul complexes
# ---------------------------------------------------------------------------


def _subset_name(I) -> str:
    return "s0" if not I else "s" + "".join(str(i) for i in I)


def _shuffle_sign(I, J) -> int:
    inversions = sum(1 for a in I for b in J if a > b)
    return -1 if inversions % 2 else 1


class KoszulComplex:
    """K_r(m): exterior algebra on s_1..s_r over R, d(s_i) = t_i^{m+1}.

    Generators are indexed by subsets of {1..r}, ordered by cardinality
    then lexicographically; signs follow the standard convention
    (deletion sign (-1)^{j-1}, wedge sign by shuffle parity).
    """

    def __init__(self, ring: RingSpec, m: int):
        if m < 0:
            raise ValueError("m must be >= 0")
        self.ring = ring
        self.m = m
        r = ring.num_vars
        self.subsets = sorted(
            (tuple(c) for q in range(r + 1) for c in itertools.combinations(range(1, r + 1), q)),
            key=lambda I: (len(I), I),
        )
        self.subset_index = {I: i for i, I in enumerate(self.subsets)}
        w = ring.var_weight
        gen_degree = (lambda I: len(I) * m) if w == 1 else (lambda I: len(I) * (2 * m + 1))
        gens = [(_subset_name(I), gen_degree(I)) for I in self.subsets]
        n = len(self.subsets)
        D = PolyMatrix(ring, n, n)
        for j, I in enumerate(self.subsets):
            for pos, i_del in enumerate(I):
                J = tuple(x for x in I if x != i_del)
                coeff = ring.var(i_del, m + 1)
                if pos % 2 == 1:
                    coeff = -coeff
                D.entries[(self.subset_index[J], j)] = coeff
        self.base = FreeComplex(ring, gens, D)

    @property
    def n(self):
        return self.base.n

    def exterior_length(self, idx: int) -> int:
        return len(self.subsets[idx])

    def dga(self) -> "DgaStructure":
        """The exterior product: s_I s_J = ±s_(I ∪ J), 0 when I and J meet."""
        table = {}
        for a, I in enumerate(self.subsets):
            for b, J in enumerate(self.subsets):
                if not set(I) & set(J):
                    c = self.subset_index[tuple(sorted(I + J))]
                    table[(a, b)] = {c: self.ring.constant(_shuffle_sign(I, J))}
        parity = [self.exterior_length(i) % 2 for i in range(self.n)]
        return DgaStructure(self.base, parity, self.subset_index[()], table)


def koszul(ring: RingSpec, m: int) -> KoszulComplex:
    return KoszulComplex(ring, m)


def canonical_augmentation(K: KoszulComplex) -> "Augmentation":
    values = [K.ring.field.zero] * K.n
    values[K.subset_index[()]] = K.ring.field.one
    return Augmentation(K.base, values)


@dataclass
class Augmentation:
    """k-linear functional per generator, extended R-linearly via t_i -> 0."""

    source: FreeComplex
    values: list

    def __post_init__(self):
        if len(self.values) != self.source.n:
            raise ValueError("one scalar per generator required")

    def of_scalars(self, vector):
        """epsilon applied to a sparse vector {generator: scalar} (a constant element)."""
        return sparse_dot(vector, dict(enumerate(self.values)), self.source.ring.field)

    def validate(self):
        f = self.source.ring.field
        columns = self.source.differential.columns()
        return [
            f"augmentation does not kill d({name})"
            for j, (name, _) in enumerate(self.source.generators)
            if not f.is_zero(
                self.of_scalars({i: p.constant_coeff() for i, p in columns.get(j, {}).items()})
            )
        ]


@dataclass
class DgaStructure:
    """Associative product on a FreeComplex; parity drives the Leibniz sign."""

    complex: FreeComplex
    parity: list
    unit: int
    table: dict  # (i, j) -> the module element e_i e_j; a missing cell is 0

    def multiply(self, x, y):
        f = self.complex.ring.field
        acc = {}
        for a, xa in x.items():
            for b, yb in y.items():
                cell = self.table.get((a, b))
                if cell:
                    prod = xa * yb
                    for c, coeff in cell.items():
                        add_product(acc.setdefault(c, {}), f.one, prod, coeff, f)
        return self.complex.ring.element(acc)

    def validate(self, check_associativity=True):
        C = self.complex
        f = C.ring.field
        problems = []
        unit = C.basis_element(self.unit)
        for i in range(C.n):
            e = C.basis_element(i)
            if self.multiply(unit, e) != e or self.multiply(e, unit) != e:
                problems.append(f"unit law fails on {C.generators[i][0]}")
        if check_associativity:
            for a in range(C.n):
                ea = C.basis_element(a)
                for b in range(C.n):
                    ab = self.multiply(ea, C.basis_element(b))
                    for c in range(C.n):
                        ec = C.basis_element(c)
                        left = self.multiply(ab, ec)
                        right = self.multiply(ea, self.multiply(C.basis_element(b), ec))
                        if left != right:
                            problems.append(
                                "associativity fails on "
                                f"({C.generators[a][0]}, {C.generators[b][0]}, {C.generators[c][0]})"
                            )
        # Leibniz on basis pairs
        for a in range(C.n):
            ea = C.basis_element(a)
            da = C.d(ea)
            sign = f.neg(f.one) if self.parity[a] % 2 else f.one
            for b in range(C.n):
                eb = C.basis_element(b)
                lhs = C.d(self.multiply(ea, eb))
                rhs = linear_combination(
                    C.ring, [(f.one, self.multiply(da, eb)), (sign, self.multiply(ea, C.d(eb)))]
                )
                if lhs != rhs:
                    problems.append(
                        f"Leibniz fails on ({C.generators[a][0]}, {C.generators[b][0]})"
                    )
        return problems


def linear_combination(ring: RingSpec, pairs):
    """The module element sum c * x over the (scalar c, element x) pairs."""
    f = ring.field
    acc = {}
    for c, x in pairs:
        for u, p in x.items():
            axpy(acc.setdefault(u, {}), c, p.terms, f)
    return ring.element(acc)


# ---------------------------------------------------------------------------
# finite-dimensional coefficient reduction
# ---------------------------------------------------------------------------


class FiniteComplex:
    """Complex of finite-dimensional k-spaces; boundary of degree +1."""

    def __init__(self, field_spec, basis, boundary_entries):
        self.field = field_spec
        self.basis = list(basis)  # (name, degree)
        self.boundary = dict(boundary_entries)  # (i, j) -> scalar
        self.tensor_info = None  # set by tensor_quotient

    @property
    def n(self):
        return len(self.basis)

    def degree_indices(self):
        by_degree = {}
        for i, (_, q) in enumerate(self.basis):
            by_degree.setdefault(q, []).append(i)
        return by_degree

    def columns(self):
        """The boundary by column: {j: {i: nonzero scalar}}."""
        by_col = {}
        for (i, j), c in self.boundary.items():
            by_col.setdefault(j, {})[i] = c
        return by_col

    def boundary_squared_is_zero(self) -> bool:
        f = self.field
        by_col = self.columns()
        for col in by_col.values():
            acc = {}
            for i, c in col.items():
                for i2, c2 in by_col.get(i, {}).items():
                    acc[i2] = f.add(acc.get(i2, f.zero), f.mul(c2, c))
            if any(not f.is_zero(v) for v in acc.values()):
                return False
        return True

    def validate(self):
        problems = []
        if not self.boundary_squared_is_zero():
            problems.append("boundary squared is nonzero")
        for (i, j), c in self.boundary.items():
            if self.basis[i][1] != self.basis[j][1] + 1:
                problems.append(f"boundary entry {i},{j} not of degree +1")
        return problems


def tensor_quotient(C: FreeComplex, a) -> FiniteComplex:
    """C tensor_R R/(t_1^{a_1},...,t_r^{a_r}) as a finite complex over k."""
    a = tuple(a)
    ring = C.ring
    if len(a) != ring.num_vars or any(x < 1 for x in a):
        raise ValueError("need one exponent >= 1 per variable")
    monomials = sorted(itertools.product(*(range(x) for x in a)), key=_grlex_key)
    basis = []
    lookup = {}
    for gi, (name, deg) in enumerate(C.generators):
        for mu in monomials:
            lookup[(gi, mu)] = len(basis)
            label = name if sum(mu) == 0 else f"{_mono_name(mu)}*{name}"
            basis.append((label, deg + ring.var_weight * sum(mu)))
    # the keys ((i, e + mu), (j, mu)) of distinct terms are distinct, so
    # no two combine; an exponent reaching its bound has no lookup entry
    boundary = {}
    for (i, j), p in C.differential.entries.items():
        for mu in monomials:
            col = lookup[(j, mu)]
            for e, c in p.terms.items():
                row = lookup.get((i, tuple(map(add, e, mu))))
                if row is not None:
                    boundary[(row, col)] = c
    F = FiniteComplex(ring.field, basis, boundary)
    F.tensor_info = {
        "parent": C,
        "bounds": a,
        "items": [(gi, mu) for gi, _ in enumerate(C.generators) for mu in monomials],
        "lookup": lookup,
    }
    return F


def _mono_name(mu):
    parts = []
    for i, k in enumerate(mu):
        if k == 1:
            parts.append(f"t{i + 1}")
        elif k > 1:
            parts.append(f"t{i + 1}^{k}")
    return "*".join(parts)


class HomologyData:
    """Per-degree homology of a FiniteComplex with certificates.

    representatives: cycle vectors as sparse dicts {basis index: scalar},
    one per homology class, ordered by degree; projection_rows (sparse
    dicts too) satisfy proj @ incl = id and proj(boundary) = 0.
    """

    def __init__(self, complex: FiniteComplex):
        self.complex = complex
        self.field = complex.field
        self.dims = {}
        self.representatives = []
        self.rep_degrees = []
        self.degree_reps = {}
        self.projection_rows = []
        self._compute()

    def _compute(self):
        F = self.complex
        ops = self.field
        by_degree = F.degree_indices()
        columns = F.columns()
        for q in sorted(by_degree):
            idx = by_degree[q]
            # kernel of d restricted to degree q
            out_rows = {}
            for j in idx:
                for i, c in columns.get(j, {}).items():
                    out_rows.setdefault(i, {})[j] = c
            cycles = Echelon(ops)
            for row in out_rows.values():
                cycles.add(row)
            kernel = cycles.nullspace(idx)
            # One echelon holds [image | representatives | completing
            # units] in the columns idx, each representative tagged by a
            # unit in its own column past F.n.  Once it has full rank its
            # rows are [I | B^-1 T], and the tag column of a representative
            # is its projection row.  A vector enters only when it leaves
            # the span in the columns idx.
            span = Echelon(ops)

            def grow(v):
                residual = span.reduce(v)
                if residual and min(residual) < F.n:
                    return span.insert(residual)
                return False

            in_degree = set(idx)
            for j in by_degree.get(q - 1, ()):
                grow({i: c for i, c in columns.get(j, {}).items() if i in in_degree})
            reps = []
            for z in kernel:
                if grow({**z, F.n + len(reps): ops.one}):
                    reps.append(z)
            self.dims[q] = len(reps)
            if not reps:
                continue
            for b in idx:
                if span.rank == len(idx):
                    break
                grow({b: ops.one})
            proj = [{} for _ in reps]
            for b, row in span.rows.items():
                for c, x in row.items():
                    if c >= F.n:
                        proj[c - F.n][b] = x
            self.degree_reps[q] = list(range(self.total_dim, self.total_dim + len(reps)))
            self.representatives += reps
            self.rep_degrees += [q] * len(reps)
            self.projection_rows += proj

    @property
    def total_dim(self):
        return len(self.representatives)

    def project(self, vector):
        """Coordinates of a sparse (cycle) vector in the homology basis."""
        return [sparse_dot(row, vector, self.field) for row in self.projection_rows]

    def include(self, h_coords):
        """The sparse cycle with the given homology coordinates."""
        ops = self.field
        out = {}
        for c, rep in zip(h_coords, self.representatives):
            if not ops.is_zero(c):
                axpy(out, c, rep, ops)
        return out


def min_generators_of_homology(C: FreeComplex, a) -> int:
    """dim_k of H(C ⊗ R/(t^a)) / (t_1..t_r)·H, via the induced R-action.

    A homotopy equivalence over R stays one after tensoring with R/(t^a),
    so H(C ⊗ R/(t^a)) is an R-module invariant of C up to homotopy: C
    and its minimal model give the same count, and the model is smaller.
    """
    a = tuple(a)
    if any(x < 2 for x in a):
        raise ValueError("exponents must be >= 2 for a nontrivial R-action")
    F = tensor_quotient(C, a)
    H = HomologyData(F)
    if H.total_dim == 0:
        return 0
    ops = H.field
    info = F.tensor_info
    w = C.ring.var_weight
    # multiplication by t_i raises degree by exactly w, so image coordinates
    # live in one degree block at a time; span them per block
    killed = 0
    for q, rep_ids in H.degree_reps.items():
        targets = H.degree_reps.get(q + w)
        if not targets:
            continue
        # the projection onto the target classes by basis index:
        # {basis index: {target position: coeff}}
        proj = {}
        for pos, t in enumerate(targets):
            for b, c in H.projection_rows[t].items():
                proj.setdefault(b, {})[pos] = c
        span = Echelon(ops)
        for var in range(C.ring.num_vars):
            for k in rep_ids:
                coords = {}
                for b, c in _shift_by_variable(H.representatives[k], var, info, ops).items():
                    column = proj.get(b)
                    if column:
                        axpy(coords, c, column, ops)
                span.add(coords)
        killed += span.rank
    return H.total_dim - killed


def _shift_by_variable(vector, var, info, ops):
    """Multiply a sparse tensor-basis vector by t_{var+1}, truncating at the bounds."""
    bounds = info["bounds"]
    lookup = info["lookup"]
    items = info["items"]
    out = {}
    for pos, c in vector.items():
        gi, mu = items[pos]
        new_mu = list(mu)
        new_mu[var] += 1
        if new_mu[var] >= bounds[var]:
            continue
        key = lookup[(gi, tuple(new_mu))]
        s = ops.add(out.get(key, ops.zero), c)
        if ops.is_zero(s):
            out.pop(key, None)
        else:
            out[key] = s
    return out
