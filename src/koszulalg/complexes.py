"""Free graded cochain complexes over k[t_1..t_r] and the Koszul family.

A FreeComplex stores its differential as a square PolyMatrix whose
column j is d(e_j) in the generator basis.  An element of a free module
is a dict {generator index: nonzero Polynomial}; a missing generator has
coordinate 0 (see RingSpec.element); `linear_combination` sums R multiples
of elements.  Koszul complexes carry the exterior product (signs keyed to
exterior length) so they are honest dgas.  tensor_quotient reduces a
complex mod t^a for `min_generators_of_homology`, and `tensor_columns`
any polynomial matrix; HomologyData, the homology of such a quotient
with certificates, serves the tests' oracles.  A FiniteComplex holds
the degree of each basis vector and its boundary by column; a tensor
quotient's `tensor_info` maps its basis to (generator, monomial) pairs.
"""

from __future__ import annotations

import itertools
from operator import add, lt

from .ring import RingSpec, _grlex_key, add_product, triples
from .linalg import PolyMatrix, Echelon, span


class FreeComplex:
    """Finitely generated free graded R-module with differential of degree +1."""

    def __init__(self, ring: RingSpec, generators, differential: PolyMatrix):
        self.ring = ring
        self.generators = list(generators)  # (name, degree) pairs
        n = len(self.generators)
        if differential.rows != n or differential.cols != n:
            raise ValueError("differential must be square of size #generators")
        self.differential = differential
        if len({name for name, _ in self.generators}) != n:
            raise ValueError("duplicate generator names")

    @property
    def n(self):
        return len(self.generators)

    def degree(self, i: int) -> int:
        return self.generators[i][1]

    @property
    def degrees(self):
        return [d for _, d in self.generators]

    def basis_element(self, i: int):
        return {i: self.ring.one()}

    def d(self, element):
        return self.differential.apply(element)

    def validate(self):
        """Every violated invariant as a list of messages; [] means ok.
        The d∘d witness is the first entry of d @ d in (row, column) order."""
        problems = []
        names = [name for name, _ in self.generators]
        dd = self.differential @ self.differential
        if dd.entries:
            i, j = min(dd.entries)
            problems.append(
                f"d∘d != 0: column {names[j]} hits {names[i]} with {dd.entries[i, j]}"
            )
        for i, j, got, want in degree_violations(self.differential, self, self, 1):
            problems.append(
                f"inhomogeneous entry d[{names[i]}, {names[j]}]: degree {got}, expected {want}"
            )
        return problems

    def __repr__(self):
        return f"FreeComplex({self.n} generators over {self.ring})"


def monomial_slices(model: FreeComplex):
    """{exponent tuple: {j: {i: scalar}}}, the slices A_mu by column;
    d(x) = sum_mu mu * (A_mu @ x)."""
    slices = {}
    for (i, j), p in model.differential.entries.items():
        for exps, c in p.terms.items():
            slices.setdefault(exps, {}).setdefault(j, {})[i] = c
    return slices


def monomial_image(x, exps):
    """The terms of t^exps * x for a module element x, as {(generator,
    exponents): scalar} in the order of x and of its terms.  The keys
    are distinct, so no two terms combine."""
    return {(u, tuple(map(add, e, exps))): c for u, p in x.items() for e, c in p.terms.items()}


def degree_violations(M: PolyMatrix, source: FreeComplex, target: FreeComplex, shift: int):
    """The entries of M (target.n x source.n) whose weighted degree is not
    deg e_j + shift - deg e_i, as sorted (i, j, got, want); got is None
    for an inhomogeneous entry."""
    bad = []
    for (i, j), p in sorted(M.entries.items()):
        want = source.degree(j) + shift - target.degree(i)
        got = p.weighted_degree()
        if got != want:
            bad.append((i, j, got, want))
    return bad


def direct_sum(A: FreeComplex, B: FreeComplex) -> FreeComplex:
    if A.ring != B.ring:
        raise ValueError("summands over different rings")
    gens = list(A.generators)
    used = {n for n, _ in gens}
    for name, deg in B.generators:
        new = name
        while new in used:
            new = "b_" + new
        used.add(new)
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


def _subset_name(I, r) -> str:
    """s0, s1, s12, ...; from r = 10 on the indices are joined by _ (s1_12),
    so that s12 and s1_2 differ."""
    return "s0" if not I else "s" + ("_" if r >= 10 else "").join(map(str, I))


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
        r = ring.num_vars
        self.subsets = sorted(
            (tuple(c) for q in range(r + 1) for c in itertools.combinations(range(1, r + 1), q)),
            key=lambda I: (len(I), I),
        )
        self.subset_index = {I: i for i, I in enumerate(self.subsets)}
        # d(s_i) = t_i^(m+1) has degree w(m+1), so deg s_i = w(m+1) - 1
        w = ring.var_weight
        gens = [(_subset_name(I, r), len(I) * (w * (m + 1) - 1)) for I in self.subsets]
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


class Augmentation:
    """k-linear functional per generator, extended R-linearly via t_i -> 0."""

    def __init__(self, source: FreeComplex, values: list):
        if len(values) != source.n:
            raise ValueError("one scalar per generator required")
        self.source = source
        self.values = values

    def of_scalars(self, vector):
        """epsilon applied to a sparse vector {generator: scalar} (a constant element)."""
        values = self.values
        return self.source.ring.field.of(sum(x * values[i] for i, x in vector.items()))

    def on_columns(self, M: PolyMatrix):
        """epsilon of the constant part of each column of M, one scalar per column."""
        columns = M.columns()
        return [
            self.of_scalars({i: p.constant_coeff() for i, p in columns.get(j, {}).items()})
            for j in range(M.cols)
        ]

    def validate(self):
        """Every way epsilon fails to be a degree-0 map to k that kills d,
        as messages; [] means ok."""
        C = self.source
        is_zero = C.ring.field.is_zero
        problems = [
            f"augmentation is nonzero on {name} of degree {q}"
            for (name, q), v in zip(C.generators, self.values)
            if q != 0 and not is_zero(v)
        ]
        problems += [
            f"augmentation does not kill d({name})"
            for (name, _), v in zip(C.generators, self.on_columns(C.differential))
            if not is_zero(v)
        ]
        return problems


class DgaStructure:
    """Associative product on a FreeComplex; parity drives the Leibniz sign."""

    def __init__(self, complex: FreeComplex, parity: list, unit: int, table: dict):
        self.complex = complex
        self.parity = parity
        self.unit = unit
        self.table = table  # (i, j) -> the module element e_i e_j; a missing cell is 0

    def multiply(self, x, y):
        table = self.table
        return linear_combination(self.complex.ring, [
            (xa * yb, table[a, b]) for a, xa in x.items() for b, yb in y.items() if (a, b) in table
        ])

    def validate(self):
        C = self.complex
        ring = C.ring
        problems = []
        unit = C.basis_element(self.unit)
        for i in range(C.n):
            e = C.basis_element(i)
            if self.multiply(unit, e) != e or self.multiply(e, unit) != e:
                problems.append(f"unit law fails on {C.generators[i][0]}")
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
            sign = ring.constant(-1 if self.parity[a] % 2 else 1)
            for b in range(C.n):
                eb = C.basis_element(b)
                lhs = C.d(self.multiply(ea, eb))
                rhs = linear_combination(
                    ring, [(ring.one(), self.multiply(da, eb)), (sign, self.multiply(ea, C.d(eb)))]
                )
                if lhs != rhs:
                    problems.append(
                        f"Leibniz fails on ({C.generators[a][0]}, {C.generators[b][0]})"
                    )
        return problems


def linear_combination(ring: RingSpec, pairs):
    """The module element sum c * x over the (Polynomial c, element x)
    pairs: the product of a map held as its list of images x (a matrix
    held as entries has `PolyMatrix.apply`)."""
    one = ring.field.one
    products = [(0, one, c, triples(x)) for c, x in pairs]
    if not products:
        return {}  # most products in a dga's associativity check are 0
    sums = add_product(products, ring)
    return {u: p for (_, u), p in sorted(sums.items())}


# ---------------------------------------------------------------------------
# finite-dimensional coefficient reduction
# ---------------------------------------------------------------------------


class FiniteComplex:
    """Complex of finite-dimensional k-spaces; boundary of degree +1."""

    def __init__(self, field_spec, degrees, columns):
        self.field = field_spec
        self.degrees = list(degrees)  # the degree of each basis vector
        self.columns = columns  # the boundary by column: {j: {i: nonzero scalar}}
        self.tensor_info = None  # set by tensor_quotient

    @property
    def n(self):
        return len(self.degrees)

    def degree_indices(self):
        by_degree = {}
        for i, q in enumerate(self.degrees):
            by_degree.setdefault(q, []).append(i)
        return by_degree


def tensor_quotient(C: FreeComplex, a) -> FiniteComplex:
    """C tensor_R R/(t_1^{a_1},...,t_r^{a_r}) as a finite complex over k."""
    a = tuple(a)
    ring = C.ring
    if len(a) != ring.num_vars or any(x < 1 for x in a):
        raise ValueError("need one exponent >= 1 per variable")
    monomials = sorted(itertools.product(*(range(x) for x in a)), key=_grlex_key)
    items = [(gi, mu) for gi in range(C.n) for mu in monomials]
    lookup = {item: k for k, item in enumerate(items)}
    degrees = [C.degree(gi) + ring.var_weight * sum(mu) for gi, mu in items]
    F = FiniteComplex(ring.field, degrees, tensor_columns(C.differential, items, lookup))
    F.tensor_info = {"bounds": a, "items": items, "lookup": lookup}
    return F


def tensor_columns(M: PolyMatrix, items, lookup):
    """The k-matrix of M tensor R/(t^a) by column, {k: {row: scalar}}, from
    the tensor basis `items` (position k holds (generator j, exponents mu))
    to the one indexed by `lookup` ({(generator, exponents): position}).

    A term t^e of M[i, j] sends (j, mu) to (i, e + mu), a key of
    `monomial_image`; an exponent reaching its bound has no lookup entry.
    """
    by_column = M.columns()
    out = {}
    for k, (j, mu) in enumerate(items):
        col = {}
        for key, c in monomial_image(by_column.get(j, {}), mu).items():
            row = lookup.get(key)
            if row is not None:
                col[row] = c
        if col:
            out[k] = col
    return out


def _cycles(columns, idx, ops):
    """Sparse basis of the cycles among the combinations of the basis
    vectors idx, for d stored by column: one per non-pivot index."""
    rows = {}  # the rows of d restricted to idx
    for j in idx:
        for i, c in columns.get(j, {}).items():
            rows.setdefault(i, {})[j] = c
    return span(rows.values(), ops).nullspace(idx)


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
        self.degree_reps = {}
        self.projection_rows = []
        self._compute()

    def _compute(self):
        F = self.complex
        ops = self.field
        by_degree = F.degree_indices()
        columns = F.columns
        for q in sorted(by_degree):
            idx = by_degree[q]
            kernel = _cycles(columns, idx, ops)
            # One echelon holds [image | representatives | completing
            # units] in the columns idx, each representative tagged by a
            # unit in its own column past F.n.  Once it has full rank its
            # rows are [I | B^-1 T], and the tag column of a representative
            # is its projection row.  A vector enters only when it leaves
            # the span in the columns idx.
            echelon = Echelon(ops)

            def grow(v):
                residual = echelon.reduce(v)
                if residual and min(residual) < F.n:
                    return echelon.insert(residual)
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
                if echelon.rank == len(idx):
                    break
                grow({b: ops.one})
            proj = [{} for _ in reps]
            for b, row in echelon.rows.items():
                for c, x in row.items():
                    if c >= F.n:
                        proj[c - F.n][b] = x
            self.degree_reps[q] = list(range(self.total_dim, self.total_dim + len(reps)))
            self.representatives += reps
            self.projection_rows += proj

    @property
    def total_dim(self):
        return len(self.representatives)


def min_generators_of_homology(C: FreeComplex, a) -> int:
    """dim_k of H(C ⊗ R/(t^a)) / (t_1..t_r)·H, via the induced R-action.

    In each degree q that is dim Z_q - dim(B_q + Σ_i t_i·Z_{q-w}), where
    Z and B are the cycles and boundaries of the quotient and t_i raises
    degree by the variable weight w: the image of (t_1..t_r)·H in H_q is
    that sum modulo B_q.  The count is basis-free.

    A generator is live when some term t^e of its row or column of d
    survives mod t^a, that is e_i < a_i for every i.  Every other
    generator g spans a direct summand S·g of C ⊗ S, S = R/(t^a), with
    zero differential, so H(C ⊗ S) is H(live part) ⊕ S^(#isolated), and
    S·g needs one generator.  The count is the number of isolated
    generators plus the loop above on the quotient of the live part
    alone (the rows and columns of d at the live generators).

    A homotopy equivalence over R stays one after tensoring with R/(t^a),
    so H(C ⊗ R/(t^a)) is an R-module invariant of C up to homotopy: C
    and its minimal model give the same count, and the model is smaller.
    """
    a = tuple(a)
    if len(a) != C.ring.num_vars or any(x < 2 for x in a):
        raise ValueError("need one exponent >= 2 per variable for a nontrivial R-action")
    entries = C.differential.entries
    live = set()
    for (i, j), p in entries.items():
        if any(all(map(lt, e, a)) for e in p.terms):
            live.update((i, j))
    at = {g: k for k, g in enumerate(sorted(live))}
    D = PolyMatrix(C.ring, len(at), len(at))
    D.entries = {(at[i], at[j]): p for (i, j), p in entries.items() if i in at and j in at}
    F = tensor_quotient(FreeComplex(C.ring, [C.generators[g] for g in at], D), a)
    ops = F.field
    info = F.tensor_info
    w = C.ring.var_weight
    by_degree = F.degree_indices()
    columns = F.columns
    cycles = {}  # degree -> sparse basis of Z, kept until degree + w is done
    count = C.n - len(at)
    for q in sorted(by_degree):
        Z = cycles[q] = _cycles(columns, by_degree[q], ops)
        image = span((columns.get(j, {}) for j in by_degree.get(q - 1, ())), ops)
        for z in cycles.pop(q - w, ()):
            for var in range(C.ring.num_vars):
                image.add(_shift_by_variable(z, var, info))
        count += len(Z) - image.rank
    return count


def _shift_by_variable(vector, var, info):
    """Multiply a sparse tensor-basis vector by t_{var+1}, truncating at
    the bounds.  (g, mu) -> (g, mu + e_var) is injective, so no two
    positions meet and each coefficient is copied, not summed."""
    bounds = info["bounds"]
    lookup = info["lookup"]
    items = info["items"]
    out = {}
    for pos, c in vector.items():
        gi, mu = items[pos]
        new_mu = list(mu)
        new_mu[var] += 1
        if new_mu[var] < bounds[var]:
            out[lookup[(gi, tuple(new_mu))]] = c
    return out
