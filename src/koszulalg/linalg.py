"""Polynomial matrices and exact / probabilistic rank over Frac(k[t_1..t_r]).

Both ranks peel rows and columns with one entry, then evaluate the rest
at a random point of a field with about 2**61 elements: F_p with
p = 2**61 - 1 for rational coefficients (reduced mod p), an extension
field of F_p in characteristic p.  The rank at the point is a proven
lower bound.  rank_probabilistic stops there; it equals the rank (over Q:
the rank mod p) except with probability at most D / |field|,
D <= min(rows, cols) * (max entry degree) (Schwartz-Zippel).  rank_exact
proves the upper bound too, with kernel vectors from fraction-free
Gauss-Jordan over k[t] checked by exact products, and moves to another
point (and, over Q, another prime) until the check holds.  The rank at
a point needs only the independence of the rows there, so
`_rows_at_point` keeps its own forward-only row echelon form, with no
back-clearing: at the rank calls of the survey and oracle benchmarks it
takes about 30% less time than the reduced form of `Echelon`.

An element of an extension field is one int, coefficient i in slot i,
the slots wide enough that a product and its folds through the modulus
never carry between them, so a product is one int multiply with packed
folds: one byte a slot for F_{2^61} (`GF2ExtOps`, which inverts through
the bit form), W bits for F_{p^k} with odd p (`GFPExtOps`, Itoh-Tsujii).
The irreducible modulus of each field comes from one search
(`_find_gfp_modulus`), Ben-Or's test on polynomials packed the same way.
Every product and sum of PolyMatrix objects is one `sum_of_products`,
which hands all its term products to `ring.add_product` in one call, on
the packed row lists that `ring` builds; those of a right factor are
kept on it while its entries do not change.

Also hosts the scalar linear algebra used by the homology, filtration
and lifting code, which needs the reduced form: one sparse-row
elimination kernel (`Echelon`, rows kept in reduced row echelon form)
with its sparse helpers, the sparse solve of the lifts, and the dense
rref built on it.
"""

from __future__ import annotations

import operator
import random
from collections import Counter
from itertools import count, islice

from .ring import (
    FieldSpec, Polynomial, RingSpec, RingMismatchError, ScalarField, _is_prime, add_product,
    evaluator, row_triples, triples, unit_rows,
)


class PolyMatrix:
    """Sparse matrix over k[t_1..t_r]; entries: (i, j) -> nonzero Polynomial."""

    __slots__ = ("ring", "rows", "cols", "entries", "_kept_rows")

    def __init__(self, ring: RingSpec, rows: int, cols: int):
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = {}
        self._kept_rows = None  # (entries they were built from, row lists)

    @classmethod
    def identity(cls, ring, n):
        m = cls(ring, n, n)
        one = ring.one()
        for i in range(n):
            m.entries[(i, i)] = one
        return m

    def set(self, i, j, p: Polynomial):
        if not 0 <= i < self.rows or not 0 <= j < self.cols:
            raise IndexError((i, j))
        if p is None or p.is_zero():
            self.entries.pop((i, j), None)
        else:
            if p.ring != self.ring:
                raise RingMismatchError("entry from a different ring")
            self.entries[(i, j)] = p

    def entry(self, i, j) -> Polynomial:
        return self.entries.get((i, j), self.ring.zero())

    def columns(self):
        """Each nonzero column as a module element: {j: {i: p}}, with j
        increasing and then i."""
        by_col = {}
        for (i, j), p in sorted(self.entries.items(), key=lambda e: e[0][::-1]):
            by_col.setdefault(j, {})[i] = p
        return by_col

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.ring == other.ring
            and self.entries == other.entries
        )

    def __add__(self, other):
        one = self.ring.field.one
        return sum_of_products([(one, self, None), (one, other, None)])

    def __matmul__(self, other):
        return sum_of_products([(self.ring.field.one, self, other)])

    def submatrix_columns(self, col_indices):
        out = PolyMatrix(self.ring, self.rows, len(col_indices))
        pos = {j: c for c, j in enumerate(col_indices)}
        for (i, j), p in self.entries.items():
            if j in pos:
                out.entries[(i, pos[j])] = p
        return out

    def apply(self, element):
        """Matrix times a module element {j: nonzero Polynomial}, as one."""
        one = self.ring.field.one
        by_row = row_triples({(k, 0): p for k, p in element.items()})  # element as a column
        sums = add_product(
            ((i, one, p, by_row[k]) for (i, k), p in self.entries.items() if k in by_row),
            self.ring,
        )
        return {i: p for (i, _), p in sorted(sums.items())}

    def __str__(self):
        lines = []
        for i in range(self.rows):
            lines.append("[" + ", ".join(str(self.entry(i, j)) for j in range(self.cols)) + "]")
        return "\n".join(lines)


def sum_of_products(terms):
    """The PolyMatrix sum of c*A*B over the list of (c, A, B) `terms`; B None
    stands for the identity, so (c, A, None) adds c*A.

    Each row k of B is one list of (j, packed monomial, coefficient)
    triples (`ring.row_triples`, kept on B by `_row_triples`; the identity
    has `ring.unit_rows`), and every entry (i, k) of A is one product of
    `add_product`, which sums them all in one call; the entries come in
    the order their (i, j) was first reached.
    """
    _, A, B = terms[0]
    ring, rows, cols = A.ring, A.rows, (A if B is None else B).cols
    products = []
    for c, A, B in terms:
        if A.ring != ring or (B is not None and B.ring != ring):
            raise RingMismatchError("matrices over different rings")
        inner, width = (A.cols, A.cols) if B is None else (B.rows, B.cols)
        if A.cols != inner or (A.rows, width) != (rows, cols):
            raise ValueError("shape mismatch in a sum of products")
        by_row = unit_rows(A.cols) if B is None else _row_triples(B)
        products += [(i, c, a, by_row[k]) for (i, k), a in A.entries.items() if k in by_row]
    out = PolyMatrix(ring, rows, cols)
    out.entries = add_product(products, ring)
    return out


def _row_triples(B):
    """`ring.row_triples` of B's entries, kept on B for as long as its
    entries equal those they were built from: a fixed differential is the
    right factor of many products.  The check is one dict comparison,
    which passes on identical Polynomials without comparing their terms,
    and equal Polynomials have the same triples, so a change to B by any
    path rebuilds them."""
    kept = B._kept_rows
    if kept is not None and kept[0] == B.entries:
        return kept[1]
    by_row = row_triples(B.entries)
    B._kept_rows = (dict(B.entries), by_row)
    return by_row


# ---------------------------------------------------------------------------
# rank over the fraction field: structural peeling, then one evaluation
# (the lower bound) and, below full rank, a kernel certificate (the upper)
# ---------------------------------------------------------------------------


def rank_exact(M: PolyMatrix) -> int:
    """Rank of M over the fraction field of k[t_1..t_r]; deterministic.

    The answer is exact: the rank k of M at a point proves rank >= k (a
    k-minor is nonzero there), and checked kernel vectors prove rank <= k
    (`_rank_at_most`).  Only the run time depends on the point, which is
    drawn from a fixed seed; a point where the certificate fails is
    replaced by the next one, up to `_POINTS` points (then RuntimeError).
    So every call meets the same points, and the evaluator at each point
    (`ring.evaluator`, with its powers and monomial values) is kept and
    reused across calls.
    """
    return _evaluation_rank(M, random.Random(_SEED), certify=True)


def rank_probabilistic(M: PolyMatrix, seed: int) -> int:
    """Rank of M at one seeded random point: a proven lower bound.

    It equals the rank except with probability at most D / |field|, where
    D <= min(rows, cols) * (max entry degree) bounds the degree of the
    minors (Schwartz-Zippel) and the field has about 2**61 elements (see
    `_domains`).  Over Q the coefficients are reduced mod a prime p: a
    minor nonzero mod p is nonzero over Q, so the lower bound holds, but
    the D / |field| bound is on the rank mod p.  That is below the rank
    over Q when p divides every maximal nonzero minor, as it does when a
    row is p times a polynomial row.
    """
    return _evaluation_rank(M, random.Random(seed), certify=False)


_SEED = 2008  # the points of rank_exact
# The certificate fails at a point only when the rank there is below the
# rank over R, i.e. the point is a zero of each nonzero maximal minor, of
# degree D <= min(rows, cols) * (max entry degree).  By Schwartz-Zippel
# each point fails with probability at most D / |field|, |field| >=
# 2**61 - 1, so failing at this many points is a fault, not bad luck.
_POINTS = 8


# The evaluator at each point of rank_exact, by (field, point).  Those
# points come from the fixed seed, so every call at the same field and
# number of variables meets the same few, and the powers and monomial
# values an evaluator keeps carry over from one matrix to the next.
_EVALUATORS = {}


def _evaluation_rank(M, rng, certify):
    rank, core = _peel(M)
    if not core:
        return rank
    r = M.ring.num_vars
    for ops in islice(_domains(M.ring.field), _POINTS):
        point = tuple(ops.random_element(rng) for _ in range(r))
        if certify:
            value = _EVALUATORS.get((ops, point))
            if value is None:
                value = _EVALUATORS[ops, point] = evaluator(point, ops)
        else:
            value = evaluator(point, ops)
        try:
            rows = _rows_at_point(core, ops, value)
        except ValueError:
            continue  # p divides a denominator
        if not certify or _rank_at_most(core, rows, M.ring):
            return rank + len(rows)
    raise RuntimeError(f"rank not decided at {_POINTS} evaluation points")


def _peel(M):
    """(rank of the peeled part, rows {i: {j: entry}} of the core).

    A row or column with a single nonzero entry adds 1 to the rank, and
    removing its row and column leaves the rank of the rest unchanged.
    """
    rows, cols = {}, {}
    for (i, j), p in M.entries.items():
        rows.setdefault(i, {})[j] = p
        cols.setdefault(j, set()).add(i)
    rank = 0
    changed = True
    while changed:
        changed = False
        for i in [i for i, row in rows.items() if len(row) == 1]:
            if len(rows.get(i, ())) == 1:
                (j,) = rows[i]
                rank += 1
                changed = True
                for i2 in cols.pop(j):
                    del rows[i2][j]
                    if not rows[i2]:
                        del rows[i2]
        for j in [j for j, owners in cols.items() if len(owners) == 1]:
            if len(cols.get(j, ())) == 1:
                (i,) = cols[j]
                rank += 1
                changed = True
                for j2 in rows.pop(i):
                    cols[j2].discard(i)
                    if not cols[j2]:
                        del cols[j2]
    return rank, rows


def _domains(field):
    """The evaluation fields for a matrix over `field`, in the order
    tried: the one `evaluation_domain` in characteristic p; in
    characteristic 0, F_q for q = 2**61 - 1 and then each prime below it."""
    ops = evaluation_domain(field)
    while True:
        yield ops
        if not field.characteristic:
            q = ops.characteristic - 2
            while not _is_prime(q):
                q -= 2
            ops = FieldSpec(q)


def _rows_at_point(core, ops, value):
    """The rows of the core whose values (`value` of each entry, in `ops`)
    are independent: each row outside the span of those before it.  Their
    number is the rank at the point.

    Only independence is needed, so the kept rows are a row echelon form,
    not a reduced one: each is (lead, rest), scaled so its lead entry is 1,
    and zero at the leads of the rows kept before it.  One forward pass
    over the kept rows, in the order kept, clears every lead from a new
    row, and no kept row is ever rewritten.  The lead of a new row is the
    column of its residual held by the fewest rows of the core (ties: the
    first in dict order), the column count of Markowitz's rule, so that
    the rest that later rows take on stays short.  Which rows are
    independent does not depend on that choice.
    """
    held = Counter(j for row in core.values() for j in row)
    kept = []
    independent = []
    for i, row in core.items():
        v = {}
        for j, p in row.items():
            x = value(p)
            if not ops.is_zero(x):
                v[j] = x
        for lead, rest in kept:
            f = v.pop(lead, None)
            if f is not None:
                axpy(v, ops.neg(f), rest, ops)
        if v:
            lead = min(v, key=held.__getitem__)
            inv = ops.inv(v.pop(lead))
            kept.append((lead, {c: ops.mul(inv, x) for c, x in v.items()}))
            independent.append(i)
            if len(independent) == len(held):
                break
    return independent


def _rank_at_most(core, pivot_rows, ring) -> bool:
    """True when rank(core) <= k = len(pivot_rows) is proven.

    At full rank there is nothing to prove.  Otherwise the pivot rows,
    independent at the point and so over R, go through fraction-free
    Gauss-Jordan over R.  Each pivot is the smallest entry (degree, then
    terms) of a row not yet used; as in Bareiss, any nonzero pivot keeps
    every entry a minor and every division exact.  Pivot row t ends as
    d*e_{q_t} plus entries in the free columns, d the determinant of the
    pivot block.  For each free column j, x = d*e_j - sum_t A[t][j]*e_{q_t}
    is then a kernel vector of the pivot rows.  These cols - k vectors are
    independent (x for j is d at j and 0 in the other free columns), so
    core @ X = 0 for the matrix X with these columns, one exact product,
    proves rank <= k.
    """
    cols = {j for row in core.values() for j in row}
    k = len(pivot_rows)
    if k == min(len(core), len(cols)):
        return True
    A = [dict(core[i]) for i in pivot_rows]
    pivot_col = [None] * k
    one = ring.field.one
    minus = ring.field.neg(one)
    d = None  # the previous pivot; None is 1
    for _ in range(k):
        _, s, q = min(
            ((p.total_degree(), len(p.terms)), s, q)
            for s in range(k) if pivot_col[s] is None
            for q, p in A[s].items()
        )
        pivot_col[s] = q
        prow = A[s]
        piv = prow.pop(q)
        prow_terms = triples(prow)
        for t, row in enumerate(A):
            if t == s:
                continue
            # row <- (piv * row - f * prow) / d, f the entry of row at q
            f = row.pop(q, None)
            products = [(0, one, piv, triples(row))]
            if f is not None:
                products.append((0, minus, f, prow_terms))
            A[t] = {
                j: num if d is None else num.divide_exact(d)
                for (_, j), num in add_product(products, ring).items()
            }
        d = piv
    if d is None:
        d = ring.one()
    X = {j: {j: d} for j in cols.difference(pivot_col)}  # by row
    for q, row in zip(pivot_col, A):
        X[q] = {j: -a for j, a in row.items()}
    rows_of_x = {c: triples(x) for c, x in X.items()}
    return not add_product(
        ((i, one, p, rows_of_x[c]) for i, row in core.items() for c, p in row.items()), ring
    )


# ---------------------------------------------------------------------------
# extension fields for evaluation-based rank in characteristic p
# ---------------------------------------------------------------------------


class _PackedField(ScalarField):
    """A packed extension field of F_p: an int n stands for n mod p."""

    def of(self, n):
        return n % self.p


class GF2ExtOps(_PackedField):
    """F_{2^n} = F_2[x]/(f), `modulus` f in the bit form (bit i is the
    coefficient of x^i, top bit included).  An element is one int whose
    byte i holds the coefficient of x^i in its low bit; `add` is XOR.

    `mul` is one int product.  Byte i + j collects the a_i * b_j, at most
    n < 256 of them, so no byte carries into the next (Kronecker
    substitution), and `& ones` keeps each sum mod 2.  The bytes of x^n and
    up are folded back while packed, c = ((c & low) + high * fold) & ones
    with fold = x^n mod f, until nothing is left above x^(n-1).

    `inv` is the shift-based extended Euclid on the bit form (`unpack`, then
    `pack`), each cofactor in its remainder's high bits; `random_element`
    packs `getrandbits(n)`.
    """

    p = 2
    _spread = bytes.maketrans(b"01", b"\x00\x01")  # binary digits to bytes 0, 1
    _gather = bytes.maketrans(b"\x00\x01", b"01")

    def __init__(self, degree: int, modulus: int):
        self.degree = degree
        self.modulus = modulus
        self._kw = 8 * degree
        self._low = (1 << self._kw) - 1
        self._ones = int.from_bytes(b"\x01" * (2 * degree - 1), "big")
        self._fold = self.pack(modulus ^ (1 << degree))

    def pack(self, bits):
        """The element whose coefficient of x^i is bit i of `bits`."""
        return int.from_bytes(format(bits, "b").encode().translate(self._spread), "big")

    def unpack(self, a):
        """The bit form of the element a: bit i is the coefficient of x^i."""
        return int(a.to_bytes(self.degree, "big").translate(self._gather), 2)

    def add(self, a, b):
        return a ^ b

    sub = add

    def neg(self, a):
        return a

    def mul(self, a, b):
        ones, kw = self._ones, self._kw
        c = a * b & ones
        high = c >> kw
        while high:
            c = ((c & self._low) + high * self._fold) & ones
            high = c >> kw
        return c

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError
        # U = u + g1*x^s, V = v + g2*x^s (s = n + 1 lies above u and v), g1*a = u
        # and g2*a = v mod f: one shift and XOR steps both; coprime, one reaches 1
        u, s = self.unpack(a), self.degree + 1
        U, V, du, dv, low = u | 1 << s, self.modulus, u.bit_length(), s, (1 << s) - 1
        while True:
            while du >= dv:  # u mod v
                U ^= V << du - dv
                du = (U & low).bit_length()
            if du == 1:
                return self.pack(U >> s)
            while dv >= du:  # v mod u
                V ^= U << dv - du
                dv = (V & low).bit_length()
            if dv == 1:
                return self.pack(V >> s)

    def random_element(self, rng: random.Random):
        return self.pack(rng.getrandbits(self.degree))


class GFPExtOps(_PackedField):
    """F_{p^k} = F_p[x]/(f) for odd p, each element one int: coefficient i
    of x^i sits in the W-bit slot i, bits [W*i, W*(i+1)), every slot in
    [0, p).  So zero is 0, one is 1 and a constant c is c.  `modulus`
    holds the k coefficients of x^k mod f, so f = x^k - sum(modulus[j] * x^j).

    `mul` is one int product: slot i + j collects a_i * b_j, and never
    more than k(p-1)^2 (Kronecker substitution).  The slots of x^k and up
    are folded back while still packed, n = low + high * modulus (all
    packed), until nothing is left above x^(k-1); then each slot is
    reduced mod p once.  Every slot at every step is a sum of products of
    coefficients in [0, p), so the product of two elements with every
    coefficient p - 1 bounds it.  W holds that bound, `_slot_bound`, so
    no step carries between slots.

    `add`, `sub` and `neg` take p off every slot that reached p with one
    guard bit.  The bound is at least 2(p-1)^2 >= 2p, so 2^(W-1) >= p, and
    the top bit of a slot of n + (2^(W-1) - p) is set exactly where the
    slot of n is at least p.

    `inv` is Itoh-Tsujii: with r = 1 + p + ... + p^(k-1), N(a) = a^r is
    in F_p, so a^-1 = a^(r-1) * N(a)^-1 and a^(r-1) = a^(p + ... + p^(k-1)).
    That power takes O(log k) products and Frobenius maps
    sigma^j(a) = a^(p^j), through e_j = a^(1 + p + ... + p^(j-1)) and
    e_(i+j) = sigma^j(e_i) * e_j.  sigma^j is F_p-linear, so it is
    sum_i a_i * x^(i*p^j) over a table of k packed powers; the tables of
    the j that the chain uses are built with the field.  (k >= 2.)
    """

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        self.modulus = _find_gfp_modulus(p, k)
        w = _slot_bound(p, k, self.modulus).bit_length()
        self.slot_width = w
        self._shifts = range(0, w * k, w)
        self._mask = (1 << w) - 1
        self._kw = w * k
        self._low = (1 << w * k) - 1
        self._fold = self.pack(self.modulus)
        ones = self._low // self._mask  # 1 in every slot
        self._top = w - 1
        self._guards = ones << self._top
        self._excess = ((1 << self._top) - p) * ones
        self._ps = p * ones  # p in every slot
        # Itoh-Tsujii on k - 1 from its top bit: (j, False) takes e_j to
        # e_2j = sigma^j(e_j) * e_j, (1, True) takes e_j to sigma(e_j) * a
        steps, j = [], 1
        for bit in bin(k - 1)[3:]:
            steps.append((j, False))
            j *= 2
            if bit == "1":
                steps.append((1, True))
                j += 1
        needed = {j for j, _ in steps}
        image = self._power(1 << w, p)  # x^p, then x^(p^j) for j = 2, 3, ...
        tables = {1: self._powers(image)}
        for j in range(2, max(needed, default=1) + 1):
            image = self._frobenius(image, tables[1])
            if j in needed:
                tables[j] = self._powers(image)
        self._sigma = tables[1]
        self._chain = [(tables[j], times_a) for j, times_a in steps]

    def pack(self, coefficients):
        """The element with the given coefficients in [0, p), lowest degree first."""
        return sum(map(operator.lshift, coefficients, self._shifts))

    def unpack(self, a):
        """The k coefficients of the element a, lowest degree first."""
        mask = self._mask
        return [a >> s & mask for s in self._shifts]

    def add(self, a, b):
        return self._wrap(a + b)

    def sub(self, a, b):
        return self._wrap(a + self._ps - b)  # every slot in [1, 2p)

    def neg(self, a):
        return self._wrap(self._ps - a)

    def _wrap(self, n):
        """n with p taken off every slot in [p, 2p)."""
        return n - (((n + self._excess) & self._guards) >> self._top) * self.p

    def mul(self, a, b):
        n = a * b
        high = n >> self._kw
        while high:
            n = (n & self._low) + high * self._fold
            high = n >> self._kw
        return self._reduce(n)

    def _reduce(self, n):
        """n with every slot reduced mod p; no slot may exceed `_slot_bound`."""
        p = self.p
        return self.pack([c % p for c in self.unpack(n)])

    def _frobenius(self, a, table):
        """sum_i a_i * table[i]: sigma^j(a) for the table of x^(i*p^j)."""
        return self._reduce(sum(map(operator.mul, self.unpack(a), table)))

    def _power(self, a, e):
        acc = 1
        while e:
            if e & 1:
                acc = self.mul(acc, a)
            a = self.mul(a, a)
            e >>= 1
        return acc

    def _powers(self, g):
        """[g^0, ..., g^(k-1)]."""
        out = [1]
        for _ in range(self.k - 1):
            out.append(self.mul(out[-1], g))
        return out

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError
        e = a  # e_1
        for table, times_a in self._chain:
            e = self.mul(self._frobenius(e, table), a if times_a else e)
        e = self._frobenius(e, self._sigma)  # a^(r-1)
        return self.mul(e, pow(self.mul(a, e), -1, self.p))

    def random_element(self, rng: random.Random):
        return self.pack([rng.randrange(self.p) for _ in range(self.k)])


def _slot_bound(p, k, modulus):
    """The largest slot value that `GFPExtOps.mul` reaches before its
    reduction mod p: the product of two elements with every coefficient
    p - 1, then each fold x^(k+i) -> x^i * modulus, on coefficient lists."""
    c = [(p - 1) ** 2 * min(i + 1, 2 * k - 1 - i) for i in range(2 * k - 1)]
    bound = max(c)
    while len(c) > k:
        high, c = c[k:], c[:k] + [0] * (len(c) - 1 - k)
        for i, h in enumerate(high):
            for j, m in enumerate(modulus, i):
                c[j] += h * m
        while len(c) > k and c[-1] == 0:
            c.pop()
        bound = max(bound, max(c))
    return bound


def _find_gfp_modulus(p: int, k: int):
    """Find x^k + g irreducible over F_p (p = 2 included); return coeffs m
    with x^k = m mod it.

    The candidates x^k + (base-p digits of c), c = 1, 2, ..., are tested in
    that order by Ben-Or's exact test (`_BenOr`), so the first candidate
    that passes is the first irreducible one.
    """
    test = _BenOr(p, k)
    for c in count(1):
        digits = []
        while c:
            c, d = divmod(c, p)
            digits.append(d)
        if test.irreducible(digits):
            return tuple((-d) % p for d in digits + [0] * (k - len(digits)))


# Step 1 of Ben-Or is the root scan for p up to this: faster than its gcd
# at p <= 61, slower from p = 101 on, where its tables of k*p powers cost more.
_ROOT_SCAN = 64


class _BenOr:
    """Ben-Or's test of f = x^k + g over F_p, g of degree < k given by its
    coefficients, lowest degree first: f is irreducible iff
    gcd(x^(p^i) - x, f) = 1 for each i <= k/2.  y_i = x^(p^i) mod f is
    y_(i-1)^p by square and multiply.

    A polynomial of degree < 2k is one int, coefficient i in the W-bit
    slot i, as in `GFPExtOps`.  A product of two polynomials reduced mod f
    and p, each fold of x^k and up through x^k = -g, each step of a
    division in `_coprime` and the root scan keep every slot at most
    `bound` = k(p-1)^2 + p, so nothing carries between slots.  `_reduce`
    takes every slot mod p at once: with n < 2^s and m = floor(2^s / p),
    q = floor(n * m / 2^s) is floor(n / p) or one less, so n - q * p is in
    [0, 2p), and one guard bit takes off the last p.  p = 2 takes the
    same path.

    Two more exact shortcuts.  gcd(x^p - x, f) != 1 exactly when f has a
    root in F_p, so for small p step 1 is `_root_free`, which evaluates f
    at every point of F_p at once, point a in slot a.  Each irreducible
    factor of f is prime, so gcd(prod(y_i - x), f) = 1 exactly when every
    gcd(y_i - x, f) = 1: one gcd of the product mod f ends each block of
    steps i = 1, 2, 3-4, 5-8, ...
    """

    def __init__(self, p, k):
        self.p, self.k = p, k
        # step 1 exists for k >= 2; the scan packs p slots, the rest 2k
        self._scan = k > 1 and p <= _ROOT_SCAN
        bound = k * (p - 1) ** 2 + p
        self._s = s = bound.bit_length()
        self._m = (1 << s) // p
        self._w = w = s + self._m.bit_length()  # n * m < 2^W in every slot
        ones = self._ones(max(2 * k, p) if self._scan else 2 * k)
        self._mask = (1 << w) - 1
        self._q_mask = ((1 << w - s) - 1) * ones
        self._top = w - 1
        self._guards = ones << self._top
        self._excess = ((1 << self._top) - p) * ones
        self._kw = k * w
        self._low = (1 << k * w) - 1
        if self._scan:
            # slot a of _powers[j] is a^j and of _x_k is a^k, all mod p
            self._powers = [sum(pow(a, j, p) << a * w for a in range(p)) for j in range(k)]
            self._x_k = sum(pow(a, k, p) << a * w for a in range(p))
            ones = self._ones(p)
            self._point_guards = ones << self._top
            self._nonzero = ((1 << self._top) - 1) * ones  # sets the guard of a slot >= 1

    def _ones(self, slots):
        """1 in each of the lowest `slots` slots."""
        return ((1 << slots * self._w) - 1) // ((1 << self._w) - 1)

    def irreducible(self, digits):
        if self._scan and not self._root_free(digits):
            return False
        p, w = self.p, self._w
        f = sum(d << j * w for j, d in enumerate(digits)) | 1 << self._kw
        fold = sum((-d) % p << j * w for j, d in enumerate(digits))  # x^k mod f
        x = 1 << w
        first = end = 2 if self._scan else 1  # the first step that takes a gcd
        y, acc, last = x, None, self.k // 2
        for i in range(1, last + 1):
            power = y
            for bit in bin(p)[3:]:
                power = self._mul(power, power, fold)
                if bit == "1":
                    power = self._mul(power, y, fold)
            y = power
            if i < first:
                continue
            y_minus_x = y - x if y >> w & self._mask else y + (p - 1) * x
            acc = y_minus_x if acc is None else self._mul(acc, y_minus_x, fold)
            if i == end or i == last:
                if not self._coprime(f, acc):
                    return False
                acc, end = None, 2 * end
        return True

    def _root_free(self, digits):
        """Whether f(a) != 0 for every a in F_p."""
        values = self._reduce(self._x_k + sum(map(operator.mul, digits, self._powers)))
        return values + self._nonzero & self._point_guards == self._point_guards

    def _mul(self, a, b, fold):
        """a * b mod f and p, for `fold` = x^k mod f."""
        n = self._reduce(a * b)
        high = n >> self._kw
        while high:
            n = self._reduce((n & self._low) + high * fold)
            high = n >> self._kw
        return n

    def _reduce(self, n):
        """n with every slot taken mod p; no slot may exceed `bound`."""
        p = self.p
        n -= (n * self._m >> self._s & self._q_mask) * p
        return n - ((n + self._excess & self._guards) >> self._top) * p

    def _coprime(self, g, r):
        """Whether gcd(g, r) = 1, by Euclid on reduced g and r, deg g > deg r.
        A division adds at most (p-1)^2 to a slot per quotient term; the
        slots it has cleared mod p are masked off at its end."""
        w, p, mask = self._w, self.p, self._mask
        while r:
            dr = (r.bit_length() - 1) // w
            if not dr:
                return True
            inv, shift = pow(r >> dr * w, -1, p), dr * w
            for top in range((g.bit_length() - 1) // w * w, shift - 1, -w):
                c = (g >> top & mask) * inv % p
                if c:
                    g += (p - c) * r << top - shift
            g, r = r, self._reduce(g & (1 << shift) - 1)
        return False


_EXT_CACHE = {}  # characteristic -> evaluation field, built on first use


def evaluation_domain(field: FieldSpec):
    """The field that rank evaluation maps `field` into: F_p for the prime
    p = 2**61 - 1 in characteristic 0 (rational coefficients are reduced
    mod p), an extension of F_p with >= 2**61 elements otherwise."""
    p = field.characteristic
    if p not in _EXT_CACHE:
        if p == 0:
            _EXT_CACHE[p] = FieldSpec(2**61 - 1)
        elif p == 2:
            # x^61 = low mod the smallest irreducible x^61 + low over F_2
            low = sum(c << i for i, c in enumerate(_find_gfp_modulus(2, 61)))
            _EXT_CACHE[p] = GF2ExtOps(61, 1 << 61 | low)
        else:
            _EXT_CACHE[p] = GFPExtOps(p, next(k for k in count(2) if p**k >= 2**61))
    return _EXT_CACHE[p]


# ---------------------------------------------------------------------------
# scalar linear algebra over a field (any `ScalarField`: a FieldSpec or an
# evaluation domain).  Vectors are sparse {index: nonzero} dicts.  Every
# elimination that needs the reduced form goes through Echelon; the
# functions at the end wrap it.  The rank at a point (`_rows_at_point`)
# needs only independence and keeps its own forward-only form.
# ---------------------------------------------------------------------------


def sparse(vec, ops):
    """{index: entry} of the nonzero entries of a dense vector."""
    return {c: x for c, x in enumerate(vec) if not ops.is_zero(x)}


def dense(vec, ncols, ops):
    """The dense vector of length ncols with the entries of a sparse one."""
    out = [ops.zero] * ncols
    for c, x in vec.items():
        out[c] = x
    return out


class Echelon:
    """Row span over a field, kept in reduced row echelon form.

    Rows are sparse dicts {column: nonzero scalar} keyed by their pivot
    column.  Each pivot entry is 1 and every other row is 0 in that
    column, so one pass of `reduce` gives the residual of a vector.  A new
    row is normalised at its leftmost nonzero column, so the rows are the
    canonical RREF of everything added so far.  `rows` keeps the order in
    which the pivots were found.

    A new pivot column is cleared only in the rows the index names for
    it: for each non-pivot column, the pivots of the rows that may hold
    it.  The index is a superset, because a cancellation leaves its entry
    behind, so every row that holds the column is among them.
    """

    def __init__(self, ops):
        self.ops = ops
        self.rows = {}  # pivot column -> row
        self._holders = {}  # non-pivot column -> set of pivots

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, v):
        """Residual of the sparse vector v: zero in every pivot column."""
        ops = self.ops
        rows = self.rows
        out = dict(v)
        for pc in [c for c in v if c in rows]:
            axpy(out, ops.neg(v[pc]), rows[pc], ops)
        return out

    def add(self, v):
        """Insert a sparse vector; True iff the span grew."""
        return self.insert(self.reduce(v))

    def insert(self, residual):
        """Insert a residual returned by `reduce`; True iff it is nonzero."""
        if not residual:
            return False
        ops = self.ops
        rows = self.rows
        holders = self._holders
        lead = min(residual)
        inv = ops.inv(residual[lead])
        row = {c: ops.mul(inv, x) for c, x in residual.items()}
        touched = [lead]  # the new row and every row it filled
        for p in holders.pop(lead, ()):
            other = rows[p]
            f = other.get(lead)
            if f is not None:
                axpy(other, ops.neg(f), row, ops)
                touched.append(p)
        for c in row:
            if c != lead:
                held = holders.get(c)
                if held is None:
                    holders[c] = set(touched)
                else:
                    held.update(touched)
        rows[lead] = row
        return True

    def nullspace(self, columns):
        """Sparse basis of {x : row . x = 0 for every row}, supported on
        `columns` (which must hold every column of every row): one vector
        per non-pivot column, in the order of `columns`."""
        ops = self.ops
        basis = {c: {c: ops.one} for c in columns if c not in self.rows}
        for pc, row in self.rows.items():
            for c, x in row.items():
                if c != pc:
                    basis[c][pc] = ops.neg(x)
        return list(basis.values())


def axpy(target, f, row, ops):
    """target += f * row for sparse vectors, in place; zeros are dropped."""
    zero = ops.zero
    for c, x in row.items():
        s = ops.add(target.get(c, zero), ops.mul(f, x))
        if ops.is_zero(s):
            target.pop(c, None)
        else:
            target[c] = s


def apply_columns(columns, v, ops):
    """A v for a matrix stored by column, {j: {i: nonzero}}, and a sparse v."""
    out = {}
    for j, x in v.items():
        col = columns.get(j)
        if col:
            axpy(out, x, col, ops)
    return out


def span(vectors, ops):
    """The Echelon of the span of the given sparse vectors."""
    E = Echelon(ops)
    for v in vectors:
        E.add(v)
    return E


def rref(rows, ops):
    """Reduced row echelon form of a dense matrix; returns (rows, pivot_column_list)."""
    if not rows:
        return [], []
    E = span((sparse(row, ops) for row in rows), ops)
    pivots = sorted(E.rows)
    return [dense(E.rows[c], len(rows[0]), ops) for c in pivots], pivots


def solve(rows, ncols, ops):
    """One solution of A x = b (free variables zero) as a sparse
    {column: x_column}, or None.  `rows` are the sparse rows of the
    augmented matrix [A | b], with b in column ncols."""
    E = span(rows, ops)
    if ncols in E.rows:
        return None  # pivot in the constant column: inconsistent
    return {pc: row[ncols] for pc, row in E.rows.items() if ncols in row}
