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
point (and, over Q, another prime) until the check holds.

Every product and sum of PolyMatrix objects goes through one sparse
kernel, `sum_of_products`.

Also hosts the scalar linear algebra used by the homology, filtration
and lifting code: one sparse-row elimination kernel (`Echelon`, rows kept
in reduced row echelon form) with its sparse helpers, the sparse solve
of the lifts, and the dense entry points rref and scalar_rank, all built
on it.
"""

from __future__ import annotations

import random
from itertools import count, zip_longest
from operator import lshift

from .ring import (
    FieldSpec, Polynomial, RingSpec, RingMismatchError, _is_prime, add_product, evaluator,
)


class PolyMatrix:
    """Sparse matrix over k[t_1..t_r]; entries: (i, j) -> nonzero Polynomial."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: RingSpec, rows: int, cols: int, entries=None):
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), p in entries.items():
                self.set(i, j, p)

    @classmethod
    def zero(cls, ring, rows, cols):
        return cls(ring, rows, cols)

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

    def transpose(self):
        out = PolyMatrix(self.ring, self.cols, self.rows)
        out.entries = {(j, i): p for (i, j), p in self.entries.items()}
        return out

    def submatrix_columns(self, col_indices):
        out = PolyMatrix(self.ring, self.rows, len(col_indices))
        pos = {j: c for c, j in enumerate(col_indices)}
        for (i, j), p in self.entries.items():
            if j in pos:
                out.entries[(i, pos[j])] = p
        return out

    def apply(self, element):
        """Matrix times a module element {j: nonzero Polynomial}, as one."""
        f = self.ring.field
        acc = {}
        for (i, j), p in self.entries.items():
            v = element.get(j)
            if v is not None:
                add_product(acc.setdefault(i, {}), f.one, p, v, f)
        return self.ring.element(acc)

    def __str__(self):
        lines = []
        for i in range(self.rows):
            lines.append("[" + ", ".join(str(self.entry(i, j)) for j in range(self.cols)) + "]")
        return "\n".join(lines)


def sum_of_products(terms):
    """The PolyMatrix sum of c*A*B over the list of (c, A, B) `terms`; B None
    stands for the identity, so (c, A, None) adds c*A.

    The one sparse product kernel: each entry accumulates as one exponent
    dict through `add_product`, and a Polynomial is built only for each
    nonzero entry of the total, so a sum that cancels builds none.
    """
    _, A, B = terms[0]
    ring, rows, cols = A.ring, A.rows, (A if B is None else B).cols
    f = ring.field
    one = ring.one()
    acc = {}
    for c, A, B in terms:
        if A.ring != ring or (B is not None and B.ring != ring):
            raise RingMismatchError("matrices over different rings")
        if B is None:
            if (A.rows, A.cols) != (rows, cols):
                raise ValueError("shape mismatch")
            for key, p in A.entries.items():
                add_product(acc.setdefault(key, {}), c, p, one, f)
            continue
        if A.cols != B.rows or (A.rows, B.cols) != (rows, cols):
            raise ValueError("shape mismatch in matrix product")
        by_row = {}
        for (k, j), q in B.entries.items():
            by_row.setdefault(k, []).append((j, q))
        for (i, k), p in A.entries.items():
            for j, q in by_row.get(k, ()):
                add_product(acc.setdefault((i, j), {}), c, p, q, f)
    out = PolyMatrix(ring, rows, cols)
    out.entries = {key: Polynomial(ring, t) for key, t in acc.items() if t}
    return out


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
    replaced by the next one.
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


def _evaluation_rank(M, rng, certify):
    rank, core = _peel(M)
    if not core:
        return rank
    for ops in _domains(M.ring.field):
        try:
            rows = _rows_at_point(core, ops, rng, M.ring.num_vars)
        except ValueError:
            continue  # p divides a denominator
        if not certify or _rank_at_most(core, rows, M.ring):
            return rank + len(rows)


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


def _rows_at_point(core, ops, rng, num_vars):
    """The rows of the core whose values at a random point of `ops` are
    independent: each row outside the span of those before it.  Their
    number is the rank at the point."""
    value = evaluator([ops.random_element(rng) for _ in range(num_vars)], ops)
    ncols = len({j for row in core.values() for j in row})
    E = Echelon(ops)
    independent = []
    for i, row in core.items():
        v = {}
        for j, p in row.items():
            x = value(p)
            if not ops.is_zero(x):
                v[j] = x
        if E.add(v):
            independent.append(i)
            if len(independent) == ncols:
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
    core*x = 0, checked for each of them with exact products, proves
    rank <= k.
    """
    cols = {j for row in core.values() for j in row}
    k = len(pivot_rows)
    if k == min(len(core), len(cols)):
        return True
    A = [dict(core[i]) for i in pivot_rows]
    pivot_col = [None] * k
    zero = ring.zero()
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
        for t, row in enumerate(A):
            if t == s:
                continue
            f = row.pop(q, zero)
            new = {}
            for j in row.keys() | prow.keys():
                num = piv * row.get(j, zero) - f * prow.get(j, zero)
                if num:
                    new[j] = num if d is None else num.divide_exact(d)
            A[t] = new
        d = piv
    if d is None:
        d = ring.one()
    by_free = {j: [] for j in cols.difference(pivot_col)}
    for q, row in zip(pivot_col, A):
        for j, a in row.items():
            by_free[j].append((q, -a))
    for j, entries in by_free.items():
        x = dict(entries)
        x[j] = d
        for row in core.values():
            acc = zero
            for c, p in row.items():
                xc = x.get(c)
                if xc is not None:
                    acc = acc + p * xc
            if acc:
                return False
    return True


# ---------------------------------------------------------------------------
# extension fields for evaluation-based rank in characteristic p
# ---------------------------------------------------------------------------


class GF2ExtOps:
    """F_{2^n} with elements packed into ints (bit i = coefficient of x^i).

    `mul` multiplies by a 4-bit window: the 16 carry-less multiples of a,
    then b four bits at a time from the top.  The product, below
    x^(2n-1), is reduced a byte at a time from the top through the table
    `_reduce[h] = h(x) * x^n mod f`, built by linearity with one XOR per
    entry.  `inv` is the shift-based extended Euclid (u ^= v << j) on the
    element and the modulus f.
    """

    def __init__(self, degree: int, modulus: int):
        # modulus is the full irreducible polynomial, top bit included
        self.degree = degree
        self.modulus = modulus
        self.zero = 0
        self.one = 1
        basis = [modulus ^ (1 << degree)]  # x^(n+i) mod f for i < 8
        for _ in range(7):
            y = basis[-1] << 1
            basis.append(y ^ modulus if y >> degree else y)
        table = [0] * 256
        for h in range(1, 256):
            low = h & -h
            table[h] = table[h ^ low] ^ basis[low.bit_length() - 1]
        self._reduce = table
        self._nibbles = range(4 * ((degree - 1) // 4), -1, -4)
        self._bytes = range(degree + 8 * ((degree - 2) // 8), degree - 1, -8)

    def of(self, n):
        return n % 2

    def add(self, a, b):
        return a ^ b

    sub = add

    def neg(self, a):
        return a

    def mul(self, a, b):
        a2 = a << 1
        a3 = a2 ^ a
        a4 = a << 2
        a8 = a << 3
        a12 = a8 ^ a4
        window = (0, a, a2, a3, a4, a4 ^ a, a4 ^ a2, a4 ^ a3,
                  a8, a8 ^ a, a8 ^ a2, a8 ^ a3, a12, a12 ^ a, a12 ^ a2, a12 ^ a3)
        acc = 0
        for s in self._nibbles:
            acc = (acc << 4) ^ window[b >> s & 15]
        n, table = self.degree, self._reduce
        for s in self._bytes:
            h = acc >> s & 255
            if h:
                acc ^= h << s ^ table[h] << (s - n)
        return acc

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError
        # invariants: g1 * a = u and g2 * a = v mod f; du, dv = deg + 1
        u, v, g1, g2 = a, self.modulus, 1, 0
        du, dv = u.bit_length(), v.bit_length()
        while du > 1:
            j = du - dv
            if j < 0:
                u, v, g1, g2, du, dv, j = v, u, g2, g1, dv, du, -j
            u ^= v << j
            g1 ^= g2 << j
            du = u.bit_length()
        return g1

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a == 0

    def random_element(self, rng: random.Random):
        return rng.getrandbits(self.degree)


def _gf2_divmod(a, b):
    if b == 0:
        raise ZeroDivisionError
    db = b.bit_length() - 1
    q = 0
    while a.bit_length() - 1 >= db and a:
        shift = a.bit_length() - 1 - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def _find_gf2_modulus(degree: int) -> int:
    """Smallest irreducible degree-`degree` polynomial over F_2 (full poly)."""
    full = 1 << degree
    for low in range(1, full, 2):
        f = full | low
        if _gf2_is_irreducible(f, degree):
            return f
    raise RuntimeError("no irreducible polynomial found")  # unreachable


def _gf2_is_irreducible(f: int, degree: int) -> bool:
    # x^(2^degree) == x mod f, and no factor of degree dividing a proper
    # maximal divisor degree/q for each prime q | degree
    def powmod_x2k(times):
        y = 2  # the polynomial x
        for _ in range(times):
            # square: y^2 mod f
            sq = 0
            yy = y
            i = 0
            while yy:
                if yy & 1:
                    sq ^= 1 << (2 * i)
                yy >>= 1
                i += 1
            _, y = _gf2_divmod(sq, f)
        return y

    if powmod_x2k(degree) != 2:
        return False
    for q in _prime_divisors(degree):
        y = powmod_x2k(degree // q)
        g = _gf2_gcd(y ^ 2, f)
        if g != 1:
            return False
    return True


def _gf2_gcd(a, b):
    while b:
        _, r = _gf2_divmod(a, b)
        a, b = b, r
    return a


def _prime_divisors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class GFPExtOps:
    """F_{p^k} = F_p[x]/(f) for odd p; elements are tuples of k coefficients
    over F_p, lowest degree first.  `modulus` holds the k coefficients of
    x^k mod f, so f = x^k - sum(modulus[j] * x^j).

    `mul` is Kronecker substitution: both operands are packed into ints
    with slots of S = (k*(p-1)**2).bit_length() bits.  A coefficient of the
    product is a sum of at most k terms below p**2, so k*(p-1)**2 < 2**S
    keeps the slots apart, and one int multiply gives all 2k-1 of them;
    x^(k+i) is then folded back through the nonzero terms of the modulus.
    `inv` is extended Euclid over F_p[x] on f and the element.
    """

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        self.modulus = _find_gfp_modulus(p, k)
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)
        self._full = [(-m) % p for m in self.modulus] + [1]
        self._fold = [(j, m) for j, m in enumerate(self.modulus) if m]
        slot = (k * (p - 1) ** 2).bit_length()
        self._shifts = [slot * i for i in range(2 * k - 1)]
        self._mask = (1 << slot) - 1

    def of(self, n):
        return ((n % self.p,) + (0,) * (self.k - 1)) if n % self.p else self.zero

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        p, k, shifts, mask = self.p, self.k, self._shifts, self._mask
        n = sum(map(lshift, a, shifts)) * sum(map(lshift, b, shifts))
        prod = [n >> s & mask for s in shifts]
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i] % p
            if c:
                for j, m in self._fold:
                    prod[i - k + j] += c * m
        return tuple(map(p.__rmod__, prod[:k]))

    def inv(self, a):
        p = self.p
        r0, r1 = self._full, _fp_trim(list(a))
        if not r1:
            raise ZeroDivisionError
        s0, s1 = [], [1]
        while r1:  # invariant r_i = s_i * a mod f
            q, r = _fp_divmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, _fp_sub(s0, _fp_mul(q, s1, p), p)
        # f is irreducible, so the gcd r0 is a nonzero constant
        c = pow(r0[0], -1, p)
        return tuple(x * c % p for x in s0) + (0,) * (self.k - len(s0))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return all(x == 0 for x in a)

    def random_element(self, rng: random.Random):
        return tuple(rng.randrange(self.p) for _ in range(self.k))


# F_p[x] on coefficient lists, lowest degree first; results are trimmed
# (no zero leading coefficient) and reduced mod p.


def _fp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_mul(a, b, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                prod[j] += x * y
    return _fp_trim([c % p for c in prod])


def _fp_sub(a, b, p):
    return _fp_trim([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def _fp_divmod(a, b, p):
    """Quotient and remainder of a by b; b must be trimmed and nonzero."""
    db = len(b) - 1
    r = list(a)
    q = [0] * max(len(r) - db, 0)
    inv_lead = pow(b[-1], -1, p)
    for s in range(len(q) - 1, -1, -1):
        c = r[s + db] * inv_lead % p
        if c:
            q[s] = c
            for j, y in enumerate(b, s):
                r[j] -= c * y
    return _fp_trim(q), _fp_trim([x % p for x in r[:db]])


def _find_gfp_modulus(p: int, k: int):
    """Find x^k + g irreducible over F_p; return coeffs f with x^k = f mod it.

    The candidates x^k + (base-p digits of c), c = 1, 2, ..., are tested by
    Ben-Or: f is irreducible iff gcd(x^(p^i) - x, f) = 1 for each i <= k/2.
    Most candidates fail at a small i.
    """
    for c in count(1):
        digits = []
        n = c
        for _ in range(k):
            digits.append(n % p)
            n //= p
        f = digits + [1]
        y = [0, 1]
        for _ in range(k // 2):
            # y <- y^p mod f by square and multiply, then g = gcd(y - x, f)
            z, e = [1], p
            while e:
                if e & 1:
                    z = _fp_divmod(_fp_mul(z, y, p), f, p)[1]
                y = _fp_divmod(_fp_mul(y, y, p), f, p)[1]
                e >>= 1
            y = z
            g, r = f, _fp_sub(y, [0, 1], p)
            while r:
                g, r = r, _fp_divmod(g, r, p)[1]
            if len(g) != 1:
                break
        else:
            return tuple((-d) % p for d in digits)


_EXT_CACHE = {}


def evaluation_domain(field: FieldSpec):
    """The field that rank evaluation maps `field` into: F_p for the prime
    p = 2**61 - 1 in characteristic 0 (rational coefficients are reduced
    mod p), an extension of F_p with >= 2**61 elements otherwise."""
    p = field.characteristic
    if p == 0:
        return FieldSpec(2**61 - 1)
    if p not in _EXT_CACHE:
        k = 1
        size = p
        while size < 2**61:
            size *= p
            k += 1
        if p == 2:
            _EXT_CACHE[p] = GF2ExtOps(k, _find_gf2_modulus(k))
        else:
            _EXT_CACHE[p] = GFPExtOps(p, k)
    return _EXT_CACHE[p]


# ---------------------------------------------------------------------------
# scalar linear algebra over a field (any object with the scalar protocol
# of FieldSpec: a FieldSpec or an evaluation domain).  Vectors are sparse
# {index: nonzero} dicts.  All elimination goes through Echelon; the
# functions at the end wrap it.
# ---------------------------------------------------------------------------


def sparse_dot(row, vec, ops):
    """Dot product of two sparse vectors given as {index: coeff} dicts."""
    if len(vec) < len(row):
        row, vec = vec, row
    acc = ops.zero
    for pos, c in row.items():
        other = vec.get(pos)
        if other is not None:
            acc = ops.add(acc, ops.mul(c, other))
    return acc


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
    canonical RREF of everything added so far.
    """

    def __init__(self, ops):
        self.ops = ops
        self.rows = {}  # pivot column -> row

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
        lead = min(residual)
        inv = ops.inv(residual[lead])
        row = {c: ops.mul(inv, x) for c, x in residual.items()}
        for other in self.rows.values():
            f = other.get(lead)
            if f is not None:
                axpy(other, ops.neg(f), row, ops)
        self.rows[lead] = row
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


def scalar_rank(rows, ops) -> int:
    return len(rref(rows, ops)[1])


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
