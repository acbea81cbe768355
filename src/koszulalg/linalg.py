"""Polynomial matrices and exact / probabilistic rank over Frac(k[t_1..t_r]).

rank_exact is fraction-free (Bareiss) elimination after a structural
peeling pass; rank_probabilistic evaluates at random points of a large
domain (big integers in char 0, an extension field of size >= 2**61 in
char p) so the Schwartz-Zippel failure probability stays below 2**-40
for every matrix this artifact produces (minor degrees < 2**15).

Also hosts the scalar linear algebra used by the homology, filtration
and lifting code: one sparse-row elimination kernel (`Echelon`, rows kept
in reduced row echelon form), with the dense entry points rref,
nullspace, solve, span_rref, scalar_rank and in_span built on it.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .ring import FieldSpec, Polynomial, RingSpec, RingMismatchError


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

    @classmethod
    def from_columns(cls, ring, rows, columns):
        """columns: list of length-`rows` lists of polynomials."""
        m = cls(ring, rows, len(columns))
        for j, col in enumerate(columns):
            for i, p in enumerate(col):
                if p and not p.is_zero():
                    m.entries[(i, j)] = p
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

    def column(self, j):
        return [self.entry(i, j) for i in range(self.rows)]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

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
        self._shape_check(other)
        out = PolyMatrix(self.ring, self.rows, self.cols)
        out.entries = dict(self.entries)
        for key, p in other.entries.items():
            s = out.entries.get(key)
            s = p if s is None else s + p
            if s.is_zero():
                out.entries.pop(key, None)
            else:
                out.entries[key] = s
        return out

    def __neg__(self):
        out = PolyMatrix(self.ring, self.rows, self.cols)
        out.entries = {k: -p for k, p in self.entries.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        if self.ring != other.ring:
            raise RingMismatchError("matrices over different rings")
        by_row = {}
        for (k, j), p in other.entries.items():
            by_row.setdefault(k, []).append((j, p))
        acc = {}
        for (i, k), p in self.entries.items():
            for j, q in by_row.get(k, ()):
                key = (i, j)
                prod = p * q
                s = acc.get(key)
                s = prod if s is None else s + prod
                if s.is_zero():
                    acc.pop(key, None)
                else:
                    acc[key] = s
        out = PolyMatrix(self.ring, self.rows, other.cols)
        out.entries = acc
        return out

    def scale(self, c):
        out = PolyMatrix(self.ring, self.rows, self.cols)
        for k, p in self.entries.items():
            q = p.scale(c)
            if not q.is_zero():
                out.entries[k] = q
        return out

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

    def apply(self, vector):
        """Matrix times a list of polynomials."""
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        out = [self.ring.zero() for _ in range(self.rows)]
        for (i, j), p in self.entries.items():
            v = vector[j]
            if v and not v.is_zero():
                out[i] = out[i] + p * v
        return out

    def _shape_check(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        if self.ring != other.ring:
            raise RingMismatchError("matrices over different rings")

    def __str__(self):
        lines = []
        for i in range(self.rows):
            lines.append("[" + ", ".join(str(self.entry(i, j)) for j in range(self.cols)) + "]")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# exact rank (structural peeling + Bareiss)
# ---------------------------------------------------------------------------


def rank_exact(M: PolyMatrix) -> int:
    """Rank of M over the fraction field of k[t_1..t_r]; deterministic."""
    rows = {}
    col_count = {}
    for (i, j), p in M.entries.items():
        rows.setdefault(i, {})[j] = p
        col_count[j] = col_count.get(j, 0) + 1
    rank = 0
    # structural peeling: a row or column with a single nonzero entry
    # contributes 1 to the rank and its minor is untouched by elimination
    changed = True
    while changed:
        changed = False
        for i in list(rows):
            r = rows.get(i)
            if r is not None and len(r) == 1:
                (j,) = r
                rank += 1
                del rows[i]
                for i2 in list(rows):
                    if rows[i2].pop(j, None) is not None:
                        if not rows[i2]:
                            del rows[i2]
                changed = True
        cols = {}
        for i, r in rows.items():
            for j in r:
                cols.setdefault(j, []).append(i)
        for j, owners in cols.items():
            if len(owners) == 1 and owners[0] in rows:
                rank += 1
                del rows[owners[0]]
                changed = True
                break  # ownership map is stale after a removal
    if not rows:
        return rank
    return rank + _bareiss_rank(M.ring, rows)


def _bareiss_rank(ring: RingSpec, rows: dict) -> int:
    row_idx = sorted(rows)
    col_idx = sorted({j for r in rows.values() for j in r})
    zero = ring.zero()
    A = [[rows[i].get(j, zero) for j in col_idx] for i in row_idx]
    n, m = len(A), len(col_idx)
    prev = None  # previous pivot; None means 1
    step = 0
    limit = min(n, m)
    while step < limit:
        pivot = None
        best = None
        for i in range(step, n):
            for j in range(step, m):
                p = A[i][j]
                if p.is_zero():
                    continue
                key = (p.total_degree(), len(p.terms), i, j)
                if best is None or key < best:
                    best = key
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != step:
            A[step], A[pi] = A[pi], A[step]
        if pj != step:
            for row in A:
                row[step], row[pj] = row[pj], row[step]
        piv = A[step][step]
        for i in range(step + 1, n):
            a_ik = A[i][step]
            for j in range(step + 1, m):
                num = piv * A[i][j] - a_ik * A[step][j]
                if num.is_zero():
                    A[i][j] = zero
                elif prev is None:
                    A[i][j] = num
                else:
                    A[i][j] = num.divide_exact(prev)
            A[i][step] = zero
        prev = piv
        step += 1
    return step


# ---------------------------------------------------------------------------
# extension fields for evaluation-based rank in characteristic p
# ---------------------------------------------------------------------------


class GF2ExtOps:
    """F_{2^n} with elements packed into ints (bit i = coefficient of x^i)."""

    def __init__(self, degree: int, modulus: int):
        # modulus is the full irreducible polynomial, top bit included
        self.degree = degree
        self.modulus = modulus
        self.zero = 0
        self.one = 1

    def of(self, n):
        return n % 2

    def of_coeff(self, c):
        return c % 2

    def add(self, a, b):
        return a ^ b

    sub = add

    def neg(self, a):
        return a

    def mul(self, a, b):
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
            if a >> self.degree:
                a ^= self.modulus
        return acc

    def pow(self, a, k):
        acc = 1
        while k:
            if k & 1:
                acc = self.mul(acc, a)
            a = self.mul(a, a)
            k >>= 1
        return acc

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError
        # extended Euclid on polynomials over F_2
        r0, r1 = self.modulus, a
        s0, s1 = 0, 1
        while r1:
            q, r = _gf2_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 ^ _gf2_mul_plain(q, s1)
        _, rem = _gf2_divmod(s0, self.modulus)
        return rem

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a == 0

    def random_element(self, rng: random.Random):
        return rng.getrandbits(self.degree)


def _gf2_mul_plain(a, b):
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
    return acc


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
    """F_{p^k} as tuples of length k over F_p (odd p extension fields)."""

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        self.modulus = _find_gfp_modulus(p, k)  # monic, list of k coeffs of rem
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)

    def of(self, n):
        return ((n % self.p,) + (0,) * (self.k - 1)) if n % self.p else self.zero

    def of_coeff(self, c):
        return self.of(c)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] = (prod[i + j] + x * y) % p
        # reduce: x^k = modulus (list of k coeffs)
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j, m in enumerate(self.modulus):
                    if m:
                        prod[i - k + j] = (prod[i - k + j] + c * m) % p
        return tuple(prod[:k])

    def pow(self, a, n):
        acc = self.one
        while n:
            if n & 1:
                acc = self.mul(acc, a)
            a = self.mul(a, a)
            n >>= 1
        return acc

    def inv(self, a):
        if all(x == 0 for x in a):
            raise ZeroDivisionError
        return self.pow(a, self.p**self.k - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return all(x == 0 for x in a)

    def random_element(self, rng: random.Random):
        return tuple(rng.randrange(self.p) for _ in range(self.k))


def _find_gfp_modulus(p: int, k: int):
    """Find x^k + g irreducible over F_p; return coeffs f with x^k = f mod it."""
    from itertools import count

    def trim(a):
        a = list(a)
        while a and a[-1] == 0:
            a.pop()
        return a

    def polymod(a, mod):
        # mod is monic, length k+1; returns length-k list
        a = list(a)
        dm = len(mod) - 1
        for i in range(len(a) - 1, dm - 1, -1):
            c = a[i]
            if c:
                a[i] = 0
                for j in range(dm):
                    a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
        return (a + [0] * dm)[:dm]

    def polymulmod(a, b, mod):
        prod = [0] * max(1, len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] = (prod[i + j] + x * y) % p
        return polymod(prod, mod)

    def powmod(a, n, mod):
        acc = polymod([1], mod)
        base = polymod(a, mod)
        while n:
            if n & 1:
                acc = polymulmod(acc, base, mod)
            base = polymulmod(base, base, mod)
            n >>= 1
        return acc

    def polyrem(a, b):
        a = trim(a)
        b = trim(b)
        db = len(b) - 1
        inv_lead = pow(b[-1], p - 2, p)
        while len(a) - 1 >= db and a:
            c = a[-1] * inv_lead % p
            shift = len(a) - 1 - db
            for j in range(db + 1):
                a[shift + j] = (a[shift + j] - c * b[j]) % p
            a = trim(a)
        return a

    def polygcd(a, b):
        a, b = trim(a), trim(b)
        while b:
            a, b = b, polyrem(a, b)
        return a

    def is_irreducible(mod):
        # Ben-Or: no factor of degree i <= k/2, i.e. gcd(x^(p^i) - x, mod)
        # = 1 for each such i; most candidates fail at a small i
        x = polymod([0, 1], mod)
        y = x
        for _ in range(k // 2):
            y = powmod(y, p, mod)
            diff = [(a - b) % p for a, b in zip(y, x)]
            if len(polygcd(diff, mod)) != 1:
                return False
        return True

    for c in count(1):
        # candidate modulus x^k + (base-p digits of c), monic
        digits = []
        n = c
        for _ in range(k):
            digits.append(n % p)
            n //= p
        mod = digits + [1]
        if is_irreducible(mod):
            return tuple((-d) % p for d in digits)
    raise RuntimeError("unreachable")


_EXT_CACHE = {}


def evaluation_domain(field: FieldSpec):
    """Scalar field with >= 2**61 elements for Schwartz-Zippel evaluation:
    Q itself in characteristic 0, an extension of F_p otherwise."""
    p = field.characteristic
    if p == 0:
        return field
    key = p
    if key not in _EXT_CACHE:
        k = 1
        size = p
        while size < 2**61:
            size *= p
            k += 1
        if p == 2:
            _EXT_CACHE[key] = GF2ExtOps(k, _find_gf2_modulus(k))
        else:
            _EXT_CACHE[key] = GFPExtOps(p, k)
    return _EXT_CACHE[key]


def rank_probabilistic(M: PolyMatrix, seed: int) -> int:
    """Evaluation rank at seeded random points; always <= rank_exact(M)."""
    rng = random.Random(seed)
    field = M.ring.field
    dom = evaluation_domain(field)
    if field.characteristic == 0:
        points = [Fraction(rng.getrandbits(61)) for _ in range(M.ring.num_vars)]
    else:
        points = [dom.random_element(rng) for _ in range(M.ring.num_vars)]
    rows = [[dom.zero] * M.cols for _ in range(M.rows)]
    for (i, j), p in M.entries.items():
        rows[i][j] = p.evaluate(points, dom)
    return scalar_rank(rows, dom)


# ---------------------------------------------------------------------------
# scalar linear algebra over a field (any object with the scalar protocol
# of FieldSpec: a FieldSpec or an evaluation domain).  All elimination goes
# through Echelon; the dense functions below wrap it.
# ---------------------------------------------------------------------------


def dot(row, vec, ops):
    """Dot product of two dense vectors; zero entries of vec are skipped."""
    acc = ops.zero
    for a, x in zip(row, vec):
        if not ops.is_zero(x):
            acc = ops.add(acc, ops.mul(a, x))
    return acc


def mat_vec(rows, vec, ops):
    """Dense matrix (a list of rows) times a vector."""
    return [dot(row, vec, ops) for row in rows]


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


def _echelon(rows, ops):
    E = Echelon(ops)
    for row in rows:
        E.add(sparse(row, ops))
    return E


def scalar_rank(rows, ops) -> int:
    return len(rref(rows, ops)[1])


def rref(rows, ops):
    """Reduced row echelon form of a dense matrix; returns (rows, pivot_column_list)."""
    if not rows:
        return [], []
    E = _echelon(rows, ops)
    pivots = sorted(E.rows)
    return [dense(E.rows[c], len(rows[0]), ops) for c in pivots], pivots


def nullspace(rows, ncols, ops):
    """Basis of {v : A v = 0} for A given as a list of rows."""
    return [dense(v, ncols, ops) for v in _echelon(rows, ops).nullspace(range(ncols))]


def solve(rows, rhs, ops):
    """One solution of A x = b (free variables zero), or None."""
    if not rows:
        return None if any(not ops.is_zero(b) for b in rhs) else []
    ncols = len(rows[0])
    E = _echelon([list(r) + [b] for r, b in zip(rows, rhs)], ops)
    if ncols in E.rows:
        return None  # pivot in the constant column: inconsistent
    x = [ops.zero] * ncols
    for pc, row in E.rows.items():
        x[pc] = row.get(ncols, ops.zero)
    return x


def span_rref(vectors, ops):
    """Canonical RREF basis of the span of the given vectors."""
    return rref(vectors, ops)[0]


def in_span(basis_rref, v, ops):
    """Membership test against an RREF basis."""
    return not _echelon(basis_rref, ops).reduce(sparse(v, ops))
