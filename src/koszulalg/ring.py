"""Exact scalars and sparse multivariate polynomials over Q and F_p.

Scalars in characteristic 0 are ints when integral and
`fractions.Fraction` otherwise, and plain ints in [0, p) in characteristic
p; `FieldSpec` defines their arithmetic on the protocol of `ScalarField`,
which the evaluation fields in linalg share.  Polynomials are dicts
mapping exponent tuples to nonzero scalars; all arithmetic is exact.
`add_product`, the one loop over products of terms, sums the raw
products of many entries in one call and reduces each total mod p once;
every product of polynomials, matrices and module elements goes through it.

Products run on packed monomials (Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors",
CASC 2007): one int holds the total degree in its top bits and then one
32-bit slot per variable, t_1 highest, so that int order is the grlex
order and the product of two monomials is one int add.  No exponent of
a Polynomial may pass `EXPONENT_LIMIT` = 2**31 - 1, so the sum of two
never carries out of its slot; a product that passes it raises
ValueError.  Only this module builds or reads the packed form: each
Polynomial packs its terms at most once and caches them, which is sound
because no code changes `Polynomial.terms` after construction.

The text form of polynomials and module elements is defined here once:
`Polynomial.__str__` writes it, and one tokenizer and one term loop
(`parse_combination`) read it, for `RingSpec.parse` (no generator names)
and for the `.cx`/`.map` reader alike.
"""

from __future__ import annotations

import operator
import re
import struct
from fractions import Fraction
from functools import cache
from heapq import heapify, heappop, heappush


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ScalarField:
    """The scalar protocol of every field here: zero, one, of, add, sub,
    neg, mul, inv, div, is_zero; the fields that ranks are evaluated in
    (F_p and the extensions in linalg) also draw points with random_element."""

    zero = 0
    one = 1
    is_zero = staticmethod(operator.not_)  # a == 0 on ints and Fractions

    def div(self, a, b):
        return self.mul(a, self.inv(b))


class FieldSpec(ScalarField):
    """The coefficient field: Q (characteristic 0) or F_p (p prime, p < 2**61).

    `FieldSpec(c)` returns a `RationalField` or a `PrimeField`, so the
    arithmetic is chosen once, by class, and no scalar operation tests the
    characteristic.
    """

    def __new__(cls, characteristic=0):
        if cls is FieldSpec:
            cls = RationalField if characteristic == 0 else PrimeField
        return object.__new__(cls)

    def __init__(self, characteristic=0):
        c = characteristic
        if c != 0 and not _is_prime(c):
            raise ValueError(f"characteristic must be 0 or prime, got {c}")
        if c >= 2**61:
            raise ValueError("prime characteristic must be < 2**61")
        if (c == 0) != isinstance(self, RationalField):
            raise ValueError(f"{self.__class__.__qualname__} cannot have characteristic {c}")
        object.__setattr__(self, "characteristic", c)

    # a frozen value: equal to a field of its class with its characteristic
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.characteristic == other.characteristic

    def __hash__(self):
        return hash((self.characteristic,))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(characteristic={self.characteristic!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def format_scalar(self, a) -> str:
        return str(a)

    def parse_scalar(self, text: str):
        num, slash, den = text.strip().partition("/")
        if not slash:
            return self.of(int(num))
        den = int(den)
        if den == 0:
            raise ValueError(f"zero denominator in {text.strip()!r}")
        return self.of(Fraction(int(num), den))


def _integral(q: Fraction):
    """q as an int when it is one."""
    return q.numerator if q.denominator == 1 else q


class RationalField(FieldSpec):
    """Q, with each scalar an int when integral and a `fractions.Fraction`
    otherwise.  `of`, `inv`, `div` and `parse_scalar` return an int for an
    integral value; sums and products may be of either type.  The two
    types agree on `==`, `hash` and `str`, so either may stand for a
    value."""

    def of(self, n):
        """Coerce an int or a Fraction into the field."""
        return n if type(n) is int else _integral(Fraction(n))

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    def inv(self, a):
        return _integral(Fraction(1, a))

    def div(self, a, b):
        return _integral(Fraction(a, b))


class PrimeField(FieldSpec):
    """F_p, with scalars as ints in [0, p)."""

    def of(self, n):
        """Coerce an int, or a Fraction whose denominator is prime to p."""
        p = self.characteristic
        if isinstance(n, Fraction):
            if n.denominator % p == 0:
                raise ValueError(f"{n} has no residue mod {p}")
            return n.numerator * pow(n.denominator, -1, p) % p
        return n % p

    def add(self, a, b):
        return (a + b) % self.characteristic

    def sub(self, a, b):
        return (a - b) % self.characteristic

    def mul(self, a, b):
        return (a * b) % self.characteristic

    def neg(self, a):
        return (-a) % self.characteristic

    def inv(self, a):
        if a % self.characteristic == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.characteristic)

    def random_element(self, rng):
        return rng.randrange(self.characteristic)


class RingSpec:
    """k[t_1,...,t_r] with a uniform variable weight (deg t_i = 1 or 2).

    The weight-2 convention is meant for characteristic 0; this is a
    grading convention, not enforced structurally, so mixed settings can
    still be computed with.
    """

    def __init__(self, field: FieldSpec, num_vars: int, var_weight: int = 1):
        if num_vars < 1:
            raise ValueError("need at least one variable")
        if var_weight not in (1, 2):
            raise ValueError("var_weight must be 1 or 2")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "var_weight", var_weight)

    # a frozen value, like FieldSpec
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (
            self.field == other.field
            and self.num_vars == other.num_vars
            and self.var_weight == other.var_weight
        )

    def __hash__(self):
        return hash((self.field, self.num_vars, self.var_weight))

    def __repr__(self):
        return (f"RingSpec(field={self.field!r}, num_vars={self.num_vars!r}, "
                f"var_weight={self.var_weight!r})")

    __setattr__ = FieldSpec.__setattr__

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * self.num_vars: self.field.one})

    def constant(self, c) -> "Polynomial":
        c = self.field.of(c)
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, {(0,) * self.num_vars: c})

    def var(self, i: int, power: int = 1) -> "Polynomial":
        """t_i (1-based) to the given power, at most EXPONENT_LIMIT."""
        if not 1 <= i <= self.num_vars:
            raise ValueError(f"variable index {i} out of range")
        if power > EXPONENT_LIMIT:
            raise ValueError(f"exponent of t{i} over {EXPONENT_LIMIT}")
        exps = [0] * self.num_vars
        exps[i - 1] = power
        return Polynomial(self, {tuple(exps): self.field.one})

    def monomial(self, exps, coeff=1) -> "Polynomial":
        c = self.field.of(coeff)
        if self.field.is_zero(c):
            return self.zero()
        exps = tuple(exps)
        if len(exps) != self.num_vars:
            raise ValueError("exponent vector has wrong length")
        return Polynomial(self, {exps: c})

    def parse(self, text: str) -> "Polynomial":
        """The polynomial of `text` in the grammar of `parse_combination`,
        with no generator names."""
        return parse_combination(self, None, text).get(None, self.zero())

    def element(self, terms) -> dict:
        """The module element with these coordinates.

        A module element of a free R-module is a dict {generator index:
        nonzero Polynomial}.  `terms` maps a generator to the exponent dict
        of its coordinate; empty ones are dropped and the generators come
        in increasing order.
        """
        return {u: Polynomial(self, t) for u, t in sorted(terms.items()) if t}


def _grlex_key(exps):
    return (sum(exps), exps)


EXPONENT_LIMIT = 2**31 - 1  # the largest exponent a Polynomial may hold
_MEMO_SIZE = 1 << 14  # a bound on a memo's memory, far above the monomials a computation reuses


class _Memo(dict):
    """A dict that fills a missing key with compute(key), emptied when it
    holds _MEMO_SIZE keys; a compute that raises stores nothing.  Nearly
    every monomial a computation packs, decodes or evaluates recurs, and a
    dict hit costs less than a struct pack or unpack or a product in an
    evaluation field."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self.compute(key)  # which may fill this memo too
        if len(self) >= _MEMO_SIZE:
            self.clear()
        self[key] = value
        return value


class _MonomialCodec:
    """The packed monomials of r variables: the degree in 8 bytes, then a
    4-byte slot per variable.  A slot holds at most EXPONENT_LIMIT in a
    Polynomial, so at most 2 * EXPONENT_LIMIT in a sum of two, and a sum
    over the limit sets the slot's top bit, one of the bits of `high`.
    `packed` maps an exponent tuple to its packed monomial and `exponents`
    maps back, each computing a monomial once."""

    def __init__(self, r):
        layout = struct.Struct(f">Q{r}i")  # 'i' refuses an exponent over the limit
        unpack = struct.Struct(f">8x{r}I").unpack
        high = sum(1 << (32 * s + 31) for s in range(r))

        def encode(e):
            try:
                k = int.from_bytes(layout.pack(sum(e), *e), "big")
            except struct.error:
                k = high
            if k & high:  # a negative exponent sets its slot's top bit
                raise ValueError(f"exponent vector {e} not in 0..{EXPONENT_LIMIT}")
            return k

        def decode(k):
            if k & high:
                raise ValueError(f"a product has an exponent over {EXPONENT_LIMIT}")
            return unpack(k.to_bytes(layout.size, "big"))

        self.high = high
        self.packed = _Memo(encode)
        self.exponents = _Memo(decode)


_codec = cache(_MonomialCodec)  # one codec a number of variables


def _pack(p):
    """The packed terms {packed monomial: coefficient} of the Polynomial p,
    in the order of its terms, cached on p."""
    packed = _codec(p.ring.num_vars).packed
    p._packed = {packed[e]: c for e, c in p.terms.items()}
    return p._packed


class RingMismatchError(ValueError):
    pass


class Polynomial:
    """Sparse homogeneous-or-not polynomial; terms: exponent tuple -> nonzero scalar.

    A Polynomial is immutable: no code changes `terms` after construction,
    so the packed view of its terms (`_packed`, None until the first
    product that reads it) stays valid.  An exponent over EXPONENT_LIMIT
    is refused, with ValueError, when the terms are packed.
    """

    __slots__ = ("ring", "terms", "_packed")

    def __init__(self, ring: RingSpec, terms: dict):
        self.ring = ring
        self.terms = terms
        self._packed = None

    # -- predicates and bookkeeping --

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def constant_coeff(self):
        return self.terms.get((0,) * self.ring.num_vars, self.ring.field.zero)

    def total_degree(self) -> int:
        """Max unweighted exponent sum; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def weighted_degree(self):
        """w * (exponent sum) if homogeneous, None if inhomogeneous.

        Raises ValueError on the zero polynomial: its degree is undefined
        and callers treat 0 as compatible with every degree.
        """
        if not self.terms:
            raise ValueError("degree of the zero polynomial is undefined")
        w = self.ring.var_weight
        degs = {w * sum(e) for e in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    # -- arithmetic --

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError("polynomials live in different rings")

    def __add__(self, other):
        self._check(other)
        f = self.ring.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = f.add(out.get(e, f.zero), c)
            if f.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return Polynomial(self.ring, out)

    def __neg__(self):
        f = self.ring.field
        return Polynomial(self.ring, {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        ring = self.ring
        product = add_product([(0, ring.field.one, self, triples({0: other}))], ring)
        return product.get((0, 0)) or ring.zero()

    # -- operations used by the elimination kernels --

    def divide_exact(self, other: "Polynomial") -> "Polynomial":
        """Quotient self/other when the division is exact; raises otherwise.

        The remainder is kept packed, its monomials in a heap, so each
        quotient term finds the remainder's grlex-leading term (the largest
        packed monomial) without a rescan.  An exact division never makes
        an exponent larger than self has, so a slot that passes the limit,
        like a quotient monomial with a negative exponent, means the
        division is inexact.
        """
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self.ring.zero()
        f = self.ring.field
        codec = _codec(self.ring.num_vars)
        high = codec.high
        divisor = other._packed or _pack(other)
        lk = max(divisor)
        lc = divisor[lk]
        tail = [(k, c) for k, c in divisor.items() if k != lk]
        rem = dict(self._packed or _pack(self))
        heap = [-k for k in rem]  # every key of rem, and some it has dropped
        heapify(heap)
        quo = {}
        while rem:
            k = -heappop(heap)
            rc = rem.pop(k, None)
            if rc is None:
                continue
            # k - lk, each slot borrowing from its own top bit
            qk = (k | high) - lk
            if (qk & high) != high:
                raise ValueError("inexact polynomial division")
            qk ^= high
            qc = f.div(rc, lc)
            quo[qk] = qc
            # rem -= (qc * t^qk) * (other - its leading term)
            for k2, c2 in tail:
                key = qk + k2
                if key & high:
                    raise ValueError("inexact polynomial division")
                if key in rem:
                    s = f.sub(rem[key], f.mul(qc, c2))
                    if f.is_zero(s):
                        del rem[key]
                    else:
                        rem[key] = s
                else:
                    rem[key] = f.neg(f.mul(qc, c2))
                    heappush(heap, -key)
        exponents = codec.exponents
        q = Polynomial(self.ring, {exponents[k]: c for k, c in quo.items()})
        q._packed = quo
        return q

    def evaluate(self, points, ops):
        """The value at `points` (one per variable) in the scalar field `ops`."""
        return evaluator(points, ops)(self)

    # -- printing / parsing --

    def __str__(self):
        if not self.terms:
            return "0"
        f = self.ring.field
        parts = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(f"t{i + 1}")
                elif k > 1:
                    factors.append(f"t{i + 1}^{k}")
            if not factors:
                parts.append(f.format_scalar(c))
            elif c == f.one:
                parts.append("*".join(factors))
            else:
                parts.append(f.format_scalar(c) + "*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"


def add_product(products, ring):
    """The sums of c * p * row over the (i, c, p, row) `products`, as
    {(i, j): nonzero Polynomial}: the one loop over products of terms.

    c is a scalar, p a Polynomial and row the (j, packed monomial,
    coefficient) triples of a module element (`triples`).  Every term
    product c * c1 * c2, with * and + on the raw int and Fraction scalars,
    goes into one dict keyed (i, j, k1 + k2), the packed monomials added
    as ints, zeros left in place; one collect step then reduces each total
    mod p once, decodes each distinct monomial of a nonzero total once and
    builds a Polynomial, packed view set, for each nonzero (i, j), in the
    order its (i, j) was first reached.  A nonzero total with an exponent
    over EXPONENT_LIMIT raises ValueError.  Term order inside a Polynomial is free: `evaluator`,
    `__str__`, `divide_exact` and `linalg._rank_at_most` ignore it.
    """
    acc = {}  # (i, j, packed monomial) -> unreduced coefficient, zeros included
    get = acc.get
    for i, c, p, row in products:
        for k1, c1 in (p._packed or _pack(p)).items():
            c1 *= c
            for j, k2, c2 in row:
                key = (i, j, k1 + k2)
                acc[key] = get(key, 0) + c1 * c2
    char = ring.field.characteristic
    sums = {}
    for (i, j, k), v in acc.items():
        t = sums.setdefault((i, j), {})
        if char:
            v %= char
        if v:
            t[k] = v
    exponents = _codec(ring.num_vars).exponents
    out = {}
    for key, t in sums.items():
        if t:
            p = out[key] = Polynomial(ring, {exponents[k]: v for k, v in t.items()})
            p._packed = t
    return out


def triples(element):
    """The (j, packed monomial, coefficient) triples of a module element
    {j: Polynomial}: the `row` of an `add_product`."""
    return [(j, k, v) for j, p in element.items() for k, v in (p._packed or _pack(p)).items()]


def row_triples(entries):
    """{k: the triples of row k} of a matrix held as entries {(k, j):
    Polynomial}: the `row`s of `add_product` for a product by that matrix."""
    out = {}
    for (k, j), q in entries.items():
        row = out.get(k)
        if row is None:
            row = out[k] = []
        for e, v in (q._packed or _pack(q)).items():
            row.append((j, e, v))
    return out


def unit_rows(n):
    """The rows of the n x n identity matrix as `row_triples` gives them:
    row k is the one triple (k, the packed monomial 1, 1)."""
    return {k: [(k, 0, 1)] for k in range(n)}


def evaluator(points, ops):
    """The map p -> p(points) into the scalar field `ops`, one point
    coordinate per variable.

    Every power of a coordinate, the value of every monomial and the image
    of every coefficient (`ops.of`) is computed once and shared by all the
    polynomials the map is applied to, such as the entries of one matrix.
    Each is kept in a `_Memo`, so a map kept across many matrices holds a
    bounded number.  A power is built by square and multiply, x^(2j) =
    (x^j)^2 and x^(2j+1) = x^(2j) * x, so x^k costs at most 2 log2(k)
    products.  `ops.of` raises ValueError on a rational coefficient with
    no residue mod p.
    """
    one, mul, add = ops.one, ops.mul, ops.add

    def power(key):  # key (i, k): coordinate i to the power k >= 1
        i, k = key
        if k & 1:
            return points[i] if k == 1 else mul(powers[i, k - 1], points[i])
        half = powers[i, k >> 1]
        return mul(half, half)

    def monomial(e):
        m = None
        for i, k in enumerate(e):
            if k:
                x = powers[i, k]
                m = x if m is None else mul(m, x)
        return one if m is None else m

    powers = _Memo(power)
    monomials = _Memo(monomial)
    coeffs = _Memo(ops.of)

    def evaluate(poly):
        acc = ops.zero
        for e, c in poly.terms.items():
            m = monomials[e]
            a = coeffs[c]
            acc = add(acc, m if a == one else mul(a, m))
        return acc

    return evaluate


# One token of polynomial text, by its groups (operator, scalar, variable
# index, exponent, name): + - *, an int or a/b, t<i> or t<i>^<e>, or a
# generator name.
_TOKEN = re.compile(
    r"\s*(?:([+*-])|(\d+(?:/\d+)?)|t(\d+)(?:\^(\d+))?|([A-Za-z_][A-Za-z0-9_]*))"
)
# a generator name the tokenizer reads back as one name token
_NAME = re.compile(r"(?!t\d)[A-Za-z_][A-Za-z0-9_]*")


def _tokens(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            break
        out.append(m.groups())
        pos = m.end()
    return out


def _spelling(token):
    op, scalar, var, power, name = token
    if var:
        return f"t{var}^{power}" if power else f"t{var}"
    return op or scalar or name


def parse_combination(ring: RingSpec, gen_index, text: str) -> dict:
    """The module element {generator: Polynomial} of `term ((+|-) term)*`,
    where a term may start with signs and is a `*`-product of scalars,
    variables t<i> or t<i>^<e> and exactly one generator name of
    gen_index.  With gen_index None a term names no generator, and the
    element has the one key None."""
    f = ring.field
    names = {} if gen_index is None else gen_index
    acc = {}  # generator -> {exponents: coefficient}
    tokens = _tokens(text)
    i = 0
    while i < len(tokens):
        sign = f.one
        while tokens[i][0] in ("+", "-"):
            if tokens[i][0] == "-":
                sign = f.neg(sign)
            i += 1
            if i >= len(tokens):
                raise ValueError("dangling sign")
        coeff = sign
        exps = [0] * ring.num_vars
        gen = None
        while True:
            _, scalar, var, power, name = tokens[i]
            if var:
                if not 1 <= int(var) <= ring.num_vars:
                    raise ValueError(
                        f"no variable {_spelling(tokens[i])!r} when r = {ring.num_vars}"
                    )
                exps[int(var) - 1] += int(power) if power else 1
                if exps[int(var) - 1] > EXPONENT_LIMIT:
                    raise ValueError(f"exponent of t{var} over {EXPONENT_LIMIT}")
            elif scalar:
                coeff = f.mul(coeff, f.parse_scalar(scalar))
            elif name in names:
                if gen is not None:
                    raise ValueError(f"two generators in one term near {name!r}")
                gen = names[name]
            elif gen_index is None:
                raise ValueError(f"expected a scalar or a variable, got {_spelling(tokens[i])!r}")
            else:
                raise ValueError(f"unknown generator {_spelling(tokens[i])!r}")
            i += 1
            if i >= len(tokens) or tokens[i][0] != "*":
                break
            i += 1
            if i >= len(tokens):
                raise ValueError("dangling '*'")
        if gen is None and gen_index is not None:
            raise ValueError(f"term without a generator in {text!r}")
        if i < len(tokens) and tokens[i][0] not in ("+", "-"):
            raise ValueError(f"no sign before {_spelling(tokens[i])!r} in {text!r}")
        terms = acc.setdefault(gen, {})
        e = tuple(exps)
        c = f.add(terms.get(e, f.zero), coeff)
        if f.is_zero(c):
            terms.pop(e, None)
        else:
            terms[e] = c
    return ring.element(acc)
