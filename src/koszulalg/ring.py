"""Exact scalars and sparse multivariate polynomials over Q and F_p.

Scalars in characteristic 0 are ints when integral and
`fractions.Fraction` otherwise, and plain ints in [0, p) in characteristic
p; `FieldSpec` is the one place their arithmetic is defined.  Polynomials
are dicts mapping exponent tuples to nonzero scalars; all arithmetic is
exact, and `add_product` is the one loop over products of terms.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add


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


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field: Q (characteristic 0) or F_p (p prime, p < 2**61).

    `FieldSpec(c)` returns a `RationalField` or a `PrimeField`, so the
    arithmetic is chosen once, by class, and no scalar operation tests the
    characteristic.  Both implement the scalar protocol shared with the
    extension fields in linalg: zero, one, of, add, sub, neg, mul, inv,
    div, is_zero; the fields that ranks are evaluated in (F_p and the
    extensions) also draw points with random_element.
    """

    characteristic: int = 0

    def __new__(cls, characteristic=0):
        if cls is FieldSpec:
            cls = RationalField if characteristic == 0 else PrimeField
        return object.__new__(cls)

    def __post_init__(self):
        c = self.characteristic
        if c != 0 and not _is_prime(c):
            raise ValueError(f"characteristic must be 0 or prime, got {c}")
        if c >= 2**61:
            raise ValueError("prime characteristic must be < 2**61")

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    is_zero = staticmethod(operator.not_)  # a == 0 on ints and Fractions

    def format_scalar(self, a) -> str:
        return str(a)

    def parse_scalar(self, text: str):
        num, slash, den = text.strip().partition("/")
        den = int(den) if slash else 1
        if den == 0:
            raise ValueError(f"zero denominator in {text.strip()!r}")
        return self.of(Fraction(int(num), den))


def _integral(q: Fraction):
    """q as an int when it is one."""
    return q.numerator if q.denominator == 1 else q


@dataclass(frozen=True)
class RationalField(FieldSpec):
    """Q, with each scalar an int when integral and a `fractions.Fraction`
    otherwise.  `of`, `inv`, `div` and `parse_scalar` return an int for an
    integral value; sums and products may be of either type.  The two
    types agree on `==`, `hash` and `str`, so either may stand for a
    value."""

    zero = 0
    one = 1

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


@dataclass(frozen=True)
class PrimeField(FieldSpec):
    """F_p, with scalars as ints in [0, p)."""

    zero = 0
    one = 1

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
        p = self.characteristic
        if a % p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, p - 2, p)

    def random_element(self, rng):
        return rng.randrange(self.characteristic)


@dataclass(frozen=True)
class RingSpec:
    """k[t_1,...,t_r] with a uniform variable weight (deg t_i = 1 or 2).

    The weight-2 convention is meant for characteristic 0; this is a
    grading convention, not enforced structurally, so mixed settings can
    still be computed with.
    """

    field: FieldSpec
    num_vars: int
    var_weight: int = 1

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("need at least one variable")
        if self.var_weight not in (1, 2):
            raise ValueError("var_weight must be 1 or 2")

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
        """t_i (1-based) to the given power."""
        if not 1 <= i <= self.num_vars:
            raise ValueError(f"variable index {i} out of range")
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
        return parse_polynomial(self, text)

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


class RingMismatchError(ValueError):
    pass


class Polynomial:
    """Sparse homogeneous-or-not polynomial; terms: exponent tuple -> nonzero scalar."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingSpec, terms: dict):
        self.ring = ring
        self.terms = terms

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

    def coeff(self, exps):
        return self.terms.get(tuple(exps), self.ring.field.zero)

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
        f = self.ring.field
        return Polynomial(self.ring, add_product({}, f.one, self, other, f))

    def scale(self, c):
        f = self.ring.field
        c = f.of(c)
        if f.is_zero(c):
            return self.ring.zero()
        return Polynomial(self.ring, {e: f.mul(c, v) for e, v in self.terms.items()})

    # -- operations used by the elimination kernels --

    def leading(self):
        """(exps, coeff) of the grlex-leading term (t1 > ... > t_r)."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def divide_exact(self, other: "Polynomial") -> "Polynomial":
        """Quotient self/other when the division is exact; raises otherwise."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self.ring.zero()
        f = self.ring.field
        le, lc = other.leading()
        rem = dict(self.terms)
        quo = {}
        while rem:
            re = max(rem, key=_grlex_key)
            rc = rem[re]
            qe = tuple(a - b for a, b in zip(re, le))
            if any(x < 0 for x in qe):
                raise ValueError("inexact polynomial division")
            qc = f.div(rc, lc)
            quo[qe] = qc
            # rem -= (qc * t^qe) * other
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(qe, e2))
                s = f.sub(rem.get(e, f.zero), f.mul(qc, c2))
                if f.is_zero(s):
                    rem.pop(e, None)
                else:
                    rem[e] = s
        return Polynomial(self.ring, quo)

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


def add_product(terms, c, p, q, field):
    """terms += c * p * q on an exponent dict {exps: scalar}, in place.

    Exponents are added term by term and cancelled terms are dropped, so
    no intermediate Polynomial is built; c = 1 costs no multiplication.
    Returns terms.
    """
    mul, plus, is_zero, zero = field.mul, field.add, field.is_zero, field.zero
    scaled = c != field.one
    for e1, c1 in p.terms.items():
        if scaled:
            c1 = mul(c, c1)
        for e2, c2 in q.terms.items():
            e = tuple(map(add, e1, e2))
            s = plus(terms.get(e, zero), mul(c1, c2))
            if is_zero(s):
                terms.pop(e, None)
            else:
                terms[e] = s
    return terms


def evaluator(points, ops):
    """The map p -> p(points) into the scalar field `ops`, one point
    coordinate per variable.

    Every power of a coordinate, the value of every monomial and the image
    of every coefficient (`ops.of`) is computed once and shared by all the
    polynomials the map is applied to, such as the entries of one matrix.
    `ops.of` raises ValueError on a rational coefficient with no residue
    mod p.
    """
    one, mul, add = ops.one, ops.mul, ops.add
    powers = [[one, x] for x in points]
    monomials = {}
    coeffs = {}

    def monomial(e):
        m = None
        for row, k in zip(powers, e):
            if k:
                while len(row) <= k:
                    row.append(mul(row[-1], row[1]))
                m = row[k] if m is None else mul(m, row[k])
        monomials[e] = m = one if m is None else m
        return m

    def evaluate(poly):
        acc = ops.zero
        for e, c in poly.terms.items():
            m = monomials.get(e)
            if m is None:
                m = monomial(e)
            a = coeffs.get(c)
            if a is None:
                a = coeffs[c] = ops.of(c)
            acc = add(acc, m if a == one else mul(a, m))
        return acc

    return evaluate


_TOKEN = re.compile(r"\s*([+*-]|t\d+(?:\^\d+)?|-?\d+(?:/\d+)?)")


def parse_polynomial(ring: RingSpec, text: str) -> Polynomial:
    """Parse `term (+ term)*` with term = coeff, coeff*factors or factors.

    Factors are t<i> or t<i>^<e>.  A leading or binary '-' is accepted in
    characteristic 0 (and folded into the coefficient mod p otherwise).
    """
    text = text.strip()
    if text == "0":
        return ring.zero()
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot tokenize polynomial at: {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    result = ring.zero()
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1
        while i < n and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ValueError("dangling sign in polynomial")
        coeff = ring.field.of(sign)
        exps = [0] * ring.num_vars
        expect_factor = True
        while i < n and expect_factor:
            tok = tokens[i]
            if tok.startswith("t"):
                var, _, e = tok[1:].partition("^")
                if not 1 <= int(var) <= ring.num_vars:
                    raise ValueError(f"no variable {tok!r} when r = {ring.num_vars}")
                exps[int(var) - 1] += int(e or 1)
            elif tok in "+-":
                break
            else:
                coeff = ring.field.mul(coeff, ring.field.parse_scalar(tok))
            i += 1
            if i < n and tokens[i] == "*":
                i += 1
            else:
                expect_factor = False
        result = result + ring.monomial(exps, coeff)
    return result
