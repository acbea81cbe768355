"""F_{p^k} on tuples of coefficients: the test oracle for the packed
`koszulalg.linalg.GFPExtOps`.

Same field, same modulus and the same draws of `random_element`, but
each element is a tuple of k coefficients over F_p, lowest degree first,
and every operation works coefficient by coefficient: `mul` multiplies
by Kronecker substitution and folds x^(k+i) one slot at a time, and
`inv` is extended Euclid over F_p[x].  `pack`/`unpack` of the packed
field convert between the two forms.

The modulus comes from `list_modulus`, Ben-Or's test on coefficient
lists, one gcd per step: the independent reference for the packed search
`koszulalg.linalg._find_gfp_modulus`.
"""

import random
from itertools import count, zip_longest
from operator import lshift


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


def list_modulus(p: int, k: int):
    """The first x^k + g irreducible over F_p (p = 2 included) among the
    candidates x^k + (base-p digits of c), c = 1, 2, ...; returns the
    coefficients m with x^k = m mod it.

    Ben-Or: f is irreducible iff gcd(x^(p^i) - x, f) = 1 for each
    i <= k/2, with y = x^(p^i) mod f by square and multiply and one
    Euclid per i.
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


class TupleGFPExtOps:
    """F_{p^k} = F_p[x]/(f) for odd p; elements are tuples of k coefficients
    over F_p, lowest degree first.  `modulus` holds the k coefficients of
    x^k mod f, so f = x^k - sum(modulus[j] * x^j).

    `mul` packs both operands into ints with slots of
    S = (k*(p-1)**2).bit_length() bits: a coefficient of the product is a
    sum of at most k terms below p**2, so one int multiply gives all 2k-1
    of them; x^(k+i) is then folded back through the nonzero terms of the
    modulus.
    """

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        self.modulus = list_modulus(p, k)
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
