"""F_{2^n} on bit-packed ints: the test oracle for the byte-slot
`koszulalg.linalg.GF2ExtOps`.

Same field, same modulus and the same draws of `random_element`, but
each element is an int whose bit i is the coefficient of x^i: `mul` is a
4-bit window multiply with a byte reduction table, and `inv` is the
shift-based extended Euclid.  `pack`/`unpack` of the byte-slot field
convert between the two forms.
"""

import random


class WindowGF2ExtOps:
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
