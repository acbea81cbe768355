"""Seeded input generators for the benchmark workloads.

They are built on the public koszulalg API only, so the library under
test sees nothing but the generated inputs.
"""

from __future__ import annotations

from koszulalg import Augmentation, FreeComplex, PolyMatrix, direct_sum


def nonzero_scalar(ring, rng):
    p = ring.field.characteristic
    if p == 0:
        return rng.choice((-3, -2, -1, 1, 2, 3))
    return rng.randrange(1, p)


def random_exponents(rng, total, parts):
    exps = [0] * parts
    for _ in range(total):
        exps[rng.randrange(parts)] += 1
    return exps


def random_poly_matrix(ring, rng, max_dim=10, density=0.4, max_deg=3):
    """A matrix from the rank-oracle distribution of the acceptance tests.

    Shape uniform in [1, max_dim]^2; each entry is nonzero with
    probability `density` and is then a sum of one or two monomials of
    total degree at most `max_deg` with nonzero coefficients.
    """
    rows, cols = rng.randint(1, max_dim), rng.randint(1, max_dim)
    M = PolyMatrix(ring, rows, cols)
    for i in range(rows):
        for j in range(cols):
            if rng.random() > density:
                continue
            p = ring.zero()
            for _ in range(rng.randint(1, 2)):
                exps = random_exponents(rng, rng.randint(0, max_deg), ring.num_vars)
                p = p + ring.monomial(exps, nonzero_scalar(ring, rng))
            M.set(i, j, p)
    return M


def noisy_complex(C: FreeComplex, augmentation: Augmentation, rng, pairs: int,
                  moves: int):
    """C plus `pairs` contractible scalar pairs, after a random homogeneous
    change of basis; the augmentation is carried along.

    Each pair (a, b) has d(b) = c*a with c a nonzero scalar and
    deg a = deg b + 1; the pairs go round the degrees C uses.  Each of
    the `moves` basis changes is e_s -> e_s + p*e_t with s != t and p a
    monomial of degree deg s - deg t, so the differential stays
    homogeneous.  The result is homotopy equivalent to C, hence has the
    same homology.  Only the choices inside this fixed shape depend on
    `rng`, which keeps the cost of the result nearly seed-independent.
    """
    ring = C.ring
    f = ring.field
    degrees = sorted(set(C.degrees))
    gens = []
    D = PolyMatrix(ring, 2 * pairs, 2 * pairs)
    for k in range(pairs):
        q = degrees[k % len(degrees)]
        gens += [(f"na{k}", q + 1), (f"nb{k}", q)]
        D.set(2 * k, 2 * k + 1, ring.constant(nonzero_scalar(ring, rng)))
    noisy = direct_sum(C, FreeComplex(ring, gens, D))
    values = list(augmentation.values) + [f.zero] * (2 * pairs)
    n = noisy.n
    w = ring.var_weight
    differential = noisy.differential
    done = 0
    while done < moves:
        s, t = rng.randrange(n), rng.randrange(n)
        need = noisy.degree(s) - noisy.degree(t)
        if s == t or need < 0 or need % w:
            continue
        done += 1
        p = ring.monomial(random_exponents(rng, need // w, ring.num_vars),
                          nonzero_scalar(ring, rng))
        T = PolyMatrix.identity(ring, n)
        T.set(t, s, p)
        T_inv = PolyMatrix.identity(ring, n)
        T_inv.set(t, s, -p)
        differential = T_inv @ differential @ T
        # epsilon'(e_s) = epsilon(T e_s) = epsilon(e_s) + const(p) epsilon(e_t)
        values[s] = f.add(values[s], f.mul(p.constant_coeff(), values[t]))
    noisy = FreeComplex(ring, noisy.generators, differential)
    noisy_aug = Augmentation(noisy, values)
    return noisy, noisy_aug
