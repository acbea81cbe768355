"""Lifting pipeline: alpha into an annihilator complex, beta back onto
the weight-zero Koszul complex, and the rank/dimension bound reports.

All lifts are produced by graded k-linear solves: a boundary equation
d(y) = b with y homogeneous of a prescribed degree has finitely many
monomial unknowns.  A single-generator proportionality shortcut is tried
first so the canonical fixtures get their minimal-support solutions
(e.g. the diagonal t^m maps) exactly.
"""

from __future__ import annotations

from .ring import RingSpec, Polynomial
from .complexes import (
    FreeComplex,
    KoszulComplex,
    koszul,
    canonical_augmentation,
    Augmentation,
    DgaStructure,
)
from .chainmaps import ChainMap, is_chain_map, rank_of_map, restricted_rank
from .linalg import PolyMatrix, Echelon, mat_vec, solve, sparse
from .minimal import minimal_model
from .filtration import (
    Filtration,
    compute_filtration,
    check_properties,
    monomial_slices,
    bound_checks,
)


class LiftError(Exception):
    """A required boundary equation has no solution.

    Carries the degree and the obstructing class (the unsolvable
    right-hand side) when they are known.
    """

    def __init__(self, message, degree=None, obstruction=None):
        super().__init__(message)
        self.degree = degree
        self.obstruction = obstruction


def monomials_of_weighted_degree(ring: RingSpec, wdeg: int):
    """All exponent tuples of the given weighted total degree."""
    if wdeg < 0 or wdeg % ring.var_weight:
        return []
    total = wdeg // ring.var_weight
    r = ring.num_vars
    out = []

    def rec(pos, left, acc):
        if pos == r - 1:
            out.append(tuple(acc + [left]))
            return
        for e in range(left + 1):
            rec(pos + 1, left - e, acc + [e])

    rec(0, total, [])
    return out


def _column_image(C: FreeComplex, i: int, exps):
    """Terms of d(mu * e_i) as {(target gen, exponent): scalar}."""
    f = C.ring.field
    out = {}
    for u in range(C.n):
        p = C.differential.entries.get((u, i))
        if p is None:
            continue
        q = p.multiply_monomial(exps)
        for e, c in q.terms.items():
            key = (u, e)
            s = f.add(out.get(key, f.zero), c)
            if f.is_zero(s):
                out.pop(key, None)
            else:
                out[key] = s
    return out


def _terms_of_element(C: FreeComplex, element):
    f = C.ring.field
    out = {}
    for u, p in enumerate(element):
        for e, c in p.terms.items():
            out[(u, e)] = c
    return out


def solve_boundary_equation(
    C: FreeComplex,
    rhs,
    degree: int,
    allowed=None,
    augmentation: Augmentation = None,
    aug_value=None,
):
    """Homogeneous solution of d(y) = rhs with deg(y) = degree, or None.

    allowed restricts the generators y may involve; when an augmentation
    and aug_value are given, epsilon(y) = aug_value is imposed as an
    extra linear condition.
    """
    ring = C.ring
    f = ring.field
    if allowed is None:
        allowed = range(C.n)
    unknowns = []
    for i in allowed:
        for exps in monomials_of_weighted_degree(ring, degree - C.degree(i)):
            unknowns.append((i, exps))
    rhs_terms = _terms_of_element(C, rhs)
    zero_exps = (0,) * ring.num_vars
    # shortcut: a single scaled generator already solves the equation
    if rhs_terms:
        for i, exps in unknowns:
            img = _column_image(C, i, exps)
            if set(img) != set(rhs_terms):
                continue
            key = next(iter(img))
            c = f.div(rhs_terms[key], img[key])
            if all(
                f.is_zero(f.sub(rhs_terms[k], f.mul(c, v)))
                for k, v in img.items()
            ):
                if augmentation is not None:
                    eps = (
                        f.mul(c, augmentation.values[i])
                        if exps == zero_exps
                        else f.zero
                    )
                    if not f.is_zero(f.sub(eps, aug_value)):
                        continue
                y = C.zero_element()
                y[i] = ring.monomial(exps, c)
                return y
    # general graded solve
    cols = [_column_image(C, i, exps) for i, exps in unknowns]
    keys = sorted(set(rhs_terms) | {k for col in cols for k in col})
    key_row = {k: r for r, k in enumerate(keys)}
    nrows = len(keys) + (1 if augmentation is not None else 0)
    rows = [[f.zero] * len(unknowns) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for k, c in col.items():
            rows[key_row[k]][j] = c
    b = [rhs_terms.get(k, f.zero) for k in keys]
    if augmentation is not None:
        for j, (i, exps) in enumerate(unknowns):
            if exps == zero_exps:
                rows[len(keys)][j] = augmentation.values[i]
        b.append(aug_value)
    if not unknowns:
        if any(not f.is_zero(x) for x in b):
            return None
        return C.zero_element()
    x = solve(rows, b, f)
    if x is None:
        return None
    y = C.zero_element()
    for (i, exps), c in zip(unknowns, x):
        if not f.is_zero(c):
            y[i] = y[i] + ring.monomial(exps, c)
    return y


def _solve_in_koszul(K: KoszulComplex, rhs, degree: int, max_length: int):
    """Graded solve inside a Koszul complex, split by exterior length.

    The differential lowers exterior length by exactly one, so the
    equation decouples into one system per length; each component of the
    right-hand side at length l-1 is matched from length-l generators
    (l <= max_length).
    """
    C = K.base
    y = C.zero_element()
    by_length = {}
    for u, p in enumerate(rhs):
        if not p.is_zero():
            by_length.setdefault(K.exterior_length(u), []).append(u)
    for ell_minus_1, gens in sorted(by_length.items()):
        ell = ell_minus_1 + 1
        if ell > max_length:
            return None
        part = C.zero_element()
        for u in gens:
            part[u] = rhs[u]
        allowed = [j for j in range(C.n) if K.exterior_length(j) == ell]
        sol = solve_boundary_equation(C, part, degree, allowed=allowed)
        if sol is None:
            return None
        y = [a + b for a, b in zip(y, sol)]
    return y


def lift_alpha(
    C: FreeComplex, augmentation: Augmentation, m: int, source: KoszulComplex = None
) -> ChainMap:
    """Chain map from the weight-m Koszul complex into C.

    The image of the empty generator is an augmentation-1 cycle; higher
    generators are lifted inductively over exterior length.  A failed
    solve raises LiftError with the obstructing class — this is exactly
    the acyclicity hypothesis failing in that degree.
    """
    ring = C.ring
    f = ring.field
    Km = source if source is not None else koszul(ring, m)
    if Km.m != m:
        raise ValueError("source complex has the wrong annihilator exponent")
    images = []
    one = solve_boundary_equation(
        C, C.zero_element(), 0, augmentation=augmentation, aug_value=f.one
    )
    if one is None:
        raise LiftError(
            "no augmentation-1 cycle of degree 0 exists", degree=0
        )
    images.append(one)
    for j in range(1, Km.n):
        I = Km.subsets[j]
        rhs = C.zero_element()
        for u in range(Km.n):
            p = Km.base.differential.entries.get((u, j))
            if p is None:
                continue
            img = images[u]
            rhs = [a + b * p for a, b in zip(rhs, img)]
        deg = Km.base.degree(j)
        sol = solve_boundary_equation(C, rhs, deg)
        if sol is None:
            raise LiftError(
                f"obstruction lifting generator {Km.base.generators[j][0]} "
                f"in degree {deg}",
                degree=deg,
                obstruction=rhs,
            )
        images.append(sol)
    M = PolyMatrix(ring, C.n, Km.n)
    for j, img in enumerate(images):
        for u, p in enumerate(img):
            if not p.is_zero():
                M.entries[(u, j)] = p
    alpha = ChainMap(Km.base, C, M)
    bad = is_chain_map(alpha)
    if bad is not None:
        raise LiftError(f"lift is not a chain map at column {bad}")
    return alpha


def lift_beta(F: Filtration, augmentation: Augmentation) -> ChainMap:
    """Chain map from the filtered minimal model onto the weight-0
    Koszul complex, sending F_i into exterior length <= i-1 and
    commuting with the augmentations."""
    model = F.model_complex
    ring = model.ring
    f = ring.field
    if augmentation.source is not model and augmentation.source != model:
        raise ValueError("augmentation does not belong to the model")
    rep = check_properties(F, augmentation)
    if rep["failures"]:
        raise LiftError("filtration unfit for lifting: " + "; ".join(rep["failures"]))
    K0 = koszul(ring, 0)
    n = model.n
    slices = monomial_slices(model)
    # The processed part of the model: its k-basis d_j, each tagged by a
    # unit in column n + j.  The d_j are independent, so the residual of
    # (v | 0) is (0 | -coordinates of v) when v is in their span.
    defined = Echelon(f)
    defined_images = []  # images in K0 of the d_j

    def coordinates(v):
        residual = defined.reduce(sparse(v, f))
        if any(c < n for c in residual):
            return None
        return [f.neg(residual.get(n + j, f.zero)) for j in range(defined.rank)]

    def define(v, img):
        defined.add({**sparse(v, f), n + defined.rank: f.one})
        defined_images.append(img)

    for level in range(1, F.length + 1):
        graded = F.graded_basis(level)
        for q in sorted(graded):
            for v in graded[q]:
                if coordinates(v) is not None:
                    continue
                eps_v = augmentation.of_scalars(v)
                if level == 1:
                    img = K0.base.zero_element()
                    if not f.is_zero(eps_v):
                        img[K0.subset_index[()]] = ring.constant(eps_v)
                    define(v, img)
                    continue
                rhs = K0.base.zero_element()
                for exps, mat in slices.items():
                    w = mat_vec(mat, v, f)
                    if all(f.is_zero(x) for x in w):
                        continue
                    coords = coordinates(w)
                    if coords is None:
                        raise LiftError(
                            "differential image escapes the processed filtration span"
                        )
                    for c, img in zip(coords, defined_images):
                        if f.is_zero(c):
                            continue
                        for u, p in enumerate(img):
                            if not p.is_zero():
                                rhs[u] = rhs[u] + p.multiply_monomial(exps, c)
                sol = _solve_in_koszul(K0, rhs, q, max_length=level - 1)
                if sol is None:
                    raise LiftError(
                        f"no exterior-length <= {level - 1} preimage in degree {q}",
                        degree=q,
                        obstruction=rhs,
                    )
                got_eps = sol[K0.subset_index[()]].constant_coeff()
                if not f.is_zero(f.sub(got_eps, eps_v)):
                    if q != 0:
                        raise LiftError(
                            "augmentation is nonzero on a positive-degree "
                            "filtration vector; no degree-preserving lift"
                        )
                    # adjust by a multiple of the augmentation cycle s_0
                    sol = list(sol)
                    k0 = K0.subset_index[()]
                    sol[k0] = sol[k0] + ring.constant(f.sub(eps_v, got_eps))
                define(v, sol)
    # express the standard basis through the processed one
    M = PolyMatrix(ring, K0.n, n)
    for j in range(n):
        e = [f.zero] * n
        e[j] = f.one
        coords = coordinates(e)
        if coords is None:
            raise LiftError("filtration basis does not span the model")
        for c, img in zip(coords, defined_images):
            if f.is_zero(c):
                continue
            for u, p in enumerate(img):
                if not p.is_zero():
                    M.entries[(u, j)] = M.entry(u, j) + p.scale(c)
        for u in range(K0.n):
            if (u, j) in M.entries and M.entries[(u, j)].is_zero():
                del M.entries[(u, j)]
    beta = ChainMap(model, K0.base, M)
    bad = is_chain_map(beta)
    if bad is not None:
        raise LiftError(f"lift is not a chain map at column {bad}")
    return beta


def beta_respects_filtration(beta: ChainMap, F: Filtration, K0: KoszulComplex = None):
    """Column-wise check: F_i lands in exterior length <= i-1."""
    model = F.model_complex
    if K0 is None:
        K0 = koszul(model.ring, 0)
    violations = []
    for i in range(1, F.length + 1):
        for v in F.basis(i):
            img = beta.apply([model.ring.constant(x) for x in v])
            for u, p in enumerate(img):
                if not p.is_zero() and K0.exterior_length(u) > i - 1:
                    violations.append((i, u))
    return violations


def pipeline(C: FreeComplex, m: int, augmentation: Augmentation = None):
    """minimal_model -> filtration -> alpha -> beta; returns a dict of parts."""
    if augmentation is None:
        augmentation = _default_augmentation(C)
    mm = minimal_model(C)
    model_aug = Augmentation(
        mm.model,
        [
            augmentation.of_element(mm.inclusion.matrix.column(j))
            for j in range(mm.model.n)
        ],
    )
    F = compute_filtration(mm)
    alpha = lift_alpha(C, augmentation, m)
    beta = lift_beta(F, model_aug)
    gamma = beta.compose(mm.projection).compose(alpha)
    return {
        "minimal": mm,
        "model_augmentation": model_aug,
        "filtration": F,
        "alpha": alpha,
        "beta": beta,
        "gamma": gamma,
    }


def _default_augmentation(C: FreeComplex) -> Augmentation:
    """Indicator of a single degree-0 cycle generator named s0 if present,
    otherwise of the first degree-0 generator with d = 0."""
    f = C.ring.field
    for j, (name, q) in enumerate(C.generators):
        if q != 0:
            continue
        values = [f.zero] * C.n
        values[j] = f.one
        aug = Augmentation(C, values)
        if not aug.validate():
            return aug
    raise LiftError("no canonical augmentation available; supply one")


def verify_bounds(C: FreeComplex, m: int, augmentation: Augmentation = None):
    """Full pipeline report: dimension, rank, length and degree bounds.

    Also holds the `bound_checks` report of the model, and in the
    weight-2, char-0 case with r >= 3 the `improved_bound` report of
    case0_improved_bound, both computed from the same pipeline run.
    """
    parts = pipeline(C, m, augmentation)
    model = parts["minimal"].model
    F = parts["filtration"]
    r = C.ring.num_vars
    gamma = parts["gamma"]
    rank = rank_of_map(gamma)
    checks = bound_checks(model, F)
    lam_sum = checks["lambda_sum"]
    degrees = checks["nonzero_degrees"]
    report = {
        "r": r,
        "m": m,
        "dim_H": model.n,
        "rank_gamma": rank,
        "length": F.length,
        "lambda_sum": lam_sum,
        "lambda_trivial": checks["lambda_trivial"],
        "nonzero_degrees": degrees,
        "a_dim_vs_2r": (model.n, 2 * r, model.n >= 2 * r),
        "a_rank_vs_2r": (rank, 2 * r, rank >= 2 * r),
        "b_length_vs_r_plus_1": (F.length, r + 1, F.length >= r + 1),
        "b_lambda_vs_r_plus_1": (lam_sum, r + 1, lam_sum >= r + 1),
        "alt_dim_vs_2_length_minus_1": checks["dim_vs_twice_length"],
        "beta_filtration_violations": beta_respects_filtration(parts["beta"], F),
    }
    if checks["lambda_trivial"]:
        report["c_degrees_vs_r_plus_1"] = (degrees, r + 1, degrees >= r + 1)
    report["passed"] = (
        not report["beta_filtration_violations"]
        and all(
            v[2]
            for k, v in report.items()
            if isinstance(v, tuple) and len(v) == 3
        )
    )
    report["bound_checks"] = checks
    if _improved_bound_obstacle(C.ring) is None:
        report["improved_bound"] = _improved_bound(gamma, koszul(C.ring, m))
    report["parts"] = parts
    return report


def case0_improved_bound(C: FreeComplex, m: int, augmentation: Augmentation = None):
    """Strengthened total-rank bound 2(r+1) in the weight-2, char-0 case.

    Uses a degree-preserving composite and the restricted rank on the
    singleton generators together with the triple-product generator.
    """
    obstacle = _improved_bound_obstacle(C.ring)
    if obstacle is not None:
        raise LiftError(obstacle)
    parts = pipeline(C, m, augmentation)
    report = _improved_bound(parts["gamma"], koszul(C.ring, m))
    report["parts"] = parts
    return report


def _improved_bound_obstacle(ring: RingSpec):
    """Why the improved bound does not apply over `ring`, or None."""
    if ring.var_weight != 2:
        return "the improved bound needs the weight-2 grading"
    if ring.field.characteristic != 0:
        return "the improved bound needs characteristic 0"
    if ring.num_vars < 3:
        return "the improved bound needs at least 3 variables"
    return None


def _improved_bound(gamma: ChainMap, Km: KoszulComplex):
    r = Km.ring.num_vars
    if not _is_degree_preserving(gamma, Km):
        raise LiftError("composite lift is not degree-preserving")
    sub = [Km.subset_index[(i,)] for i in range(1, r + 1)]
    sub.append(Km.subset_index[(1, 2, 3)])
    restricted = restricted_rank(gamma, sub)
    return {
        "r": r,
        "restricted_basis_size": len(sub),
        "restricted_rank": restricted,
        "restricted_full": restricted == r + 1,
        "odd_rank_at_least": restricted,
        "total_bound": 2 * (r + 1),
        "passed": restricted == r + 1,
    }


def _is_degree_preserving(f: ChainMap, Km: KoszulComplex) -> bool:
    for (i, j), p in f.matrix.entries.items():
        want = Km.base.degree(j) - f.target.degree(i)
        if p.weighted_degree() != want:
            return False
    return True


def multiplicative_alpha(
    dga: DgaStructure, augmentation: Augmentation, m: int
):
    """Multiplicative lift into a dga: singleton generators are lifted
    as cycles, the rest are their products.  Returns (alpha, rank)."""
    C = dga.complex
    ring = C.ring
    f = ring.field
    problems = dga.validate()
    if problems:
        raise LiftError("invalid dga: " + "; ".join(problems))
    if not f.is_zero(f.sub(augmentation.values[dga.unit], f.one)):
        raise LiftError("augmentation must send the dga unit to 1")
    Km = koszul(ring, m)
    images = [None] * Km.n
    images[Km.subset_index[()]] = C.basis_element(dga.unit)
    for i in range(1, ring.num_vars + 1):
        rhs = C.basis_element(dga.unit)
        power = ring.var(i, m + 1)
        rhs = [p * power for p in rhs]
        deg = Km.base.degree(Km.subset_index[(i,)])
        sol = solve_boundary_equation(C, rhs, deg)
        if sol is None:
            raise LiftError(
                f"obstruction lifting the generator for t{i}", degree=deg,
                obstruction=rhs,
            )
        images[Km.subset_index[(i,)]] = sol
    for j, I in enumerate(Km.subsets):
        if len(I) < 2:
            continue
        acc = images[Km.subset_index[(I[0],)]]
        for i in I[1:]:
            acc = dga.multiply(acc, images[Km.subset_index[(i,)]])
        images[j] = acc
    M = PolyMatrix(ring, C.n, Km.n)
    for j, img in enumerate(images):
        for u, p in enumerate(img):
            if not p.is_zero():
                M.entries[(u, j)] = p
    alpha = ChainMap(Km.base, C, M)
    bad = is_chain_map(alpha)
    if bad is not None:
        raise LiftError(
            "multiplicative extension fails the chain-map law at column "
            f"{bad}; the product structure does not support this lift"
        )
    return alpha, rank_of_map(alpha)
