"""Lifting pipeline: alpha into an annihilator complex, beta back onto
the weight-zero Koszul complex, and the rank/dimension bound reports.

All lifts are produced by graded k-linear solves: a boundary equation
d(y) = b with y homogeneous of a prescribed degree has finitely many
monomial unknowns, whose images under d are sparse columns read off the
differential by column, each built on first use.  A single-generator
proportionality shortcut is tried first so the canonical fixtures get
their minimal-support solutions (e.g. the diagonal t^m maps) exactly;
otherwise the images are transposed into sparse rows for `linalg.solve`.
"""

from __future__ import annotations

from operator import add

from .ring import RingSpec, add_product
from .complexes import (
    FreeComplex,
    KoszulComplex,
    koszul,
    Augmentation,
    DgaStructure,
    linear_combination,
    min_generators_of_homology,
)
from .chainmaps import ChainMap, is_chain_map, rank_of_map, restricted_rank
from .linalg import PolyMatrix, Echelon, axpy, solve
from .minimal import minimal_model
from .filtration import (
    Filtration,
    compute_filtration,
    check_properties,
    monomial_slices,
    slice_images,
    bound_checks,
    report_checks,
)


class LiftError(Exception):
    """A required boundary equation has no solution.

    Carries the degree and the obstructing class (the unsolvable
    right-hand side, a module element) when they are known.
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


def _column_image(column, exps):
    """Terms of d(mu * e_i) as {(target gen, exponent): scalar}, where
    column is d(e_i) and mu = t^exps.  The keys are distinct, so no two
    terms combine."""
    return {
        (u, tuple(map(add, e, exps))): c
        for u, p in column.items()
        for e, c in p.terms.items()
    }


def solve_boundary_equation(
    C: FreeComplex,
    rhs,
    degree: int,
    allowed=None,
    augmentation: Augmentation = None,
    aug_value=None,
):
    """Homogeneous solution y of d(y) = rhs with deg(y) = degree, or None;
    rhs and y are module elements {generator: Polynomial}.

    allowed restricts the generators y may involve; when an augmentation
    and aug_value are given, epsilon(y) = aug_value is imposed as an
    extra linear condition.  The unknowns are the monomial multiples
    mu * e_i of degree `degree`.  The image d(mu * e_i) of each is built
    at most once: by the shortcut only when d(e_i) has as many terms as
    rhs, and by the general solve for every unknown.
    """
    ring = C.ring
    f = ring.field
    if allowed is None:
        allowed = range(C.n)
    monomials = {}  # degree of mu -> the exponents of mu, built once
    unknowns = []
    for i in allowed:
        q = degree - C.degree(i)
        if q not in monomials:
            monomials[q] = monomials_of_weighted_degree(ring, q)
        unknowns.extend((i, exps) for exps in monomials[q])
    columns = C.differential.columns()
    images = {}  # unknown -> its image, once built
    rhs_terms = {(u, e): c for u, p in rhs.items() for e, c in p.terms.items()}
    zero_exps = (0,) * ring.num_vars

    def epsilon(i, exps):
        return augmentation.values[i] if exps == zero_exps else f.zero

    # shortcut: a single scaled generator already solves the equation; the
    # image of mu * e_i has as many terms as d(e_i), so only those are built
    if rhs_terms:
        terms = {i: sum(len(p.terms) for p in col.values()) for i, col in columns.items()}
        for j, (i, exps) in enumerate(unknowns):
            if terms.get(i) != len(rhs_terms):
                continue
            img = images[j] = _column_image(columns[i], exps)
            if img.keys() != rhs_terms.keys():
                continue
            key = next(iter(img))
            c = f.div(rhs_terms[key], img[key])
            if not all(
                f.is_zero(f.sub(rhs_terms[k], f.mul(c, v)))
                for k, v in img.items()
            ):
                continue
            if augmentation is not None and not f.is_zero(
                f.sub(f.mul(c, epsilon(i, exps)), aug_value)
            ):
                continue
            return {i: ring.monomial(exps, c)}
    # general graded solve: one sparse row per (generator, exponent) key,
    # the right-hand side in column len(unknowns)
    n = len(unknowns)
    by_key = {k: {n: b} for k, b in rhs_terms.items()}
    for j, (i, exps) in enumerate(unknowns):
        img = images[j] if j in images else _column_image(columns.get(i, {}), exps)
        for k, c in img.items():
            by_key.setdefault(k, {})[j] = c
    rows = list(by_key.values())
    if augmentation is not None:
        eps = {j: epsilon(i, exps) for j, (i, exps) in enumerate(unknowns)}
        eps[n] = aug_value
        rows.append({j: c for j, c in eps.items() if not f.is_zero(c)})
    x = solve(rows, n, f)
    if x is None:
        return None
    y = {}
    for j in sorted(x):
        i, exps = unknowns[j]
        y.setdefault(i, {})[exps] = x[j]
    return ring.element(y)


def _solve_in_koszul(K: KoszulComplex, rhs, degree: int, max_length: int):
    """Graded solve inside a Koszul complex, split by exterior length.

    The differential lowers exterior length by exactly one, so the
    equation decouples into one system per length; each component of the
    right-hand side at length l-1 is matched from length-l generators
    (l <= max_length).
    """
    C = K.base
    by_length = {}
    for u, p in rhs.items():
        by_length.setdefault(K.exterior_length(u), {})[u] = p
    y = {}
    for ell_minus_1, part in sorted(by_length.items()):
        ell = ell_minus_1 + 1
        if ell > max_length:
            return None
        allowed = [j for j in range(C.n) if K.exterior_length(j) == ell]
        sol = solve_boundary_equation(C, part, degree, allowed=allowed)
        if sol is None:
            return None
        y.update(sol)  # each length has generators of its own
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
    one = solve_boundary_equation(C, {}, 0, augmentation=augmentation, aug_value=f.one)
    if one is None:
        raise LiftError(
            "no augmentation-1 cycle of degree 0 exists", degree=0
        )
    images.append(one)
    columns = Km.base.differential.columns()
    for j in range(1, Km.n):
        acc = {}  # alpha(d e_j) = sum of d_uj * alpha(e_u)
        for u, p in columns.get(j, {}).items():
            for i, q in images[u].items():
                add_product(acc.setdefault(i, {}), f.one, q, p, f)
        rhs = ring.element(acc)
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
    return _chain_map(Km.base, C, images, "lift is not a chain map at column {}")


def lift_beta(
    F: Filtration, augmentation: Augmentation, K0: KoszulComplex = None
) -> ChainMap:
    """Chain map from the filtered minimal model onto the weight-0
    Koszul complex K0 (built here when not given), sending F_i into
    exterior length <= i-1 and commuting with the augmentations."""
    model = F.model_complex
    ring = model.ring
    f = ring.field
    if augmentation.source is not model and augmentation.source != model:
        raise ValueError("augmentation does not belong to the model")
    rep = check_properties(F, augmentation)
    if rep["failures"]:
        raise LiftError("filtration unfit for lifting: " + "; ".join(rep["failures"]))
    if K0 is None:
        K0 = koszul(ring, 0)
    n = model.n
    k0 = K0.subset_index[()]
    slices = monomial_slices(model)
    # The processed part of the model: its k-basis d_j, each tagged by a
    # unit in column n + j.  The d_j are independent, so the residual of
    # (v | 0) is (0 | -coordinates of v) when v is in their span.
    defined = Echelon(f)
    defined_images = []  # images in K0 of the d_j

    def coordinates(v):
        residual = defined.reduce(v)
        if any(c < n for c in residual):
            return None
        return [f.neg(residual.get(n + j, f.zero)) for j in range(defined.rank)]

    def define(v, img):
        defined.add({**v, n + defined.rank: f.one})
        defined_images.append(img)

    for level in range(1, F.length + 1):
        graded = F.graded_basis(level)
        for q in sorted(graded):
            for v in graded[q]:
                if coordinates(v) is not None:
                    continue
                eps_v = augmentation.of_scalars(v)
                if level == 1:
                    define(v, {} if f.is_zero(eps_v) else {k0: ring.constant(eps_v)})
                    continue
                acc = {}
                for exps, w in slice_images(slices, v, f).items():
                    coords = coordinates(w)
                    if coords is None:
                        raise LiftError(
                            "differential image escapes the processed filtration span"
                        )
                    mu = ring.monomial(exps)
                    for c, img in zip(coords, defined_images):
                        if f.is_zero(c):
                            continue
                        for u, p in img.items():
                            add_product(acc.setdefault(u, {}), c, p, mu, f)
                rhs = ring.element(acc)
                sol = _solve_in_koszul(K0, rhs, q, max_length=level - 1)
                if sol is None:
                    raise LiftError(
                        f"no exterior-length <= {level - 1} preimage in degree {q}",
                        degree=q,
                        obstruction=rhs,
                    )
                got_eps = sol[k0].constant_coeff() if k0 in sol else f.zero
                if not f.is_zero(f.sub(got_eps, eps_v)):
                    if q != 0:
                        raise LiftError(
                            "augmentation is nonzero on a positive-degree "
                            "filtration vector; no degree-preserving lift"
                        )
                    # adjust by a multiple of the augmentation cycle s_0
                    sol = linear_combination(
                        ring, [(f.one, sol), (f.sub(eps_v, got_eps), {k0: ring.one()})]
                    )
                define(v, sol)
    # express the standard basis through the processed one
    images = []
    for j in range(n):
        coords = coordinates({j: f.one})
        if coords is None:
            raise LiftError("filtration basis does not span the model")
        images.append(linear_combination(
            ring, [(c, img) for c, img in zip(coords, defined_images) if not f.is_zero(c)]
        ))
    return _chain_map(model, K0.base, images, "lift is not a chain map at column {}")


def _chain_map(source: FreeComplex, target: FreeComplex, images, message):
    """The chain map sending e_j to images[j]; LiftError with `message`
    (formatted with the first bad column) if it is not one."""
    M = PolyMatrix(target.ring, target.n, source.n)
    for j, img in enumerate(images):
        for u, p in img.items():
            M.set(u, j, p)
    g = ChainMap(source, target, M)
    bad = is_chain_map(g)
    if bad is not None:
        raise LiftError(message.format(bad))
    return g


def beta_respects_filtration(beta: ChainMap, F: Filtration, K0: KoszulComplex = None):
    """Column-wise check: F_i lands in exterior length <= i-1.

    Returns the pairs (i, u), one per basis vector v of F_i and generator
    u of exterior length > i-1 where beta(v) is nonzero.  beta(v) is read
    off the columns of beta over the support of the sparse vector v.
    """
    model = F.model_complex
    f = model.ring.field
    if K0 is None:
        K0 = koszul(model.ring, 0)
    columns = beta.matrix.columns()
    violations = []
    for i in range(1, F.length + 1):
        for v in F.basis(i):
            too_long = {}  # u -> terms of beta(v)_u
            for j, c in v.items():
                for u, p in columns.get(j, {}).items():
                    if K0.exterior_length(u) > i - 1:
                        axpy(too_long.setdefault(u, {}), c, p.terms, f)
            violations.extend((i, u) for u in sorted(too_long) if too_long[u])
    return violations


def pipeline(C: FreeComplex, m: int, augmentation: Augmentation = None):
    """minimal_model (which validates C) -> filtration -> alpha -> beta;
    returns a dict of parts, with the Koszul complexes K_r(m) and K_r(0)
    that alpha and beta use as "koszul_m" and "koszul_0"."""
    mm = minimal_model(C)
    if augmentation is None:
        augmentation = _default_augmentation(C)
    inclusion = mm.inclusion.matrix.columns()
    model_aug = Augmentation(
        mm.model,
        [
            augmentation.of_scalars(
                {i: p.constant_coeff() for i, p in inclusion.get(j, {}).items()}
            )
            for j in range(mm.model.n)
        ],
    )
    F = compute_filtration(mm)
    Km = koszul(C.ring, m)
    alpha = lift_alpha(C, augmentation, m, Km)
    K0 = koszul(C.ring, 0)
    beta = lift_beta(F, model_aug, K0)
    gamma = beta.compose(mm.projection).compose(alpha)
    return {
        "minimal": mm,
        "model_augmentation": model_aug,
        "filtration": F,
        "koszul_m": Km,
        "koszul_0": K0,
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

    Also holds the `bound_checks` report of the model, in the weight-2,
    char-0 case with r >= 3 the `improved_bound` report of
    case0_improved_bound, and for m >= 1 `min_generators`, the minimal
    number of generators of H(C ⊗ R/(t^(m+1))), all computed from the
    same pipeline run.  The count is taken on the minimal model, which
    has the same count as C (see min_generators_of_homology).
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
        "beta_filtration_violations": beta_respects_filtration(
            parts["beta"], F, parts["koszul_0"]
        ),
    }
    if checks["lambda_trivial"]:
        report["c_degrees_vs_r_plus_1"] = (degrees, r + 1, degrees >= r + 1)
    report["passed"] = not report["beta_filtration_violations"] and all(
        ok for _, _, ok in report_checks(report).values()
    )
    report["bound_checks"] = checks
    if _improved_bound_obstacle(C.ring) is None:
        report["improved_bound"] = _improved_bound(gamma, parts["koszul_m"])
    if m >= 1:
        report["min_generators"] = min_generators_of_homology(model, (m + 1,) * r)
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
    report = _improved_bound(parts["gamma"], parts["koszul_m"])
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
        rhs = {dga.unit: ring.var(i, m + 1)}
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
    alpha = _chain_map(
        Km.base,
        C,
        images,
        "multiplicative extension fails the chain-map law at column {}; "
        "the product structure does not support this lift",
    )
    return alpha, rank_of_map(alpha)
