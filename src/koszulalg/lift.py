"""Lifting pipeline: alpha from the Koszul complex K_r(m) into the
minimal model, beta from the model onto the weight-zero Koszul complex
K_r(0), and the rank/dimension bound reports on gamma = beta ∘ alpha.

alpha is lifted by graded k-linear solves: a boundary equation d(y) = b
with y homogeneous of a prescribed degree has finitely many monomial
unknowns, whose images under d are sparse columns read off the
differential by column.  A `BoundaryCache` holds what the solves read of
one complex: each lift makes one and shares it across its solves, so
each image is built at most once per lift, not once per solve.  A
single-generator proportionality shortcut is tried first so the
canonical fixtures get their minimal-support solutions (e.g. the
diagonal t^m maps) exactly; otherwise the images are transposed into
sparse rows for `linalg.solve`.  beta solves nothing: K_r(0) has a
contracting homotopy, `_contract`, and each of its lift steps is one
pass of it.
"""

from __future__ import annotations

from operator import sub

from .ring import RingSpec
from .complexes import (
    FreeComplex,
    KoszulComplex,
    koszul,
    Augmentation,
    DgaStructure,
    degree_violations,
    linear_combination,
    min_generators_of_homology,
    monomial_image,
)
from .chainmaps import ChainMap, is_chain_map, rank_of_map, restricted_rank
from .linalg import PolyMatrix, Echelon, axpy, solve
from .minimal import minimal_model
from .filtration import (
    Filtration,
    compute_filtration,
    check_properties,
    slice_images,
    augmentation_failures,
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


class BoundaryCache:
    """What `solve_boundary_equation` reads of one complex, built once
    for all the solves that share it: d by column, d by row (`rows[u]`
    lists the (i, d_ui) with d_ui nonzero, i increasing), the number of
    terms of each d(e_i), the exponent lists of each monomial degree, and
    the image d(mu * e_i) of each unknown, built when a solve first needs
    it.  Its size grows with the distinct unknowns of those solves."""

    def __init__(self, C: FreeComplex):
        self.complex = C
        self.columns = C.differential.columns()
        self.rows = {}
        for i, col in self.columns.items():  # i increasing
            for u, p in col.items():
                self.rows.setdefault(u, []).append((i, p))
        self.terms = {
            i: sum(len(p.terms) for p in col.values()) for i, col in self.columns.items()
        }
        self._monomials = {}  # weighted degree -> exponent tuples
        self._images = {}  # (generator, exponents) -> image

    def monomials(self, q):
        got = self._monomials.get(q)
        if got is None:
            got = self._monomials[q] = monomials_of_weighted_degree(self.complex.ring, q)
        return got

    def image(self, i, exps):
        """The terms of d(mu * e_i) for mu = t^exps, by `monomial_image`."""
        key = (i, exps)
        got = self._images.get(key)
        if got is None:
            got = self._images[key] = monomial_image(self.columns.get(i, {}), exps)
        return got


def solve_boundary_equation(
    cache: BoundaryCache,
    rhs,
    degree: int,
    augmentation: Augmentation = None,
):
    """Homogeneous solution y of d(y) = rhs with deg(y) = degree in the
    complex C of `cache`, or None; rhs and y are module elements
    {generator: Polynomial}.

    When an augmentation is given, epsilon(y) = 1 is imposed as an extra
    linear condition.  The unknowns are the monomial multiples mu * e_i of
    degree `degree`, in the order of i and then of
    `monomials_of_weighted_degree`.  Their images d(mu * e_i)
    come from the cache, which may be shared with other solves and builds
    each image at most once.  The shortcut asks only for the images that can
    equal rhs up to a scalar, and the general solve, when it runs, for
    every unknown.
    """
    C = cache.complex
    ring = C.ring
    f = ring.field
    image = cache.image
    rhs_terms = {(u, e): c for u, p in rhs.items() for e, c in p.terms.items()}
    zero_exps = (0,) * ring.num_vars

    def epsilon(i, exps):
        return augmentation.values[i] if exps == zero_exps else f.zero

    # shortcut: a single scaled generator already solves the equation.  The
    # image of mu * e_i has as many terms as d(e_i), and it holds the first
    # key (u, e) of rhs only if d(e_i) has a term t^e' at u and mu = t^(e - e'),
    # so only those unknowns are tried: the i of row u, in index order.  The
    # keys of the images of two distinct mu * e_i differ (a finite set is no
    # translate of itself), so at most one unknown of each e_i can match:
    # the first match is the one a scan of all unknowns in order would find.
    if rhs_terms:
        u, e = next(iter(rhs_terms))
        for i, p in cache.rows.get(u, ()):
            if cache.terms[i] != len(rhs_terms):
                continue
            mu_degree = degree - C.degree(i)
            for exps in (tuple(map(sub, e, term)) for term in p.terms):
                if min(exps) < 0 or sum(exps) * ring.var_weight != mu_degree:
                    continue
                img = image(i, exps)
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
                    f.sub(f.mul(c, epsilon(i, exps)), f.one)
                ):
                    continue
                return {i: ring.monomial(exps, c)}
    # general graded solve: one sparse row per (generator, exponent) key,
    # the right-hand side in column len(unknowns)
    unknowns = []
    for i in range(C.n):
        unknowns.extend((i, exps) for exps in cache.monomials(degree - C.degree(i)))
    n = len(unknowns)
    by_key = {k: {n: b} for k, b in rhs_terms.items()}
    for j, (i, exps) in enumerate(unknowns):
        for k, c in image(i, exps).items():
            by_key.setdefault(k, {})[j] = c
    rows = list(by_key.values())
    if augmentation is not None:
        eps = {j: epsilon(i, exps) for j, (i, exps) in enumerate(unknowns)}
        eps[n] = f.one
        rows.append({j: c for j, c in eps.items() if not f.is_zero(c)})
    x = solve(rows, n, f)
    if x is None:
        return None
    y = {}
    for j in sorted(x):
        i, exps = unknowns[j]
        y.setdefault(i, {})[exps] = x[j]
    return ring.element(y)


def lift_alpha(C: FreeComplex, augmentation: Augmentation, Km: KoszulComplex) -> ChainMap:
    """Chain map from the weight-m Koszul complex Km into C, which
    `pipeline` takes to be the minimal model that beta starts from.

    The image of the empty generator is an augmentation-1 cycle; higher
    generators are lifted inductively over exterior length.  A failed
    solve raises LiftError with the obstructing class — this is exactly
    the acyclicity hypothesis failing in that degree.
    """
    ring = C.ring
    cache = BoundaryCache(C)
    images = []
    one = solve_boundary_equation(cache, {}, 0, augmentation=augmentation)
    if one is None:
        raise LiftError(
            "no augmentation-1 cycle of degree 0 exists", degree=0
        )
    images.append(one)
    columns = Km.base.differential.columns()
    for j in range(1, Km.n):
        # alpha(d e_j) = sum of d_uj * alpha(e_u)
        rhs = linear_combination(ring, [(p, images[u]) for u, p in columns.get(j, {}).items()])
        deg = Km.base.degree(j)
        sol = solve_boundary_equation(cache, rhs, deg)
        if sol is None:
            raise LiftError(
                f"obstruction lifting generator {Km.base.generators[j][0]} "
                f"in degree {deg}",
                degree=deg,
                obstruction=rhs,
            )
        images.append(sol)
    return _chain_map(Km.base, C, images, "lift is not a chain map at column {}")


def _contract(K0: KoszulComplex, x):
    """H(x) for the contracting homotopy H of K0 = K_r(0), x a module
    element: dH + Hd = id - ιπ, π the constant coefficient of s0.

    With i the least index such that a_i > 0 or i is in I, H sends
    t^a s_I to 0 when i is in I, and otherwise to t^(a - e_i) s_((i,) + I)
    (Eisenbud, Commutative Algebra, ch. 17).  Distinct terms have distinct
    images, so no two terms add up."""
    out = {}
    for u, p in x.items():
        I = K0.subsets[u]
        first = I[0] if I else K0.ring.num_vars + 1
        for exps, c in p.terms.items():
            i = next((k for k in range(1, first) if exps[k - 1]), None)
            if i is not None:
                lower = exps[:i - 1] + (exps[i - 1] - 1,) + exps[i:]
                out.setdefault(K0.subset_index[(i,) + I], {})[lower] = c
    return K0.ring.element(out)


def lift_beta(F: Filtration, augmentation: Augmentation, K0: KoszulComplex) -> ChainMap:
    """Chain map from the filtered minimal model onto the weight-0
    Koszul complex K0, sending F_i into exterior length <= i-1 and
    commuting with the augmentations."""
    model = F.model_complex
    ring = model.ring
    f = ring.field
    if augmentation.source is not model:
        raise ValueError("augmentation does not belong to the model")
    rep = check_properties(F, augmentation)
    if rep["failures"]:
        raise LiftError("filtration unfit for lifting: " + "; ".join(rep["failures"]))
    n = model.n
    k0 = K0.subset_index[()]
    slices = F.slices
    # The processed part of the model: its k-basis d_j, each tagged by a
    # unit in column n + j.  The d_j are independent, so the residual of
    # (v | 0) is (0 | -coordinates of v) when v is in their span.
    defined = Echelon(f)
    defined_images = []  # images in K0 of the d_j

    def coordinates(v):
        """{j: nonzero coordinate of v on d_j}, j increasing; None when v
        is outside their span."""
        residual = defined.reduce(v)
        if any(c < n for c in residual):
            return None
        return {c - n: f.neg(x) for c, x in sorted(residual.items())}

    def define(v, img):
        defined.add({**v, n + defined.rank: f.one})
        defined_images.append(img)

    for level in range(1, F.length + 1):
        graded = F.graded_basis(level)
        for q in sorted(graded):
            for v in graded[q]:
                if coordinates(v) is not None:
                    continue
                pairs = []
                for exps, w in slice_images(slices, v, f).items():
                    coords = coordinates(w)
                    if coords is None:
                        raise LiftError(
                            "differential image escapes the processed filtration span"
                        )
                    pairs += [
                        (ring.monomial(exps, c), defined_images[j]) for j, c in coords.items()
                    ]
                # rhs = beta(dv) is a cycle, and it lies in (t) K0: the model
                # is minimal, so no slice has t^0.  dH + Hd = id - ιπ then
                # gives d(H(rhs)) = rhs, and H raises exterior length by one,
                # so F_i lands in length <= i - 1.  H(rhs) has no s0 term, and
                # epsilon is 0 off degree 0 (check (c) above): adding
                # epsilon(v) * s0 makes beta commute with the augmentations.
                # The linear combinations that read it drop a zero s0 entry.
                rhs = linear_combination(ring, pairs)
                define(v, {k0: ring.constant(augmentation.of_scalars(v)),
                           **_contract(K0, rhs)})
    # express the standard basis through the processed one
    images = []
    for j in range(n):
        coords = coordinates({j: f.one})
        if coords is None:
            raise LiftError("filtration basis does not span the model")
        images.append(linear_combination(
            ring, [(ring.constant(c), defined_images[j]) for j, c in coords.items()]
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


def beta_respects_filtration(beta: ChainMap, F: Filtration, K0: KoszulComplex):
    """Column-wise check: F_i lands in exterior length <= i-1.

    Returns the pairs (i, u), one per basis vector v of F_i and generator
    u of exterior length > i-1 where beta(v) is nonzero.  beta(v) is read
    off the columns of beta over the support of the sparse vector v.
    """
    model = F.model_complex
    f = model.ring.field
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
    """minimal_model (which validates C) -> alpha -> filtration -> beta,
    every stage after the first on the model: alpha maps K_r(m) into it,
    beta maps it onto K_r(0), and gamma = beta ∘ alpha.  Returns a dict
    of parts, with the Koszul complexes K_r(m) and K_r(0) as "koszul_m"
    and "koszul_0".  alpha comes before the filtration: a C with zero
    homology has no augmentation-1 cycle, and that is the failure to
    report.  A given augmentation is checked on C, by check (c), before it
    is carried to the model: the model keeps no trace of where it fails
    on generators the model cancels."""
    mm = minimal_model(C)
    if augmentation is None:
        augmentation = _default_augmentation(C)
    problems = augmentation_failures(augmentation)
    if problems:
        raise LiftError("filtration unfit for lifting: " + "; ".join(problems))
    model_aug = mm.model_augmentation(augmentation)
    Km = koszul(C.ring, m)
    alpha = lift_alpha(mm.model, model_aug, Km)
    F = compute_filtration(mm.model)
    K0 = koszul(C.ring, 0)
    beta = lift_beta(F, model_aug, K0)
    gamma = beta.compose(alpha)
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
    """The indicator of the first generator, in generator order, that
    passes `Augmentation.validate` (degree 0, and no d(e_k) has a nonzero
    constant coefficient at it); the name plays no part."""
    f = C.ring.field
    for j in range(C.n):
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
    has the same count as C (see min_generators_of_homology).  `failures`
    names every failed check of these, and `passed` is `not failures`.
    """
    parts = pipeline(C, m, augmentation)
    model = parts["minimal"].model
    F = parts["filtration"]
    r = C.ring.num_vars
    gamma = parts["gamma"]
    rank = rank_of_map(gamma)
    checks = bound_checks(F)
    lam_sum = checks["lambda_sum"]
    degrees = checks["nonzero_degrees"]
    report = {
        "r": r,
        "m": m,
        "dim_H": model.n,
        "rank_gamma": rank,
        "length": F.length,
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
    failures = [key for key, (_, _, ok) in report_checks(report).items() if not ok]
    if report["beta_filtration_violations"]:
        failures.append("beta filtration violations")
    report["bound_checks"] = checks
    if not checks["passed"]:
        failures.append("bound_checks")
    if _improved_bound_obstacle(C.ring) is None:
        report["improved_bound"] = _improved_bound(gamma, parts["koszul_m"])
        if not report["improved_bound"]["passed"]:
            failures.append("improved bound")
    if m >= 1:
        report["min_generators"] = min_generators_of_homology(model, (m + 1,) * r)
        if report["min_generators"] < 2 ** r:
            failures.append("min generators")
    report["failures"] = failures
    report["passed"] = not failures
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
    if degree_violations(gamma.matrix, gamma.source, gamma.target, 0):
        raise LiftError("composite lift is not degree-preserving")
    sub = [Km.subset_index[(i,)] for i in range(1, r + 1)]
    sub.append(Km.subset_index[(1, 2, 3)])
    restricted = restricted_rank(gamma, sub)
    return {
        "r": r,
        "restricted_rank": restricted,
        "total_bound": 2 * (r + 1),
        "passed": restricted == r + 1,
    }


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
    cache = BoundaryCache(C)
    for i in range(1, ring.num_vars + 1):
        rhs = {dga.unit: ring.var(i, m + 1)}
        deg = Km.base.degree(Km.subset_index[(i,)])
        sol = solve_boundary_equation(cache, rhs, deg)
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
