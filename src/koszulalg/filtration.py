"""Inductive filtration of a minimal model by constant vectors.

F_1 is the kernel of the differential restricted to constant coordinate
vectors; F_{i+1} collects the constant vectors whose differential has
all monomial slices inside F_i.  Everything is scalar linear algebra on
sparse vectors {generator: scalar}: the slices (one scalar matrix per
monomial occurring in the minimal differential, `monomial_slices`) are
stored by column and decoded once, into `Filtration.slices`, and each
level is one Echelon.
"""

from __future__ import annotations

from .complexes import FreeComplex, Augmentation, monomial_slices
from .linalg import Echelon, apply_columns, span
from .minimal import is_minimal, lambda_ops, lambda_length


def slice_images(slices, v, ops):
    """{mu: A_mu v} for a sparse v, over the slices where it is nonzero."""
    out = {}
    for exps, columns in slices.items():
        img = apply_columns(columns, v, ops)
        if img:
            out[exps] = img
    return out


class Filtration:
    def __init__(self, model_complex: FreeComplex, subspaces: list, slices: dict):
        self.model_complex = model_complex
        self.subspaces = subspaces  # Echelons; subspaces[i] spans F_{i+1}
        self.slices = slices  # monomial_slices(model_complex)

    @property
    def length(self):
        return len(self.subspaces)

    def dims(self):
        return [E.rank for E in self.subspaces]

    def level(self, i):
        """The Echelon of F_i (1-indexed); F_0 is the zero space."""
        if i <= 0:
            return Echelon(self.model_complex.ring.field)
        return self.subspaces[min(i, len(self.subspaces)) - 1]

    def basis(self, i):
        """RREF basis of F_i (1-indexed) as sparse rows in pivot order."""
        rows = self.level(i).rows
        return [rows[c] for c in sorted(rows)]

    def graded_basis(self, i):
        """Homogeneous basis of F_i as {degree: list of sparse vectors}.

        Every slice is homogeneous, so F_i is graded, and the RREF rows of
        its degree parts, taken together, are already in RREF: they are
        the rows of F_i (the RREF is unique).  So these are `basis(i)`,
        grouped by degree in increasing order."""
        model = self.model_complex
        out = {}
        for v in self.basis(i):
            degrees = {model.degree(c) for c in v}
            if len(degrees) != 1:
                raise ValueError("filtration level is not degree-homogeneous")
            out.setdefault(degrees.pop(), []).append(v)
        return dict(sorted(out.items()))


def compute_filtration(model: FreeComplex) -> Filtration:
    if not is_minimal(model):
        raise ValueError("filtration needs a minimal differential")
    if model.n == 0:
        raise ValueError("zero model has no filtration")
    ops = model.ring.field
    n = model.n
    slices = monomial_slices(model)
    levels = []
    prev = Echelon(ops)
    while prev.rank < n:
        # v is in the next level iff every A_mu v reduces to 0 modulo prev;
        # reduction is linear, so it is the kernel of the residual columns
        conditions = {}
        for exps, columns in slices.items():
            for j, col in columns.items():
                for c, x in prev.reduce(col).items():
                    conditions.setdefault((exps, c), {})[j] = x
        nxt = span(span(conditions.values(), ops).nullspace(range(n)), ops)
        if nxt.rank == prev.rank:
            raise RuntimeError(
                "filtration stabilized below the full space; "
                "the differential's positive-degree part is not nilpotent"
            )
        levels.append(nxt)
        prev = nxt
    return Filtration(model_complex=model, subspaces=levels, slices=slices)


def augmentation_failures(augmentation: Augmentation):
    """The `Augmentation.validate` problems, as check (c) reports them."""
    return ["(c) " + p for p in augmentation.validate()]


def check_properties(F: Filtration, augmentation: Augmentation = None):
    """Report dict; 'failures' is empty iff everything holds."""
    model = F.model_complex
    ops = model.ring.field
    slices = F.slices
    failures = []
    # (a) strict ascent, exhaustion, stabilization
    prev_dim = 0
    contained = [True]  # contained[i]: F_{i-1} lies in F_i
    for i, level in enumerate(F.subspaces, start=1):
        if level.rank <= prev_dim:
            failures.append(f"(a) F_{i} does not strictly contain F_{i-1}")
        contained.append(not any(level.reduce(v) for v in F.basis(i - 1)))
        if not contained[i]:
            failures.append(f"(a) F_{i-1} not contained in F_{i}")
        prev_dim = level.rank
    if F.subspaces and F.subspaces[-1].rank != model.n:
        failures.append("(a) filtration does not exhaust the model")
    # (b) every slice of d(F_i) lies in F_{i-1}.  When F_{i-2} ⊂ F_{i-1} ⊂ F_i
    # and (b) held at i-1, the slices keep F_{i-1} inside F_{i-1}, and F_i
    # is F_{i-1} plus its rows whose pivot is not one of F_{i-1}: only
    # those rows need checking.
    held = True  # (b) at level 0, the zero space
    for i in range(1, F.length + 1):
        level, prev = F.level(i), F.level(i - 1)
        pivots = sorted(level.rows)
        if held and contained[i] and contained[i - 1]:
            pivots = [c for c in pivots if c not in prev.rows]
        held = not any(
            prev.reduce(img)
            for c in pivots
            for img in slice_images(slices, level.rows[c], ops).values()
        )
        if not held:
            failures.append(f"(b) d(F_{i}) escapes F_{i-1} x R")
    # (c) augmentation surjective on F_1, when one is attached
    if augmentation is not None:
        failures += augmentation_failures(augmentation)
        hit = any(
            not ops.is_zero(augmentation.of_scalars(v)) for v in F.basis(1)
        )
        if not hit:
            failures.append("(c) augmentation vanishes on all of F_1")
    # (d) induced maps on consecutive quotients are nonzero
    witnesses = {}
    for i in range(2, F.length + 1):
        prev, two_back = F.level(i - 1), F.level(i - 2)
        witness = next(
            (
                v
                for v in F.basis(i)
                if prev.reduce(v)
                and any(two_back.reduce(img) for img in slice_images(slices, v, ops).values())
            ),
            None,
        )
        if witness is None:
            failures.append(f"(d) induced map F_{i}/F_{i-1} -> F_{i-1}/F_{i-2} x R is zero")
        else:
            witnesses[i] = witness
    return {
        "failures": failures,
        "quotient_witnesses": witnesses,
        "passed": not failures,
    }


def bound_checks(F: Filtration):
    """Dimension / length inequalities with both sides computed."""
    model = F.model_complex
    n = model.n
    ell = F.length
    action = lambda_ops(F)
    degrees = sorted(set(model.degrees))
    lengths = {q: lambda_length(action, q) for q in degrees}
    lam_sum = sum(lengths.values())
    nonzero_degrees = len(degrees)
    report = {
        "dim_H": n,
        "length": ell,
        "lambda_lengths": lengths,
        "lambda_sum": lam_sum,
        "lambda_trivial": action.is_trivial(),
        "nonzero_degrees": nonzero_degrees,
        "dim_vs_twice_length": (n, 2 * (ell - 1), n >= 2 * (ell - 1)),
        "dim_vs_lambda_sum": (n, lam_sum, n >= lam_sum),
        "lambda_sum_vs_length": (lam_sum, ell, lam_sum >= ell),
    }
    if report["lambda_trivial"]:
        report["degrees_vs_length"] = (nonzero_degrees, ell, nonzero_degrees >= ell)
    report["passed"] = all(ok for _, _, ok in report_checks(report).values())
    return report


def report_checks(report):
    """The checks {name: (got, want, ok)} of a bound report, by name."""
    return {k: v for k, v in sorted(report.items()) if isinstance(v, tuple) and len(v) == 3}
