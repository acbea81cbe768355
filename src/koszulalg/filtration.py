"""Inductive filtration of a minimal model by constant vectors.

F_1 is the kernel of the differential restricted to constant coordinate
vectors; F_{i+1} collects the constant vectors whose differential has
all monomial slices inside F_i.  Everything is scalar linear algebra on
sparse vectors {generator: scalar}: the slices (one scalar matrix per
monomial occurring in the minimal differential) are stored by column,
and each level is one Echelon.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import FreeComplex, Augmentation
from .linalg import Echelon, apply_columns, span
from .minimal import MinimalModel, is_minimal, lambda_ops, lambda_length


def _model_of(M) -> FreeComplex:
    return M.model if isinstance(M, MinimalModel) else M


def monomial_slices(model: FreeComplex):
    """{exponent tuple: {j: {i: scalar}}}, the slices A_mu by column;
    d(x) = sum_mu mu * (A_mu @ x)."""
    slices = {}
    for (i, j), p in model.differential.entries.items():
        for exps, c in p.terms.items():
            slices.setdefault(exps, {}).setdefault(j, {})[i] = c
    return slices


def slice_images(slices, v, ops):
    """{mu: A_mu v} for a sparse v, over the slices where it is nonzero."""
    out = {}
    for exps, columns in slices.items():
        img = apply_columns(columns, v, ops)
        if img:
            out[exps] = img
    return out


@dataclass
class Filtration:
    model_complex: FreeComplex
    subspaces: list  # Echelons; subspaces[i] spans F_{i+1}
    length: int
    minimal: MinimalModel = None

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
        """Homogeneous basis of F_i as {degree: list of sparse vectors}."""
        model = self.model_complex
        ops = model.ring.field
        level = self.level(i)
        if not level.rank:
            return {}
        # v lies in F_i iff it is orthogonal to every annihilator row
        annihilator = level.nullspace(range(model.n))
        by_degree = {}
        for c in range(model.n):
            by_degree.setdefault(model.degree(c), []).append(c)
        out = {}
        total = 0
        for q in sorted(by_degree):
            cols = set(by_degree[q])
            vecs = span(
                ({c: x for c, x in w.items() if c in cols} for w in annihilator), ops
            ).nullspace(by_degree[q])
            if vecs:
                out[q] = vecs
                total += len(vecs)
        if total != level.rank:
            raise ValueError("filtration level is not degree-homogeneous")
        return out


def compute_filtration(M) -> Filtration:
    model = _model_of(M)
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
    return Filtration(
        model_complex=model,
        subspaces=levels,
        length=len(levels),
        minimal=M if isinstance(M, MinimalModel) else None,
    )


def check_properties(F: Filtration, augmentation: Augmentation = None):
    """Report dict; 'failures' is empty iff everything holds."""
    model = F.model_complex
    ops = model.ring.field
    slices = monomial_slices(model)
    failures = []
    # (a) strict ascent, exhaustion, stabilization
    prev_dim = 0
    for i, level in enumerate(F.subspaces, start=1):
        if level.rank <= prev_dim:
            failures.append(f"(a) F_{i} does not strictly contain F_{i-1}")
        if any(level.reduce(v) for v in F.basis(i - 1)):
            failures.append(f"(a) F_{i-1} not contained in F_{i}")
        prev_dim = level.rank
    if F.subspaces and F.subspaces[-1].rank != model.n:
        failures.append("(a) filtration does not exhaust the model")
    if F.length != len(F.subspaces):
        failures.append("(a) recorded length disagrees with the chain")
    # (b) every slice of d(F_i) lies in F_{i-1}
    for i in range(1, F.length + 1):
        prev = F.level(i - 1)
        if any(
            prev.reduce(img)
            for v in F.basis(i)
            for img in slice_images(slices, v, ops).values()
        ):
            failures.append(f"(b) d(F_{i}) escapes F_{i-1} x R")
    # (c) augmentation surjective on F_1, when one is attached
    if augmentation is not None:
        probs = augmentation.validate()
        if probs:
            failures.extend("(c) " + p for p in probs)
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
        "dims": F.dims(),
        "length": F.length,
        "failures": failures,
        "quotient_witnesses": witnesses,
        "passed": not failures,
    }


def bound_checks(M, F: Filtration):
    """Dimension / length inequalities with both sides computed."""
    model = _model_of(M)
    n = model.n
    ell = F.length
    action = lambda_ops(model)
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
