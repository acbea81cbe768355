"""Inductive filtration of a minimal model by constant vectors.

F_1 is the kernel of the differential restricted to constant coordinate
vectors; F_{i+1} collects the constant vectors whose differential has
all monomial slices inside span(F_i).  Everything is plain scalar linear
algebra on the slice matrices (one scalar matrix per monomial occurring
in the minimal differential).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import FreeComplex, Augmentation
from .linalg import mat_vec, nullspace, span_rref, in_span
from .minimal import MinimalModel, is_minimal, lambda_ops, lambda_length


def _model_of(M) -> FreeComplex:
    return M.model if isinstance(M, MinimalModel) else M


def monomial_slices(model: FreeComplex):
    """{exponent tuple: scalar matrix}; d(x) = sum_mu mu * (A_mu @ x)."""
    ops = model.ring.field
    n = model.n
    slices = {}
    for (i, j), p in model.differential.entries.items():
        for exps, c in p.terms.items():
            mat = slices.get(exps)
            if mat is None:
                mat = [[ops.zero] * n for _ in range(n)]
                slices[exps] = mat
            mat[i][j] = c
    return slices


def _residual_matrix(basis, n, ops):
    """M with M@v = 0 iff v in span(basis); basis must be RREF rows."""
    pivots = []
    for row in basis:
        pivots.append(next(c for c, x in enumerate(row) if not ops.is_zero(x)))
    mat = []
    for c in range(n):
        row = [ops.zero] * n
        row[c] = ops.one
        for k, p in enumerate(pivots):
            row[p] = ops.sub(row[p], basis[k][c])
        mat.append(row)
    return mat


@dataclass
class Filtration:
    model_complex: FreeComplex
    subspaces: list  # RREF bases; subspaces[i] spans F_{i+1}
    length: int
    minimal: MinimalModel = None

    def dims(self):
        return [len(b) for b in self.subspaces]

    def basis(self, i):
        """RREF basis of F_i (1-indexed); F_0 is empty."""
        if i <= 0:
            return []
        return self.subspaces[min(i, len(self.subspaces)) - 1]

    def graded_basis(self, i):
        """Homogeneous basis of F_i as {degree: list of vectors}."""
        model = self.model_complex
        ops = model.ring.field
        n = model.n
        base = self.basis(i)
        if not base:
            return {}
        res = _residual_matrix(base, n, ops)
        out = {}
        total = 0
        for q in sorted(set(model.degrees)):
            rows = list(res)
            for c in range(n):
                if model.degree(c) != q:
                    sel = [ops.zero] * n
                    sel[c] = ops.one
                    rows.append(sel)
            vecs = nullspace(rows, n, ops)
            if vecs:
                out[q] = vecs
                total += len(vecs)
        if total != len(base):
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
    stacked = [row for mat in slices.values() for row in mat]
    levels = [span_rref(nullspace(stacked, n, ops), ops) if stacked else
              span_rref(_standard_basis(n, ops), ops)]
    while True:
        prev = levels[-1]
        if len(prev) == n:
            break
        res = _residual_matrix(prev, n, ops)
        rows = []
        for mat in slices.values():
            # residual of A_mu @ x must vanish
            for rrow in res:
                new = [ops.zero] * n
                for k, c in enumerate(rrow):
                    if ops.is_zero(c):
                        continue
                    for j in range(n):
                        new[j] = ops.add(new[j], ops.mul(c, mat[k][j]))
                rows.append(new)
        nxt = span_rref(nullspace(rows, n, ops) if rows else _standard_basis(n, ops), ops)
        if len(nxt) == len(prev):
            raise RuntimeError(
                "filtration stabilized below the full space; "
                "the differential's positive-degree part is not nilpotent"
            )
        levels.append(nxt)
    return Filtration(
        model_complex=model,
        subspaces=levels,
        length=len(levels),
        minimal=M if isinstance(M, MinimalModel) else None,
    )


def _standard_basis(n, ops):
    out = []
    for i in range(n):
        v = [ops.zero] * n
        v[i] = ops.one
        out.append(v)
    return out


def check_properties(F: Filtration, augmentation: Augmentation = None):
    """Report dict; 'failures' is empty iff everything holds."""
    model = F.model_complex
    ops = model.ring.field
    n = model.n
    slices = monomial_slices(model)
    failures = []
    # (a) strict ascent, exhaustion, stabilization
    prev_dim = 0
    for i, basis in enumerate(F.subspaces, start=1):
        if len(basis) <= prev_dim:
            failures.append(f"(a) F_{i} does not strictly contain F_{i-1}")
        prev_basis = F.basis(i - 1)
        for v in prev_basis:
            if not in_span(basis, v, ops):
                failures.append(f"(a) F_{i-1} not contained in F_{i}")
                break
        prev_dim = len(basis)
    if F.subspaces and len(F.subspaces[-1]) != n:
        failures.append("(a) filtration does not exhaust the model")
    if F.length != len(F.subspaces):
        failures.append("(a) recorded length disagrees with the chain")
    # (b) every slice of d(F_i) lies in F_{i-1}
    for i in range(1, F.length + 1):
        prev_basis = F.basis(i - 1)
        for v in F.basis(i):
            for mat in slices.values():
                img = mat_vec(mat, v, ops)
                if any(not ops.is_zero(x) for x in img):
                    if not in_span(prev_basis, img, ops):
                        failures.append(f"(b) d(F_{i}) escapes F_{i-1} x R")
                        break
            else:
                continue
            break
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
        found = False
        two_back = F.basis(i - 2)
        for v in F.basis(i):
            if in_span(F.basis(i - 1), v, ops):
                continue
            for mat in slices.values():
                img = mat_vec(mat, v, ops)
                if any(not ops.is_zero(x) for x in img) and not in_span(two_back, img, ops):
                    found = True
                    witnesses[i] = v
                    break
            if found:
                break
        if not found:
            failures.append(f"(d) induced map F_{i}/F_{i-1} -> F_{i-1}/F_{i-2} x R is zero")
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
    report["passed"] = all(
        v[2] for k, v in report.items()
        if isinstance(v, tuple) and len(v) == 3
    )
    return report
