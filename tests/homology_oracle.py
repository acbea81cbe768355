"""The generator count by homology projections: the test oracle for
koszulalg.complexes.min_generators_of_homology.

It takes the homology classes and projection rows of `HomologyData`,
multiplies every representative by every t_i, and counts the classes
the products leave unreached, degree block by degree block.  The
library counts dim Z_q - dim(B_q + Σ t_i·Z_{q-w}) with no representatives;
both are the same basis-free integer.

Also here, on the same projection rows: `project` and `include`, the
coordinates of a cycle in the homology basis and back, and
`induced_map_mod`, the map a chain map induces on the homology of the
tensor quotients; and `finite_complex_problems`, the check that a
FiniteComplex is a complex.
"""

from koszulalg.complexes import HomologyData, _shift_by_variable, tensor_columns, tensor_quotient
from koszulalg.linalg import Echelon, apply_columns, axpy


def sparse_dot(row, vec, ops):
    """Dot product of two sparse vectors given as {index: coeff} dicts."""
    if len(vec) < len(row):
        row, vec = vec, row
    acc = ops.zero
    for pos, c in row.items():
        other = vec.get(pos)
        if other is not None:
            acc = ops.add(acc, ops.mul(c, other))
    return acc


def finite_complex_problems(F):
    """Every violated invariant of the FiniteComplex F; [] means ok."""
    problems = []
    if any(apply_columns(F.columns, col, F.field) for col in F.columns.values()):
        problems.append("boundary squared is nonzero")
    for j, col in F.columns.items():
        for i in col:
            if F.degrees[i] != F.degrees[j] + 1:
                problems.append(f"boundary entry {i},{j} not of degree +1")
    return problems


def project(H, vector):
    """Coordinates of a sparse (cycle) vector in the homology basis of H."""
    return [sparse_dot(row, vector, H.field) for row in H.projection_rows]


def include(H, h_coords):
    """The sparse cycle with the given homology coordinates in H."""
    ops = H.field
    out = {}
    for c, rep in zip(h_coords, H.representatives):
        if not ops.is_zero(c):
            axpy(out, c, rep, ops)
    return out


def induced_map_mod(f, a):
    """Induced k-linear map on homology of the two tensor-quotient complexes.

    Returns (matrix rows over k, source HomologyData, target HomologyData);
    the matrix has one row per target class and one column per source class.
    """
    Fs = tensor_quotient(f.source, a)
    Ft = tensor_quotient(f.target, a)
    Hs = HomologyData(Fs)
    Ht = HomologyData(Ft)
    columns = tensor_columns(f.matrix, Fs.tensor_info["items"], Ft.tensor_info["lookup"])
    cols = [project(Ht, apply_columns(columns, rep, Hs.field)) for rep in Hs.representatives]
    rows = [[cols[j][i] for j in range(len(cols))] for i in range(Ht.total_dim)]
    return rows, Hs, Ht


def min_generators_by_projection(C, a):
    a = tuple(a)
    if any(x < 2 for x in a):
        raise ValueError("exponents must be >= 2 for a nontrivial R-action")
    F = tensor_quotient(C, a)
    H = HomologyData(F)
    if H.total_dim == 0:
        return 0
    ops = H.field
    info = F.tensor_info
    w = C.ring.var_weight
    # multiplication by t_i raises degree by exactly w, so image coordinates
    # live in one degree block at a time; span them per block
    killed = 0
    for q, rep_ids in H.degree_reps.items():
        targets = H.degree_reps.get(q + w)
        if not targets:
            continue
        # the projection onto the target classes by basis index:
        # {basis index: {target position: coeff}}
        proj = {}
        for pos, t in enumerate(targets):
            for b, c in H.projection_rows[t].items():
                proj.setdefault(b, {})[pos] = c
        span = Echelon(ops)
        for var in range(C.ring.num_vars):
            for k in rep_ids:
                coords = {}
                for b, c in _shift_by_variable(H.representatives[k], var, info).items():
                    column = proj.get(b)
                    if column:
                        axpy(coords, c, column, ops)
                span.add(coords)
        killed += span.rank
    return H.total_dim - killed
