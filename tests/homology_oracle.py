"""The generator count by homology projections: the test oracle for
koszulalg.complexes.min_generators_of_homology.

It takes the homology classes and projection rows of `HomologyData`,
multiplies every representative by every t_i, and counts the classes
the products leave unreached, degree block by degree block.  The
library counts dim Z_q - dim(B_q + Σ t_i·Z_{q-w}) with no representatives;
both are the same basis-free integer.
"""

from koszulalg.complexes import HomologyData, _shift_by_variable, tensor_quotient
from koszulalg.linalg import Echelon, axpy


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
