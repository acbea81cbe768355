"""The rows at a point through `Echelon`: the test oracle for the
forward-only row echelon form of `koszulalg.linalg._rows_at_point`.

`Echelon` keeps the rows in reduced row echelon form, leads at the
leftmost column, and clears each new lead out of every earlier row.  The
rows it finds independent depend only on the row order, so the library's
elimination, with other leads and no back-clearing, must name the same
rows.
"""

from koszulalg.linalg import Echelon


def echelon_rows_at_point(core, ops, value):
    """The rows of the core whose values (`value` of each entry, in `ops`)
    are independent: each row outside the span of those before it."""
    ncols = len({j for row in core.values() for j in row})
    E = Echelon(ops)
    independent = []
    for i, row in core.items():
        v = {}
        for j, p in row.items():
            x = value(p)
            if not ops.is_zero(x):
                v[j] = x
        if E.add(v):
            independent.append(i)
            if len(independent) == ncols:
                break
    return independent
