"""The fraction-free Bareiss rank over k[t_1..t_r]: the test oracle for
the evaluation ranks of koszulalg.linalg.

It keeps its own copy of the structural peeling, so that a fault in the
library's peeling cannot hide from it.
"""

from koszulalg.ring import RingSpec


def bareiss_rank(M) -> int:
    """Rank of the PolyMatrix M over the fraction field of its ring."""
    rows = {}
    for (i, j), p in M.entries.items():
        rows.setdefault(i, {})[j] = p
    rank = 0
    # structural peeling: a row or column with a single nonzero entry
    # contributes 1 to the rank and its minor is untouched by elimination
    changed = True
    while changed:
        changed = False
        for i in list(rows):
            r = rows.get(i)
            if r is not None and len(r) == 1:
                (j,) = r
                rank += 1
                del rows[i]
                for i2 in list(rows):
                    if rows[i2].pop(j, None) is not None:
                        if not rows[i2]:
                            del rows[i2]
                changed = True
        cols = {}
        for i, r in rows.items():
            for j in r:
                cols.setdefault(j, []).append(i)
        for j, owners in cols.items():
            if len(owners) == 1 and owners[0] in rows:
                rank += 1
                del rows[owners[0]]
                changed = True
                break  # ownership map is stale after a removal
    if not rows:
        return rank
    return rank + _bareiss_rank(M.ring, rows)


def _bareiss_rank(ring: RingSpec, rows: dict) -> int:
    row_idx = sorted(rows)
    col_idx = sorted({j for r in rows.values() for j in r})
    zero = ring.zero()
    A = [[rows[i].get(j, zero) for j in col_idx] for i in row_idx]
    n, m = len(A), len(col_idx)
    prev = None  # previous pivot; None means 1
    step = 0
    limit = min(n, m)
    while step < limit:
        pivot = None
        best = None
        for i in range(step, n):
            for j in range(step, m):
                p = A[i][j]
                if p.is_zero():
                    continue
                key = (p.total_degree(), len(p.terms), i, j)
                if best is None or key < best:
                    best = key
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != step:
            A[step], A[pi] = A[pi], A[step]
        if pj != step:
            for row in A:
                row[step], row[pj] = row[pj], row[step]
        piv = A[step][step]
        for i in range(step + 1, n):
            a_ik = A[i][step]
            for j in range(step + 1, m):
                num = piv * A[i][j] - a_ik * A[step][j]
                if num.is_zero():
                    A[i][j] = zero
                elif prev is None:
                    A[i][j] = num
                else:
                    A[i][j] = num.divide_exact(prev)
            A[i][step] = zero
        prev = piv
        step += 1
    return step
