"""Small exact linear-algebra routines over Z.

Matrices are lists of row lists.  These are helpers for modest sizes (the
systems in this package stay well under 100x100); no pivot-size cleverness
beyond what exactness requires.  Ranks, independent minors and
determinants all come from one fraction-free integer elimination, so
rank over Q is computed without leaving Z.
"""


def json_ints(values, what):
    """values, a list of JSON integers, as given: 1.5, true and "1" are
    rejected (ValueError), not truncated to 1.  Every input file's integer
    rows pass through here."""
    if not isinstance(values, list) or any(type(x) is not int for x in values):
        raise ValueError(f"{what} must be integers: {values!r}")
    return values


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            c = ai[k]
            if c:
                bk = b[k]
                oi = out[i]
                for j in range(cols):
                    oi[j] += c * bk[j]
    return out


def _bareiss(m):
    """Fraction-free (Bareiss) elimination of an integer matrix: (pivot
    columns, pivot rows, last pivot times the sign of the row swaps).

    Each pivot is the first nonzero entry at or below the current row, and
    pivot rows[k] is the index in m of the row that became row k, so those
    rows of m are independent.  Eliminating below each pivot and dividing
    by the previous pivot keeps every entry an integer minor of m, zero
    exactly where Gauss-Jordan's is; when every row of a square m has a
    pivot, the third value is det m."""
    a = [list(row) for row in m]
    rows, cols = len(a), len(a[0]) if a else 0
    row_ids = list(range(rows))
    pivots = []
    prev, sign = 1, 1
    for col in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, rows) if a[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            row_ids[r], row_ids[piv] = row_ids[piv], row_ids[r]
            sign = -sign
        top, lead = a[r], a[r][col]
        for i in range(r + 1, rows):
            f = a[i][col]
            a[i] = [(x * lead - f * y) // prev for x, y in zip(a[i], top)]
        prev = lead
        pivots.append(col)
        if len(pivots) == rows:
            break
    return pivots, row_ids[: len(pivots)], sign * prev


def echelon(m):
    """(pivot columns, pivot rows) of an integer matrix (see `_bareiss`)."""
    pivots, pivot_rows, _ = _bareiss(m)
    return pivots, pivot_rows


def rank(m):
    """Rank over Q of an integer matrix."""
    return len(echelon(m)[0])


def det_bareiss(m):
    """Determinant of a square integer matrix, fraction-free (Bareiss)."""
    pivots, _, det = _bareiss(m)
    return det if len(pivots) == len(m) else 0
