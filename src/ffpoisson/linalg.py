"""Small exact linear algebra over any field-like value type.

Entries must support +, -, *, /, is_zero(); FieldElem and RationalFn both
qualify.  Sizes here are tiny (tens of rows), so plain Gaussian elimination
is all we need.  Callers pass explicit zero/one values of the entry type.
"""

from __future__ import annotations


def solve(matrix, rhs):
    """Solve M x = rhs for square exact M; raises on singular systems."""
    n = len(matrix)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not a[r][col].is_zero():
                piv = r
                break
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and not a[r][col].is_zero():
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def determinant(matrix, zero, one):
    n = len(matrix)
    a = [list(row) for row in matrix]
    det = one
    sign = 1
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not a[r][col].is_zero():
                piv = r
                break
        if piv is None:
            return zero
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        det = det * a[col][col]
        inv = a[col][col]
        for r in range(col + 1, n):
            if not a[r][col].is_zero():
                f = a[r][col] / inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    if sign < 0:
        det = zero - det
    return det
