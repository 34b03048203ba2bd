"""Dense matrix products, element-generic row reduction over any field and
a determinant by elimination on Fractions, the references the tests check
the library against: the library forms no dense matrix product (its
matrices are sparse or built from words), and `linalg` row-reduces on int
rows and takes determinants fraction-free.  Matrices are lists of lists of
field elements or ints."""

from fractions import Fraction


def mat_mul(A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    out = []
    for i in range(n):
        row = []
        Ai = A[i]
        for j in range(m):
            acc = None
            for s in range(k):
                a = Ai[s]
                if not a:
                    continue
                term = a * B[s][j]
                acc = term if acc is None else acc + term
            if acc is None:
                acc = Ai[0] * 0 if k else 0
            row.append(acc)
        out.append(row)
    return out


def mat_vec(A, v):
    out = []
    for row in A:
        acc = None
        for a, x in zip(row, v):
            if a:
                term = a * x
                acc = term if acc is None else acc + term
        out.append((row[0] * 0 if v else 0) if acc is None else acc)
    return out


def rref(rows):
    """Reduced row echelon form by Gauss-Jordan on the field elements
    themselves; returns (new_rows, pivot_columns)."""
    M = [list(r) for r in rows]
    if not M:
        return M, []
    ncols = len(M[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(M)) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = M[r][c]
        M[r] = [x / inv if x else x for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b if b else a for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == len(M):
            break
    return M, pivots


def det(rows):
    """The determinant as the product of the pivots of Gaussian elimination
    on Fractions, negated once per row swap: the reference for the
    fraction-free `linalg.det`."""
    M = [[Fraction(x) for x in row] for row in rows]
    n = len(M)
    out = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if M[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            M[c], M[pr] = M[pr], M[c]
            out = -out
        out *= M[c][c]
        for i in range(c + 1, n):
            f = M[i][c] / M[c][c]
            if f:
                M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    assert out.denominator == 1
    return int(out)
