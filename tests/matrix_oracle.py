"""Dense matrix products and element-generic row reduction over any field,
the references the tests check the library against: the library forms no
dense matrix product (its matrices are sparse or built from words), and
`linalg` row-reduces on int rows.  Matrices are lists of lists of field
elements or ints."""


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
