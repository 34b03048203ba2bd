"""Dense matrix products over any field, the reference the tests check the
library's sparse and word-built matrices against (the library forms no dense
matrix product).  Matrices are lists of lists of field elements or ints."""


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
