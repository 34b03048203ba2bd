"""Exact dense linear algebra over an arbitrary field: row reduction and
what is read off it (`rref`, `rank`, `nullspace`, `solve`).

Matrices are lists of lists of field elements (Fraction, FqElement, ...).
Elements must support +, -, *, /, unary -, == and truthiness (zero is falsy).
Everything here copies its inputs; nothing is mutated in place.

Callers: the coroot coordinates of a coweight, one `solve` against the
transposed Cartan matrix (`rootdata`), kernels, ranks and spans in the
Chevalley algebras (`chevalley`), and the one `rref` per (n, p, mu, r) with
which `loopmodel._factor_bases` builds the depth-r solve maps of
`factorize_I1`.  No matrix product lives here: Weyl elements are built from
their words and act by their int matrices (`rootdata`), the w_P lift is
applied by its sparse columns (`chevalley`), and `loopmodel` multiplies
GL_n loop-group series on int residues mod p itself.
"""

from __future__ import annotations


def rref(rows):
    """Reduced row echelon form; returns (new_rows, pivot_columns)."""
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
        # zero entries are skipped: exact rows are mostly sparse
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


def rank(rows):
    return len(rref(rows)[1])


def nullspace(rows, one):
    """Basis of the right kernel of the matrix, as a list of vectors."""
    if not rows:
        return []
    ncols = len(rows[0])
    zero = one - one
    M, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -M[r][fc]
        basis.append(v)
    return basis


def solve(A, b):
    """One solution x of A x = b, or None if the system is inconsistent."""
    if not A:
        return []
    ncols = len(A[0])
    zero = b[0] - b[0] if b else None
    aug = [list(row) + [bi] for row, bi in zip(A, b)]
    M, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = M[r][ncols]
    return x

