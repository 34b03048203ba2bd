"""Exact dense linear algebra over Q and the prime fields F_p: row reduction
and what is read off it (`rref`, `rank`, `nullspace`, `solve`), and `det`.

Matrices are lists of lists of field elements: Fractions (plain ints are
read as rationals) or FqElements of a prime field GF(p); `det` takes ints.  F_{p^e} with
e > 1 is refused with ValueError.  Everything here copies its inputs;
nothing is mutated in place.

One Gauss-Jordan kernel, `_eliminate`, works on Python int rows, and no
field element is made inside it.  A row enters once, on the columns where
some row is nonzero (no row step makes another column nonzero): over Q it is
scaled by the lcm of its denominators, over F_p each entry becomes its
residue `x.v`.
Over Q a row step is `r <- a r - b P` (P the pivot row, a its pivot, b the
entry of r in the pivot column, both divided by their gcd), and the row is
then divided by its content, the gcd of its entries, so that the rows stay
primitive.  Over F_p the pivot row is scaled by `pow(a, -1, p)` and a row
step is `r <- (r - b P) mod p`.  Field elements are built only for results:
a reduced row over Q is `Fraction(x, pivot)`, over F_p `field.from_index(x)`.
`_reduce` is the one int-row entry: it eliminates int rows and builds the
reduced pivot rows; `rref` and `nullspace` read their rows through it,
`solve` reads `rref`, and `rank` builds no element.  `nullspace` also takes
rows of plain ints, read in the field of its `one`.

Callers: the coroot coordinates of a pairing vector, one `solve` against
the transposed Cartan matrix, and the root-lattice index |det C| (`rootdata`),
ranks and spans in the Chevalley algebras over Q, F_5 and F_7, and their
integral kernels and spans, z_r from int rows through `nullspace` and a_r
through `_reduce` (`chevalley`), and `loopmodel._factor_bases`, which builds
the depth-r solve maps of `factorize_I1` by one `_eliminate` per
(n, p, mu, r) on residues, with one row per depth-r line.
No matrix product lives here: Weyl elements are built from their words and
act by their int matrices (`rootdata`), the w_P lift is applied by its
sparse columns (`chevalley`), and `loopmodel` multiplies GL_n loop-group
series on int residues mod p itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _prime(field):
    """field itself, or ValueError unless it is a prime field."""
    if field.e != 1:
        raise ValueError(f"linalg works over Q and prime fields, not F_{field.p}^{field.e}")
    return field


def _int_rows(rows):
    """(int rows, cols, field) for a nonempty matrix with columns.

    `cols` are the columns where some row is nonzero, ascending; no row
    operation makes another column nonzero, so the int rows carry only
    those.  field is None over Q, where each row is scaled by the lcm of its
    denominators and divided by its content, and the GF(p) field over F_p,
    where each entry is its residue."""
    first = rows[0][0]
    if isinstance(first, (int, Fraction)):
        field = None
        # (column, (numerator, denominator)) of the nonzero entries
        entries = [[(k, x.as_integer_ratio()) for k, x in enumerate(row) if x] for row in rows]
    else:
        field = _prime(first.field)
        entries = [[(k, x.v) for k, x in enumerate(row) if x.v] for row in rows]
    cols = sorted({k for row in entries for k, _ in row})
    at = {k: t for t, k in enumerate(cols)}
    M = []
    for row in entries:
        out = [0] * len(cols)
        if field is not None:
            for k, v in row:
                out[at[k]] = v
        elif row:
            d = lcm(*[q for _, (_, q) in row])
            ints = [n * (d // q) for _, (n, q) in row]
            g = gcd(*ints)
            for (k, _), x in zip(row, ints):
                out[at[k]] = x // g
        M.append(out)
    return M, cols, field


def _eliminate(M, field):
    """Gauss-Jordan on the int rows M in place, over Q (field None) or F_p;
    returns the pivot columns.  Afterwards the rows below the rank are zero,
    pivot row k has its only nonzero entry of column pivots[k] there, and
    over F_p that entry is 1."""
    p = None if field is None else field.p
    m = len(M)
    pivots = []
    r = 0
    for c in range(len(M[0])):
        for pr in range(r, m):
            if M[pr][c]:
                break
        else:
            continue
        M[r], M[pr] = M[pr], M[r]
        P = M[r]
        a = P[c]
        if p is None:
            for i, row in enumerate(M):
                b = row[c]
                if b and i != r:
                    g = gcd(a, b)
                    a1, b1 = a // g, b // g
                    row = [a1 * x - b1 * y for x, y in zip(row, P)]
                    g = gcd(*row)
                    M[i] = [x // g for x in row] if g > 1 else row
        else:
            if a != 1:
                inv = pow(a, -1, p)
                P = M[r] = [x * inv % p for x in P]
            for i, row in enumerate(M):
                b = row[c]
                if b and i != r:
                    M[i] = [(x - b * y) % p for x, y in zip(row, P)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def _reduce(M, cols, ncols, field):
    """(pivot rows, pivot columns) of the reduced row echelon form of an
    ncols-column matrix, from its int rows M on the columns `cols` (as
    `_int_rows` gives them), which are eliminated in place.  The pivot rows
    are dense rows of field elements, each divided by its pivot; the zero
    rows below them are left out.  The int-row entry of `rref` and
    `nullspace`, and of callers whose rows are integral to begin with."""
    pivots = _eliminate(M, field) if M else []
    zero = Fraction(0) if field is None else field.from_index(0)
    out = []
    for row, c in zip(M, pivots):
        a = row[c]  # 1 over F_p
        v = [zero] * ncols
        for k, x in zip(cols, row):
            if x:
                v[k] = Fraction(x, a) if field is None else field.from_index(x)
        out.append(v)
    return out, [cols[c] for c in pivots]


def rref(rows):
    """Reduced row echelon form; returns (new_rows, pivot_columns)."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    if not ncols:
        return [[] for _ in rows], []
    M, cols, field = _int_rows(rows)
    out, pivots = _reduce(M, cols, ncols, field)
    zero = Fraction(0) if field is None else field.from_index(0)
    return out + [[zero] * ncols for _ in M[len(pivots):]], pivots


def rank(rows):
    if not rows or not rows[0]:
        return 0
    M, cols, field = _int_rows(rows)
    return len(_eliminate(M, field))


def nullspace(rows, one):
    """Basis of the right kernel of the matrix, as a list of vectors.  Rows
    of plain ints are read in the field of `one`: as rationals over Q, as
    residues over F_p."""
    if not rows or not rows[0]:
        return []
    ncols = len(rows[0])
    if isinstance(rows[0][0], int) and not isinstance(one, (int, Fraction)):
        p = _prime(one.field).p
        M, cols, field = [[x % p for x in row] for row in rows], range(ncols), one.field
    else:
        M, cols, field = _int_rows(rows)
    red, pivots = _reduce(M, cols, ncols, field)
    # one vector per free column: 1 there, minus its entries at the pivots
    zero = one - one
    basis = []
    for fc in sorted(set(range(ncols)).difference(pivots)):
        v = [zero] * ncols
        v[fc] = one
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
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


def det(rows):
    """The determinant of a square int matrix by Bareiss's fraction-free
    elimination (Math. Comp. 22, 1968): after step k each entry below and
    right of the pivot is a (k+1)-minor, so the division by the previous
    pivot is exact and no Fraction is made."""
    M = [list(row) for row in rows]
    n = len(M)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not M[k][k]:
            pr = next((i for i in range(k + 1, n) if M[i][k]), None)
            if pr is None:
                return 0
            M[k], M[pr] = M[pr], M[k]
            sign = -sign
        P, a = M[k], M[k][k]
        for row in M[k + 1:]:
            b = row[k]
            for j in range(k + 1, n):
                row[j] = (a * row[j] - b * P[j]) // prev
        prev = a
    return sign * M[-1][-1] if n else 1
