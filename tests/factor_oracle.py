"""The list kernels of `factorize_I1`, kept as the reference for its packed
kernels, and the factorization built on them.

A series is a list of N = n+2 blocks of n x n int residues.  A factor is a
{(t-power, row, col): value} dict of its nonzero entries; the remainder is
dense, and every row operation replaces rows of it (list comprehensions,
one per block), never changes them in place.  `factorize_I1` here is the
factorization as it stood before the packed kernels, with every check and
message, and shares `_factor_bases`, `_entries` and `_exp_pair` with
`loopmodel`."""

import operator

from airycheck import VerificationError
from airycheck.loopmodel import _entries, _exp_pair, _factor_bases, _gl_depths


def times_one_plus(model, A, entries):
    """A (1 + Z) in place, for A a {(t-power, row, col): value} dict of its
    nonzero entries and Z the sum of c t^i E_jk over the entries
    (i, j, k, c): each entry x of column j of the old A, at (m, r, j), adds
    c x at (m + i, r, k), dropped at t^N."""
    N, p = model.N, model.p
    by_col = {}  # j -> [(t-power, col, value)] of Z
    for i, j, k, c in entries:
        by_col.setdefault(j, []).append((i, k, c))
    adds = [((m + i, r, k), c * x)
            for (m, r, j), x in A.items() for i, k, c in by_col.get(j, ()) if m + i < N]
    for key, y in adds:
        v = (A.get(key, 0) + y) % p
        if v:
            A[key] = v
        else:
            A.pop(key, None)
    return A


def dense(model, A):
    """The series whose nonzero entries are the {(t-power, row, col): value}
    dict A."""
    out = model.zero_series()
    for (i, j, k), x in A.items():
        out[i][j][k] = x
    return out


def one_plus_times(model, entries, A):
    """(1 + Z) A in place: row j of block m gains c times row k of the old
    block m - i."""
    N, p = len(A), model.p
    adds = [(m, j, c, A[m - i][k]) for i, j, k, c in entries for m in range(i, N)]
    for m, j, c, src in adds:  # rows are replaced, so src keeps the old row
        A[m][j] = [(y + c * x) % p for y, x in zip(A[m][j], src)]


def solve_one_plus(model, entries, A):
    """(1 + Z)^{-1} A in place, for Z of positive depth: X = A - Z X, where
    row j of block m of Z X is the sum of c times row k of X_{m-i}.  Blocks
    are solved in ascending order and the rows of a block from the bottom
    up, since a t^0 entry (j, k) of positive depth has k > j."""
    p, depths = model.p, _gl_depths(model.n)
    by_row = [[] for _ in range(model.n)]  # row j -> [(t-power, col, value)] of Z
    for i, j, k, c in entries:
        if depths[i, j, k] < 1:
            raise ValueError(f"t^{i} entry ({j}, {k}) of Z does not have positive depth")
        by_row[j].append((i, k, c))
    for m, blk in enumerate(A):
        for j in reversed(range(model.n)):
            for i, k, c in by_row[j]:
                if i <= m:
                    blk[j] = [(y - c * x) % p for y, x in zip(blk[j], A[m - i][k])]


def factorize_I1(model, g, mu):
    """`loopmodel.factorize_I1` on the list kernels above: the same
    (u, a, s, residual), or the same exception and message."""
    if not model.in_filtration(g, 1):
        raise ValueError("element is not in I(1)")
    p = model.p
    half = (model.h + 1) // 2
    maps = _factor_bases((model.n, p), tuple(mu.coords))
    w = [[[x % p for x in row] for row in blk] for blk in g]
    u, a, s = ({(0, j, j): 1 for j in range(model.n)} for _ in "uas")
    a_steps, s_steps = [], []  # exp(-Y) - 1 and Z of each factor, in step order

    def remainder(blocks):
        d = [list(blk) for blk in w[:blocks]]  # rows are replaced, never changed
        for e in a_steps:
            one_plus_times(model, e, d)
        for z in s_steps:
            solve_one_plus(model, z, d)
        return d

    for r in range(1, half + 1):
        d = remainder(2)
        if not model.in_filtration(d, r):
            raise VerificationError(f"remainder before step {r} is not in I({r})")
        reads, consistency, u_lines, a_lift, z_lift = maps[r]
        x = [d[i][j][k] for i, j, k in reads]
        if any(sum(map(operator.mul, row, x)) % p for row in consistency):
            raise VerificationError(f"depth-{r} part is not in z + a^mu + u_mu")
        for i, j, k, c in _entries(u_lines, x, p):
            times_one_plus(model, u, [(i, j, k, c)])
            one_plus_times(model, [(i, j, k, p - c)], w)
        ya = _entries(a_lift, x, p)
        if ya:
            e, e_minus = _exp_pair(model, ya)
            times_one_plus(model, a, e)
            a_steps.append(e_minus)
        zs = _entries(z_lift, x, p)
        if zs:
            if not model.stabilizes_x_tilde(zs):
                raise VerificationError(f"the depth-{r} S-factor does not fix X-tilde")
            s_steps.append(zs)
            times_one_plus(model, s, zs)
    residual = remainder(model.N)
    if not model.in_filtration(residual, 1 + half):
        raise VerificationError(f"residual is not in I({1 + half})")
    return dense(model, u), dense(model, a), dense(model, s), residual
