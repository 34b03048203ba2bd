"""Jacobi on every root triple, as `chevalley._check_constants` once checked
it: the reference its tests check the generator-only Jacobi check against.
It reads the root sums off the root coordinates itself, so it shares with
the library only its inputs: the root datum, the constants, the coroots and
the pairings."""

import operator


def jacobi_failure(rd, N, coroot, pairs):
    """The first root triple (as roots) whose Jacobi sum has a nonzero
    coefficient at the root the triple sums to, or None.  N, coroot and
    pairs are indexed by root position, as `_check_constants` reads them."""
    roots, neg = rd.roots, rd.neg
    npos = len(rd.pos_roots)
    at = {r: i for i, r in enumerate(roots)}
    sums = [{} for _ in roots]  # sums[a][b] = c for root a + root b = root c
    for a, x in enumerate(roots):
        for b, y in enumerate(roots):
            c = at.get(tuple(map(operator.add, x, y)))
            if c is not None:
                sums[a][b] = c
    row_of = [{} for _ in roots]  # row_of[a][b] = N_{a,b}
    for (a, b), v in N.items():
        row_of[a][b] = v

    def z_on_x(z, x):  # <z, x-check>
        return sum(map(operator.mul, coroot[x], pairs[z]))

    # N is antisymmetric, so the Jacobi sum is alternating in (x, y, z): one
    # order with x < y and x + y in Phi or 0 covers every triple.  Each of
    # its three terms, the coefficient of [[e_u, e_v], e_w] at e_{u+v+w}, is
    # N_{u,v} N_{u+v,w} when u + v is a root, <w, u-check> when v = -u and
    # 0 otherwise
    every = range(len(roots))
    for x, row in enumerate(sums):
        nx = row_of[x]
        for y in [b for b in row if b > x] + ([neg[x]] if x < npos else []):
            s = row.get(y)
            sy, ny = sums[y], row_of[y]
            for z in (every if s is None else sums[s]):
                j = z_on_x(z, x) if s is None else nx[y] * row_of[s][z]
                yz = sy.get(z)
                if yz is not None:
                    j += ny[z] * row_of[yz][x]
                elif z == neg[y]:
                    j += z_on_x(x, y)
                zx = sums[z].get(x)
                if zx is not None:
                    j += row_of[z][x] * row_of[zx][y]
                elif x == neg[z]:
                    j += z_on_x(y, z)
                if j:
                    return roots[x], roots[y], roots[z]
    return None
