"""Chevalley-basis Lie algebras with exact structure constants.

Basis order: E_alpha for the positive roots (height/lex order), then E_{-alpha}
in the matching order, then a Cartan basis (simple coroots; for GL_n the
diagonal matrix units).  Structure constants are integers; scalars live in Q
or F_p with p > h.

Signs are fixed by the extraspecial-pair convention on the height/lex root
order: `structure_constants` derives every other constant from the
extraspecial ones in one pass (the four-root relation, negation and the
zero-sum rule) and checks the result (|N| = p + 1, the coroot relation and
Jacobi on the root triples) before any algebra is built from it.  GL_n keeps
the signs of the matrix units.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache

from . import Record, VerificationError
from .linalg import nullspace, rank, rref, solve
from .rootdata import (
    Coweight,
    RootDatum,
    coxeter_number,
    u_mu_roots,
    weyl_wP,
)


class RationalField:
    """Field context for Q, mirroring the GF(p) interface."""

    p = None

    def __call__(self, v):
        if isinstance(v, Fraction):
            return v
        return Fraction(v)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vneg(a):
    return tuple(-x for x in a)


@lru_cache(maxsize=None)
def _root_sums(rd: RootDatum):
    """sums[a] = {b: c} for the root indices (in rd.roots) with
    root a + root b = root c, b ascending.

    A root x is coded as sum_i x_i B^i with B > 4 max|x_i|, which is additive
    and injective on sums of two roots, so a root sum is one integer add.
    """
    base = 4 * max(abs(c) for a in rd.pos_roots for c in a) + 1
    code = [sum(c * base ** i for i, c in enumerate(a)) for a in rd.roots]
    at = {x: i for i, x in enumerate(code)}
    return tuple(
        {b: at[x + y] for b, y in enumerate(code) if x + y in at} for x in code
    )


def _exact(q, roots, a, b):
    if q.denominator != 1:
        raise VerificationError(f"N at {(roots[a], roots[b])} is not integral")
    return int(q)


def _string_below(sums, neg, a, b):
    """p with b - p a a root and b - (p+1) a not, on root indices."""
    p = 0
    cur = sums[b].get(neg[a])
    while cur is not None:
        p += 1
        cur = sums[cur].get(neg[a])
    return p


def _negation(npos):
    """neg[a] = the index of -a; rd.roots lists the negatives in the order
    of rd.pos_roots."""
    return [i + npos for i in range(npos)] + list(range(npos))


@lru_cache(maxsize=None)
def structure_constants(rd: RootDatum):
    """{(a, b): N_{a,b}} on root indices (in rd.roots), for every pair with
    a + b a root: [e_a, e_b] = N_{a,b} e_{a+b}.

    One pass over the positive roots gamma in rd.pos_roots order (Carter,
    Simple Groups of Lie Type, 4.1-4.2).  The special pairs of gamma are the
    positive (xi, zeta) with xi + zeta = gamma, xi before zeta.  The first,
    the extraspecial pair (alpha, beta), gets N = p + 1, p the length of the
    alpha-string below beta; every other one follows from the four-root
    relation with (-alpha, -beta).  A pair with a negative root follows from
    N_{-x,-y} = -N_{x,y}, antisymmetry and the zero-sum rule
    N_{a,b}/(c,c) = N_{b,c}/(a,a) = N_{c,a}/(b,b) for a + b + c = 0.
    The result passes `_check_constants` before it is returned.
    """
    roots = rd.roots
    sums = _root_sums(rd)
    npos = len(rd.pos_roots)
    neg = _negation(npos)
    norm = [  # (x, x) = sum_j d_j x_j <x, alpha-check_j>, an int
        sum(dj * xj * tj for dj, xj, tj in zip(rd.d, x, t))
        for x, t in zip(roots, rd.pairings)
    ]
    N = {}  # positive pairs, both orders

    def const(a, b):
        if a < npos and b < npos:
            return N[a, b]
        if a >= npos and b >= npos:
            return -const(neg[a], neg[b])
        if a >= npos:
            return -const(b, a)
        # a positive, b negative: the zero-sum triple (a, b, -c); the
        # quotients are Fractions, since int / int would be a float
        c = sums[a][b]
        if c < npos:  # N_{a,b}/(c,c) = N_{b,-c}/(a,a) = -N_{-b,c}/(a,a)
            q = Fraction(-norm[c] * N[neg[b], c], norm[a])
        else:  # N_{a,b}/(c,c) = N_{-c,a}/(b,b)
            q = Fraction(norm[c] * N[neg[c], a], norm[b])
        return _exact(q, roots, a, b)

    for g in range(npos):
        special = [(x, z) for x in range(g)
                   if (z := sums[g].get(neg[x])) is not None and x < z < npos]
        if not special:
            continue
        alpha, beta = special[0]
        top = _string_below(sums, neg, alpha, beta) + 1
        N[alpha, beta], N[beta, alpha] = top, -top
        for xi, zeta in special[1:]:
            # N_{xi,zeta} N_{-alpha,-beta}/(gamma,gamma)
            #   + N_{zeta,-alpha} N_{xi,-beta}/(zeta-alpha,zeta-alpha)
            #   + N_{-alpha,xi} N_{zeta,-beta}/(xi-alpha,xi-alpha) = 0,
            # a term dropped when its sum is not a root
            q = Fraction(0)
            d = sums[zeta].get(neg[alpha])
            if d is not None:
                q += Fraction(const(zeta, neg[alpha]) * const(xi, neg[beta]), norm[d])
            d = sums[xi].get(neg[alpha])
            if d is not None:
                q += Fraction(const(neg[alpha], xi) * const(zeta, neg[beta]), norm[d])
            v = _exact(q * norm[g] / top, roots, xi, zeta)
            N[xi, zeta], N[zeta, xi] = v, -v
    out = {(a, b): const(a, b) for a, row in enumerate(sums) for b in row}
    _check_constants(rd, out)
    return out


def _check_constants(rd: RootDatum, N):
    """Raise VerificationError, naming the roots, unless the constants N
    (as `structure_constants` returns them) are antisymmetric, have
    |N_{a,b}| = p + 1, satisfy N_{a,b} h_c + N_{b,c} h_a + N_{c,a} h_b = 0
    for a + b + c = 0, and satisfy Jacobi on every root triple whose sum is
    a root."""
    roots = rd.roots
    sums = _root_sums(rd)
    npos = len(rd.pos_roots)
    neg = _negation(npos)
    coroot = _coroots(rd)
    pairs = rd.pairings
    for (a, b), v in N.items():
        if abs(v) != _string_below(sums, neg, a, b) + 1:
            raise VerificationError(f"|N| != p + 1 at {(roots[a], roots[b])}")
        if N[b, a] != -v:
            raise VerificationError(f"N is not antisymmetric at {(roots[a], roots[b])}")
    for (a, b), v in N.items():
        c = neg[sums[a][b]]
        if any(v * x + N[b, c] * y + N[c, a] * z
               for x, y, z in zip(coroot[c], coroot[a], coroot[b])):
            raise VerificationError(
                f"coroot relation fails at {(roots[a], roots[b], roots[c])}")

    row_of = [{} for _ in roots]  # row_of[a][b] = N_{a,b}
    for (a, b), v in N.items():
        row_of[a][b] = v

    def pairing(z, x):  # <z, x-check>
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
                j = pairing(z, x) if s is None else nx[y] * row_of[s][z]
                yz = sy.get(z)
                if yz is not None:
                    j += ny[z] * row_of[yz][x]
                elif z == neg[y]:
                    j += pairing(x, y)
                zx = sums[z].get(x)
                if zx is not None:
                    j += row_of[z][x] * row_of[zx][y]
                elif x == neg[z]:
                    j += pairing(y, z)
                if j:
                    raise VerificationError(
                        f"Jacobi fails at {(roots[x], roots[y], roots[z])}")


def _coroots(rd: RootDatum):
    """The coroots of rd.roots in simple-coroot coordinates, in that order."""
    return rd.coroots + tuple(tuple(-c for c in x) for x in rd.coroots)


def _gl_root_interval(root):
    """(i, j) with root = e_i - e_j, 0-based, from simple-root coords."""
    support = [k for k, c in enumerate(root) if c]
    if all(root[k] > 0 for k in support):
        return support[0], support[-1] + 1
    return support[-1] + 1, support[0]


class ChevalleyAlgebra:
    def __init__(self, rd: RootDatum, field=QQ):
        h = coxeter_number(rd)
        if getattr(field, "p", None) is not None and field.p <= h:
            raise ValueError(f"need p > h = {h}")
        self.rd = rd
        self.field = field
        self.h = h
        self.npos = len(rd.pos_roots)
        self.ncartan = rd.rank
        self.dim = 2 * self.npos + self.ncartan
        self.basis_roots = list(rd.roots)  # index -> root, first 2*npos slots
        self.root_index = {a: i for i, a in enumerate(self.basis_roots)}
        self._cache = {}
        self._build_table()
        self._build_kappa()

    # -- construction ----------------------------------------------------

    def _build_table(self):
        """table[i][j] = {k: c} with [b_i, b_j] = sum c b_k, for the pairs
        with [b_i, b_j] != 0: the structure constants indexed by the first
        argument, so ad_{b_i} is the single dict table[i]."""
        rd = self.rd
        table = [{} for _ in range(self.dim)]

        def add(i, j, k, c):
            if c:
                row = table[i].setdefault(j, {})
                row[k] = row.get(k, 0) + c

        if rd.series == "GL":
            ij = {a: _gl_root_interval(a) for a in self.basis_roots}
            for a, ia in enumerate(self.basis_roots):
                i1, j1 = ij[ia]
                for b, ib in enumerate(self.basis_roots):
                    i2, j2 = ij[ib]
                    s = _vadd(ia, ib)
                    if s in self.root_index:
                        k = self.root_index[s]
                        if j1 == i2:
                            add(a, b, k, 1)
                        if j2 == i1:
                            add(a, b, k, -1)
                    elif all(c == 0 for c in s):
                        add(a, b, self.cartan_index(i1), 1)
                        add(a, b, self.cartan_index(j1), -1)
            for i in range(rd.rank):
                hi = self.cartan_index(i)
                for b, ib in enumerate(self.basis_roots):
                    i2, j2 = ij[ib]
                    c = (1 if i == i2 else 0) - (1 if i == j2 else 0)
                    add(hi, b, b, c)
                    add(b, hi, b, -c)
        else:
            N = structure_constants(rd)
            neg = _negation(self.npos)
            for a, (row, coroot) in enumerate(zip(_root_sums(rd), _coroots(rd))):
                for b, s in row.items():
                    add(a, b, s, N[a, b])
                for i, ci in enumerate(coroot):
                    add(a, neg[a], self.cartan_index(i), ci)
            pairs = rd.pairings
            for i in range(rd.n):
                hi = self.cartan_index(i)
                for b, t in enumerate(pairs):
                    add(hi, b, b, t[i])
                    add(b, hi, b, -t[i])
        self.table = table

    def _build_kappa(self):
        """kappa_rows[i] = {j: kappa(b_i, b_j)} over the nonzero values.

        ad b_i ad b_j moves weights by wt(b_i) + wt(b_j), so its trace can
        be nonzero only when that sum is 0: on the pairs (e_a, e_{-a}) and
        on the Cartan block.  The same holds for the matrix trace form."""
        rd = self.rd
        npos, cartan = self.npos, range(2 * self.npos, self.dim)
        neg = _negation(npos)
        rows = [{} for _ in range(self.dim)]
        if rd.series == "GL":
            # matrix trace form
            for i in range(2 * npos):
                rows[i][neg[i]] = Fraction(1)
            for i in cartan:
                rows[i][i] = Fraction(1)
        else:
            # Killing form / 2h: tr(ad b_i ad b_j), from the sparse constants
            def trace(i, j):
                ad_j = self.table[j]
                acc = 0
                for k, row in self.table[i].items():
                    for l, c in row.items():
                        col = ad_j.get(l)
                        if col:
                            acc += c * col.get(k, 0)
                return Fraction(acc, 2 * self.h)

            pairs = [(i, neg[i]) for i in range(npos)]
            pairs += [(i, j) for i in cartan for j in cartan if i <= j]
            for i, j in pairs:
                g = trace(i, j)
                if g:
                    rows[i][j] = rows[j][i] = g
        self.kappa_rows = rows

    # -- basic vectors ----------------------------------------------------

    def cartan_index(self, i):
        return 2 * self.npos + i

    def zero(self):
        z = self.field(0)
        return [z] * self.dim

    def E(self, root):
        v = self.zero()
        v[self.root_index[tuple(root)]] = self.field(1)
        return v

    # -- operations --------------------------------------------------------

    def bracket(self, x, y):
        out = self.zero()
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, row in self.table[i].items():
                yj = y[j]
                if yj:
                    prod = xi * yj
                    for k, c in row.items():
                        out[k] = out[k] + prod * c
        return out

    def kappa(self, x, y):
        acc = self.field(0)
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, g in self.kappa_rows[i].items():
                if y[j]:
                    acc = acc + xi * y[j] * g
        return acc

    def height_of_index(self, i):
        if i >= 2 * self.npos:
            return 0
        return self.rd.height(self.basis_roots[i])

    # -- GL matrix model ---------------------------------------------------

    def _require_gl(self):
        if self.rd.series != "GL":
            raise ValueError(f"the matrix model needs GL_n, not {self.rd.series}")

    def matrix_of(self, x):
        self._require_gl()
        n = self.rd.rank
        m = [[self.field(0)] * n for _ in range(n)]
        for idx, c in enumerate(x):
            if not c:
                continue
            if idx < 2 * self.npos:
                i, j = _gl_root_interval(self.basis_roots[idx])
                m[i][j] = m[i][j] + c
            else:
                i = idx - 2 * self.npos
                m[i][i] = m[i][i] + c
        return m

    def from_matrix(self, m):
        self._require_gl()
        x = self.zero()
        for idx, a in enumerate(self.basis_roots):
            i, j = _gl_root_interval(a)
            x[idx] = self.field(m[i][j])
        for i in range(self.rd.rank):
            x[self.cartan_index(i)] = self.field(m[i][i])
        return x


@lru_cache(maxsize=None)
def build_algebra(rd: RootDatum, field=QQ) -> ChevalleyAlgebra:
    return ChevalleyAlgebra(rd, field)


class GradedSubspace(Record):
    _fields = ("r", "basis")

    def __init__(self, r: int, basis: list):
        self.r = r
        self.basis = basis  # list of coordinate vectors

    @property
    def dim(self):
        return len(self.basis)


# ---------------------------------------------------------------------------
# Principal sl2 and gradings.

def principal_sl2(alg: ChevalleyAlgebra):
    """(N^-, H, N^+) with H = 2 rho-check, [N^+, N^-] = H, [H, N^pm] = pm 2.

    Built and verified once per algebra; every call returns fresh lists.
    """
    sl2 = alg._cache.get("sl2")
    if sl2 is None:
        sl2 = alg._cache["sl2"] = tuple(tuple(v) for v in _build_principal_sl2(alg))
    return tuple(list(v) for v in sl2)


def _build_principal_sl2(alg: ChevalleyAlgebra):
    rd = alg.rd
    n = rd.n
    # c solving sum_i c_i <alpha_j, coroot_i> = 2 for all j
    A = [[Fraction(rd.cartan[i][j]) for i in range(n)] for j in range(n)]
    c = solve(A, [Fraction(2)] * n)
    if c is None or any(x.denominator != 1 for x in c):
        raise VerificationError("2 rho-check is not an integral coroot combination")
    c = [int(x) for x in c]
    nminus = alg.zero()
    nplus = alg.zero()
    H = alg.zero()
    for i in range(n):
        simple = tuple(1 if j == i else 0 for j in range(n))
        nminus[alg.root_index[_vneg(simple)]] = alg.field(1)
        nplus[alg.root_index[simple]] = alg.field(c[i])
    if rd.series == "GL":
        prev = 0
        for i in range(rd.rank):
            ci = c[i] if i < n else 0
            H[alg.cartan_index(i)] = alg.field(ci - prev)
            prev = ci
    else:
        for i in range(n):
            H[alg.cartan_index(i)] = alg.field(c[i])
    if alg.bracket(nplus, nminus) != H:
        raise VerificationError("[N+, N-] != 2 rho-check")
    two = alg.field(2)
    if alg.bracket(H, nplus) != [two * x for x in nplus]:
        raise VerificationError("[H, N+] != 2 N+")
    if alg.bracket(H, nminus) != [-(two * x) for x in nminus]:
        raise VerificationError("[H, N-] != -2 N-")
    return nminus, H, nplus


def height_piece(alg: ChevalleyAlgebra, r: int) -> GradedSubspace:
    """g(r): root spaces of height r; the Cartan when r = 0."""
    h = alg.h
    if not (1 - h <= r <= h - 1):
        raise ValueError("height out of range")
    basis = []
    if r == 0:
        for i in range(alg.ncartan):
            v = alg.zero()
            v[alg.cartan_index(i)] = alg.field(1)
            basis.append(v)
    else:
        for a in alg.basis_roots:
            if alg.rd.height(a) == r:
                basis.append(alg.E(a))
    return GradedSubspace(r, basis)


def grading_piece(alg: ChevalleyAlgebra, r: int) -> GradedSubspace:
    """Cyclic piece g_r = g(r) + g(r-h); g_0 = g(0) = t."""
    h = alg.h
    if not (0 <= r <= h - 1):
        raise ValueError("cyclic degree out of range")
    basis = list(height_piece(alg, r).basis)
    if r != 0:
        basis += height_piece(alg, r - h).basis
    return GradedSubspace(r, basis)


def x_minus1(alg: ChevalleyAlgebra):
    x = alg._cache.get("x_minus1")
    if x is None:
        nminus, _, _ = principal_sl2(alg)
        i = alg.root_index[alg.rd.theta]
        nminus[i] = nminus[i] + alg.field(1)
        x = alg._cache["x_minus1"] = tuple(nminus)
    return list(x)


def _combine(alg: ChevalleyAlgebra, coeffs, basis):
    """sum_k coeffs[k] basis[k], summed over the nonzero coefficients and
    the nonzero basis entries only."""
    v = alg.zero()
    for c, b in zip(coeffs, basis):
        if c:
            for i, bi in enumerate(b):
                if bi:
                    v[i] = v[i] + c * bi
    return v


def _ad_kernel(alg: ChevalleyAlgebra, x, basis):
    """Basis of {v in span(basis) : [x, v] = 0}."""
    if not basis:
        return []
    rows = [alg.bracket(x, v) for v in basis]
    # kernel of the coefficient-space map c -> sum c_i [x, v_i]
    cols = [[row[i] for row in rows] for i in range(alg.dim)]
    return [_combine(alg, coeffs, basis) for coeffs in nullspace(cols, alg.field(1))]


def centralizer_z(alg: ChevalleyAlgebra):
    """z_r = ker(ad_{X_{-1}}) cap g_r for r = 0..h-1, as graded pieces.

    Computed once per algebra; every call returns fresh pieces.
    """
    zs = alg._cache.get("z")
    if zs is None:
        x = x_minus1(alg)
        zs = alg._cache["z"] = tuple(
            tuple(tuple(v) for v in _ad_kernel(alg, x, grading_piece(alg, r).basis))
            for r in range(alg.h)
        )
    return [GradedSubspace(r, [list(v) for v in basis]) for r, basis in enumerate(zs)]


def a_subspace(alg: ChevalleyAlgebra, r: int, mu: Coweight = None) -> GradedSubspace:
    """a_r = [g(r-1-h), N^+]; zero at r = 1 since g(-h) = 0.

    With mu, returns a_r^mu = Ad_{w_P}(a_r) through the normalized
    representative.  (The space a itself only sums a_r over r <= ceil(h/2).)
    Computed once per (algebra, r, mu); every call returns a fresh basis.
    """
    h = alg.h
    if not 1 <= r <= h - 1:
        raise ValueError("r out of range")
    key = ("a", r, None if mu is None else tuple(mu.coords))
    basis = alg._cache.get(key)
    if basis is None:
        _, _, nplus = principal_sl2(alg)
        basis = []
        if r >= 2:
            src = height_piece(alg, r - 1 - h).basis
            rows = [alg.bracket(v, nplus) for v in src]
            red, pivots = rref(rows)
            basis = [red[i] for i in range(len(pivots))]
        if mu is not None and basis:
            cols = _wP_columns(alg, mu)
            basis = [_apply_columns(cols, v, alg.field(0)) for v in basis]
        # sparse: these bases are mostly zeros, and every type keeps one per (r, mu)
        basis = alg._cache[key] = tuple(tuple((i, c) for i, c in enumerate(v) if c) for v in basis)
    out = []
    for entries in basis:
        v = alg.zero()
        for i, c in entries:
            v[i] = c
        out.append(v)
    return GradedSubspace(r, out)


def p_minus_project(alg: ChevalleyAlgebra, v):
    """Component of v in negative heights."""
    out = alg.zero()
    for i, c in enumerate(v):
        if c and alg.height_of_index(i) < 0:
            out[i] = c
    return out


def p_minus_bijective(alg: ChevalleyAlgebra, r: int) -> bool:
    """p_-: z_r -> ker(ad_{N^-}|g(r-h)) is an isomorphism."""
    if not (1 <= r <= alg.h - 1):
        raise ValueError("r out of range")
    zr = centralizer_z(alg)[r]
    nminus, _, _ = principal_sl2(alg)
    tgt_basis = height_piece(alg, r - alg.h).basis
    # kernel of ad_{N^-} restricted to g(r-h)
    rows = [alg.bracket(nminus, v) for v in tgt_basis]
    ker_dim = len(tgt_basis) - (rank(rows) if rows else 0)
    proj = [p_minus_project(alg, v) for v in zr.basis]
    proj_rank = rank(proj) if proj else 0
    if proj_rank != len(zr.basis) or proj_rank != ker_dim:
        return False
    return not any(any(alg.bracket(nminus, v)) for v in proj)


def u_mu_piece(alg: ChevalleyAlgebra, mu: Coweight, r: int) -> GradedSubspace:
    phi_u, _ = u_mu_roots(alg.rd, mu)
    basis = [alg.E(a) for a in phi_u if alg.rd.height(a) % alg.h == r % alg.h]
    return GradedSubspace(r, basis)


def _support(v) -> set:
    return {i for i, c in enumerate(v) if c}


def decomposition_check(alg: ChevalleyAlgebra, mu: Coweight, r: int) -> bool:
    """g_r = z_r + a_r^mu + u_{mu,r}, checked by dimension, support and rank.

    g_r is spanned by unit vectors, and so is u_{mu,r} (distinct root
    vectors E_alpha).  So the sum is g_r exactly when every vector lies in
    g_r and z_r + a_r^mu, read on the coordinates of g_r that no u_{mu,r}
    vector covers, has full rank there.
    """
    if not (1 <= r <= alg.h - 1):
        raise ValueError("r out of range")
    zr = centralizer_z(alg)[r]
    ar = a_subspace(alg, r, mu)
    ur = u_mu_piece(alg, mu, r)
    gr = grading_piece(alg, r)
    if zr.dim + ar.dim + ur.dim != gr.dim:
        return False
    coords = set().union(*map(_support, gr.basis))
    rest = zr.basis + ar.basis
    if any(not _support(v) <= coords for v in rest + ur.basis):
        return False
    free = sorted(coords.difference(*map(_support, ur.basis)))
    if len(free) != len(rest):  # some u_{mu,r} vector is not a unit vector
        return False
    return not rest or rank([[v[i] for i in free] for v in rest]) == len(free)


# ---------------------------------------------------------------------------
# Exponentials and the w_P representative.

def _exp_ad_basis(alg: ChevalleyAlgebra, i: int, t: int, v):
    """exp(t ad b_i) v for t = +-1 and an integral sparse vector v
    ({index: int}), over the integers.

    The series sum_k t^k ad_{b_i}^k(v)/k! is finite since b_i is a root
    vector, and each term is integral on the Chevalley lattice (Kostant's
    Z-form); each ad_{b_i} step reads the table entries [b_i, b_j].
    """
    ad_i = alg.table[i]
    out = dict(v)
    term = v
    k = 0
    while term:
        k += 1
        if k > alg.dim:
            raise ValueError("ad of a root vector is not nilpotent")
        nxt = {}
        for j, c in term.items():
            for l, d in ad_i.get(j, {}).items():
                nxt[l] = nxt.get(l, 0) + c * d
        term = {}
        for l, c in nxt.items():
            q, rem = divmod(t * c, k)
            if rem:
                raise VerificationError("ad_e^k/k! is not integral")
            if q:
                term[l] = q
                out[l] = out.get(l, 0) + q
    return {l: c for l, c in out.items() if c}


def _apply_columns(cols, v, zero):
    """M v for M given by sparse columns ((row, entry), ...)."""
    out = [zero] * len(cols)
    for j, vj in enumerate(v):
        if vj:
            for k, c in cols[j]:
                out[k] = out[k] + c * vj
    return out


def _simple_reflection_ad(alg: ChevalleyAlgebra, i: int):
    """Ad lift exp(ad e) exp(-ad f) exp(ad e) of s_i, as sparse integer
    columns ((row, entry), ...) in row order.

    Column j is the image of b_j, built from brackets; cached per algebra.
    The entries are integers for every field, since the lift preserves the
    Chevalley lattice.
    """
    key = ("refl", i)
    cols = alg._cache.get(key)
    if cols is None:
        simple = tuple(1 if j == i else 0 for j in range(alg.rd.n))
        e = alg.root_index[simple]
        f = alg.root_index[_vneg(simple)]
        cols = []
        for j in range(alg.dim):
            v = {j: 1}
            for idx, t in ((e, 1), (f, -1), (e, 1)):
                v = _exp_ad_basis(alg, idx, t, v)
            cols.append(tuple(sorted(v.items())))
        cols = alg._cache[key] = tuple(cols)
    return cols


def _wP_columns(alg: ChevalleyAlgebra, mu: Coweight):
    """Sparse columns of the torus-corrected w_P lift; cached per algebra."""
    key = ("wP", mu.coords)
    cols = alg._cache.get(key)
    if cols is not None:
        return cols
    rd = alg.rd
    one = alg.field(1)
    zero = alg.field(0)
    # M = n_{i_1} ... n_{i_k} over the integers: column j of M N is M
    # applied to column j of N
    M = tuple(((j, 1),) for j in range(alg.dim))
    for i in weyl_wP(rd, mu).word:
        out = []
        for col in _simple_reflection_ad(alg, i):
            if len(col) == 1:  # every root column: M[k] times its sign
                (k, c), = col
                out.append(M[k] if c == 1 else tuple((r, m * c) for r, m in M[k]))
                continue
            acc = {}
            for k, c in col:
                for r, m in M[k]:
                    acc[r] = acc.get(r, 0) + m * c
            out.append(tuple((r, x) for r, x in acc.items() if x))
        M = tuple(out)
    x = x_minus1(alg)
    v = _apply_columns(M, x, zero)
    # v is supported on -Delta and theta; solve the torus correction
    support = {}
    for i, c in enumerate(v):
        if c:
            if i >= 2 * alg.npos:
                raise VerificationError("w_P lift moves X_{-1} into the Cartan")
            support[alg.basis_roots[i]] = c
    simples = [tuple(1 if j == i else 0 for j in range(rd.n)) for i in range(rd.n)]
    if set(support) != {_vneg(s) for s in simples} | {rd.theta}:
        raise VerificationError("w_P lift does not map X_{-1} onto -Delta and theta")
    xs = [support[_vneg(s)] for s in simples]  # alpha_i(t) = coeff at -alpha_i
    theta_t = one
    for xi, ci in zip(xs, rd.theta):
        for _ in range(ci):
            theta_t = theta_t * xi
    if theta_t * support[rd.theta] != one:
        raise VerificationError("torus correction infeasible")
    diag = []
    for i in range(alg.dim):
        b = one
        if i < 2 * alg.npos:
            for xi, ci in zip(xs, alg.basis_roots[i]):
                for _ in range(abs(ci)):
                    b = b * xi if ci > 0 else b / xi
        diag.append(b)
    # the corrected lift, with entries in the field
    M = tuple(tuple((r, y) for r, c in col if (y := diag[r] * c)) for col in M)
    if _apply_columns(M, x, zero) != x:
        raise VerificationError("Ad of the w_P lift does not fix X_{-1}")
    alg._cache[key] = M
    return M


def wP_representative(alg: ChevalleyAlgebra, mu: Coweight):
    """Ad-matrix of a lift of w_P, torus-corrected to fix X_{-1} exactly.

    Raises VerificationError if the lift cannot be corrected to fix X_{-1}.
    Returns a fresh dense matrix; the sparse columns are cached.
    """
    zero = alg.field(0)
    M = [[zero] * alg.dim for _ in range(alg.dim)]
    for j, col in enumerate(_wP_columns(alg, mu)):
        for k, c in col:
            M[k][j] = c
    return M


# ---------------------------------------------------------------------------
# Relevance checks (linear and quadratic).

def relevance_linear_kernel(alg: ChevalleyAlgebra, r: int) -> bool:
    """{e in a_r : kappa([e, N^-], g(h+1-r)) = 0} is zero."""
    if not (2 <= r <= (alg.h + 1) // 2):
        raise ValueError("r out of range")
    ar = a_subspace(alg, r)
    if ar.dim == 0:
        return True
    nminus, _, _ = principal_sl2(alg)
    tgt = height_piece(alg, alg.h + 1 - r).basis
    rows = []
    for v in ar.basis:
        w = alg.bracket(v, nminus)
        rows.append([alg.kappa(w, b) for b in tgt])
    return rank(rows) == ar.dim


def relevance_quadratic_bruteforce(alg: ChevalleyAlgebra, mu: Coweight = None,
                                   budget: int = 10 ** 7):
    """All e in a(F_p) with kappa([e,N^-] + [e,[e,E_theta]]/2, u_{>=1+h/2}) = 0.

    The w_P-conjugated condition for nonzero minuscule mu reduces to the
    same equation, so the enumeration is mu-independent.
    """
    p = alg.field.p
    if p is None:
        raise ValueError("brute force needs a finite field")
    h = alg.h
    basis = []
    for r in range(2, (h + 1) // 2 + 1):
        basis.extend(a_subspace(alg, r).basis)
    if p ** len(basis) > budget:
        raise ValueError("search space exceeds budget")
    nminus, _, _ = principal_sl2(alg)
    etheta = alg.E(alg.rd.theta)
    cut = h // 2 + 1
    tgt = [alg.E(a) for a in alg.rd.pos_roots if alg.rd.height(a) >= cut]
    half = alg.field(1) / alg.field(2)
    sols = []
    coeffs = [alg.field(0)] * len(basis)

    def rec(i, e):
        if i == len(basis):
            w = alg.bracket(e, nminus)
            q = alg.bracket(e, alg.bracket(e, etheta))
            expr = [a + half * b for a, b in zip(w, q)]
            if all(not alg.kappa(expr, t) for t in tgt):
                sols.append(tuple(coeffs))
            return
        for c in range(p):
            coeffs[i] = alg.field(c)
            e2 = [a + coeffs[i] * b for a, b in zip(e, basis[i])]
            rec(i + 1, e2)

    rec(0, alg.zero())
    return sols


# ---------------------------------------------------------------------------
# The polynomial graph of p_-(S(1)).

class S1Graph(Record):
    _fields = ("phi_s", "var_names", "lambda_names", "p_minus", "lambda_exprs", "graphs")

    def __init__(self, phi_s: list, var_names: list, lambda_names: list, p_minus: dict,
                 lambda_exprs: dict, graphs: dict):
        self.phi_s = phi_s  # roots in Phi_S, aligned with var names x0, x1, ...
        self.var_names = var_names
        self.lambda_names = lambda_names
        self.p_minus = p_minus  # root -> MultiPoly in the lambda variables
        self.lambda_exprs = lambda_exprs  # lambda name -> MultiPoly in the x variables
        self.graphs = graphs  # root (not in Phi_S) -> MultiPoly in the x variables


def s1_graph(alg: ChevalleyAlgebra) -> S1Graph:
    """Graph description of p_-(S(1)) in I(1)/I(1+h/2).

    Computes p_-(exp(sum lambda_r v_r)) = proj_{<= -h/2} of
    sum_j (-1)^j/(j+1)! ad_{v+}^j (v-), picks Phi_S per the exponent recipe
    and inverts the triangular change of variables exactly.
    """
    from .arith import MultiPoly

    rd = alg.rd
    h = alg.h
    field = alg.field
    nminus, _, _ = principal_sl2(alg)
    zs = centralizer_z(alg)

    # one slot per exponent <= h/2, doubled at h/2 in type D even rank
    slots = []  # (r, Y_r vector, v_r lift)
    for r in range(1, h // 2 + 1):
        ys = _ad_kernel(alg, nminus, height_piece(alg, r - h).basis)
        if not ys:
            continue
        if len(ys) != len(zs[r].basis):
            raise VerificationError(f"dim ker ad N^- at height {r - h} != dim z_{r}")
        for y in ys:
            # lift through p_-|z_r
            proj = [p_minus_project(alg, v) for v in zs[r].basis]
            cols = [[pv[i] for pv in proj] for i in range(alg.dim)]
            sol = solve(cols, y)
            if sol is None:
                raise VerificationError(f"no lift of a height-{r - h} vector through p_-|z_{r}")
            slots.append((r, y, _combine(alg, sol, zs[r].basis)))

    lam = [f"l{i}" for i in range(len(slots))]
    xs = [f"x{i}" for i in range(len(slots))]
    allvars = tuple(lam + xs)

    def mp_var(name):
        return MultiPoly.var(allvars, name, field(1))

    zero = MultiPoly(allvars)
    vminus = [zero] * alg.dim
    vplus = [zero] * alg.dim
    for name, (r, y, v) in zip(lam, slots):
        lv = mp_var(name)
        for i in range(alg.dim):
            if y[i]:
                vminus[i] = vminus[i] + lv * y[i]
            up = v[i] - y[i]
            if up:
                vplus[i] = vplus[i] + lv * up

    # components above height -h/2 can never come back down, so drop them
    def cut(vec):
        out = list(vec)
        for i in range(alg.dim):
            if out[i] and 2 * alg.height_of_index(i) > -h:
                out[i] = zero
        return out

    # Z = sum_j (-1)^j/(j+1)! ad_{v+}^j (v-)
    Z = [zero] * alg.dim
    term = cut(vminus)
    j = 0
    while any(term):
        fact = field(1)
        for i in range(2, j + 2):
            fact = fact * i
        if not fact:
            raise ValueError("BCH denominator not invertible")
        coeff = (field(1) if j % 2 == 0 else -field(1)) / fact
        Z = [z + t * coeff for z, t in zip(Z, term)]
        j += 1
        if j > h:
            break
        term = cut(alg.bracket(vplus, term))

    cut_roots = [a for a in rd.roots if 2 * rd.height(a) <= -h]
    p_minus = {a: Z[alg.root_index[a]] for a in cut_roots}

    # Phi_S: one beta_r per slot; invertible 2x2 block at a doubled exponent
    phi_s = []
    by_r = {}
    for idx, (r, y, v) in enumerate(slots):
        by_r.setdefault(r, []).append(idx)
    for r, idxs in sorted(by_r.items()):
        cands = [a for a in rd.roots if rd.height(a) == r - h]
        if len(idxs) == 1:
            y = slots[idxs[0]][1]
            beta = next(a for a in cands if y[alg.root_index[a]])
            phi_s.append((idxs[0], beta))
        else:
            if len(idxs) != 2:
                raise VerificationError(f"exponent {r} has multiplicity {len(idxs)}")
            found = None
            for i1, b1 in enumerate(cands):
                for b2 in cands[i1 + 1:]:
                    m = [
                        [slots[k][1][alg.root_index[b]] for b in (b1, b2)]
                        for k in idxs
                    ]
                    if m[0][0] * m[1][1] - m[0][1] * m[1][0]:
                        found = (b1, b2)
                        break
                if found:
                    break
            if not found:
                raise VerificationError("no invertible coefficient pair")
            phi_s.append((idxs[0], found[0]))
            phi_s.append((idxs[1], found[1]))
    phi_s.sort(key=lambda t: t[0])
    phi_s_roots = [b for _, b in phi_s]

    # invert the triangular change of variables lambda_beta = f_beta(lambda)
    lam_exprs = {}
    for r, idxs in sorted(by_r.items()):
        if len(idxs) == 1:
            i = idxs[0]
            beta = phi_s_roots[i]
            f = p_minus[beta]
            c = f.coefficient(lam[i])
            if not c:
                raise VerificationError(f"zero linear pivot for {lam[i]}")
            rest = f - mp_var(lam[i]) * c
            lam_exprs[lam[i]] = (mp_var(xs[i]) - rest.substitute(lam_exprs)) / c
        else:
            i1, i2 = idxs
            b1, b2 = phi_s_roots[i1], phi_s_roots[i2]
            f1, f2 = p_minus[b1], p_minus[b2]
            a11, a12 = f1.coefficient(lam[i1]), f1.coefficient(lam[i2])
            a21, a22 = f2.coefficient(lam[i1]), f2.coefficient(lam[i2])
            det = a11 * a22 - a12 * a21
            if not det:
                raise VerificationError(f"singular linear block for {lam[i1]}, {lam[i2]}")
            g1 = (f1 - mp_var(lam[i1]) * a11 - mp_var(lam[i2]) * a12).substitute(lam_exprs)
            g2 = (f2 - mp_var(lam[i1]) * a21 - mp_var(lam[i2]) * a22).substitute(lam_exprs)
            r1 = mp_var(xs[i1]) - g1
            r2 = mp_var(xs[i2]) - g2
            lam_exprs[lam[i1]] = (r1 * a22 - r2 * a12) / det
            lam_exprs[lam[i2]] = (r2 * a11 - r1 * a21) / det

    graphs = {}
    for a in cut_roots:
        poly = p_minus[a].substitute(lam_exprs)
        if a in phi_s_roots:
            if poly != mp_var(xs[phi_s_roots.index(a)]):
                raise VerificationError("inversion failed")
        else:
            graphs[a] = poly
    return S1Graph(
        phi_s=phi_s_roots,
        var_names=xs,
        lambda_names=lam,
        p_minus=p_minus,
        lambda_exprs=lam_exprs,
        graphs=graphs,
    )


def s1_graph_check(alg: ChevalleyAlgebra, graph: S1Graph, rng, samples: int = 200) -> bool:
    """Random lambda-samples: the graph polynomials reproduce p_-(s)."""
    p = alg.field.p
    if p is None:
        raise ValueError("sampling needs a finite field")
    m = len(graph.lambda_names)
    for _ in range(samples):
        lam_vals = {n: alg.field(rng.randrange(p)) for n in graph.lambda_names}
        vals = {a: f.evaluate(lam_vals) for a, f in graph.p_minus.items()}
        xvals = {
            x: vals[beta] for x, beta in zip(graph.var_names, graph.phi_s)
        }
        for a, poly in graph.graphs.items():
            if poly.evaluate(xvals) != vals[a]:
                return False
        # the inverse change of variables recovers lambda
        for n in graph.lambda_names:
            if graph.lambda_exprs[n].evaluate(xvals) != lam_vals[n]:
                return False
    return True
