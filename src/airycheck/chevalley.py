"""Chevalley-basis Lie algebras with exact structure constants.

Basis order: E_alpha for the positive roots (height/lex order), then E_{-alpha}
in the matching order, then a Cartan basis (simple coroots; for GL_n the
diagonal matrix units).  So the indices fall in three blocks: the positive
roots at [0, npos), the negative roots at [npos, 2 npos), the Cartan at
[2 npos, dim).  Structure constants are integers; scalars live in Q or F_p
with p > h.

One cached table per algebra, `_heights`, gives the height of every basis
index (0 on the Cartan).  The graded pieces g(r), g_r and u_{mu,r} are spanned
by basis vectors, so each is the cached tuple of their indices, read from that
table; only the spanned pieces z_r and a_r^mu are `GradedSubspace` records of
dense vectors, each with the support it reads off its basis when built.
Where a check takes ad or kappa against a basis vector b_j it
reads the tables: ad_{b_j} is the table row `table[j]`, and kappa(w, b_j) sums
`kappa_rows[j]`, which is symmetric; kappa is read only through kappa_rows.
N^- is read at its support, the cached `_minus_simples`: [N^-, v] is the sum
of the [b_j, v] there (`_ad_nminus`).  Checks are never cached: only the
pieces and tables they read are.

The cold builds work on the Chevalley lattice, where X_{-1}, N^- and N^+
are integral.  z_r (`_ad_kernel`) and a_r read the [b_j, X_{-1}] and
[b_j, N^+] as int rows off the table (`_ad_int_rows`) and row-reduce them
on ints (`linalg.nullspace` and `linalg._reduce`), and `principal_sl2`
checks its relations on such rows; field elements are made only for the
results returned.  The w_P lift (`wP_representative`) is one cached set of
sparse columns, each listing its rows in ascending order, read off the
data: its Ad is unique once it fixes X_{-1}, so each root column is one
sign at w_P of its root, the signs set to 1 on -Delta and theta and carried
to every other root by the structure constants, and the Cartan block is
the product of the simple reflections along a reduced word of w_P
(`rootdata.wP_reduced_word`).  `_check_lift` then checks the whole lift:
each root column is +-1 at w_P of its root, the signs respect the
structure constants, and the Cartan block is w_P on the coroots.

Signs are fixed by the extraspecial-pair convention on the height/lex root
order: `structure_constants` derives every other constant from the
extraspecial ones in one pass on ints (the four-root relation, negation
and the zero-sum rule) and checks the result (|N| = p + 1, the coroot
relation and Jacobi, read on the generators e_{+-alpha_i}) before any
algebra is built from it.  GL_n enters as data: `_cartan_data` gives the
constants of its matrix units, a Chevalley basis with their own signs, and
its coroots and pairings on the diagonal, and those constants pass the
same check; every bracket table is then built on one path.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, product

from . import Frozen, Record, VerificationError
from .linalg import _reduce, nullspace, rank, rref, solve
from .rootdata import (
    Coweight,
    RootDatum,
    coxeter_number,
    u_mu_roots,
    weyl_wP,
    wP_reduced_word,
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


@lru_cache(maxsize=None)
def _root_codes(rd: RootDatum):
    """(powers, codes, at): a root x is coded as sum_i x_i B^i, with
    powers[i] = B^i and B > 4 max|x_i|.  The code is linear, and injective
    on sums of two roots, so a root sum is one integer add and the image of
    a root under a linear map is the dot product of its coordinates with
    the codes of the images of the simple roots.  codes[a] is the code of
    rd.roots[a] and at[code] its root index."""
    base = 4 * max(abs(c) for a in rd.pos_roots for c in a) + 1
    powers = tuple(base ** i for i in range(rd.n))
    codes = tuple(sum(map(operator.mul, a, powers)) for a in rd.roots)
    return powers, codes, {x: i for i, x in enumerate(codes)}


@lru_cache(maxsize=None)
def _root_sums(rd: RootDatum):
    """sums[a] = {b: c} for the root indices (in rd.roots) with
    root a + root b = root c, b ascending, by adding root codes."""
    _, code, at = _root_codes(rd)
    return tuple(
        {b: at[x + y] for b, y in enumerate(code) if x + y in at} for x in code
    )


def _exact(num, den, roots, a, b):
    """num / den as an int, or raise naming the pair (a, b)."""
    q, r = divmod(num, den)
    if r:
        raise VerificationError(f"N at {(roots[a], roots[b])} is not integral")
    return q


def _string_below(sums, neg, a, b):
    """p with b - p a a root and b - (p+1) a not, on root indices."""
    p = 0
    cur = sums[b].get(neg[a])
    while cur is not None:
        p += 1
        cur = sums[cur].get(neg[a])
    return p


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
    Every quotient is one exact divmod on ints; a special pair's two terms
    are put over one denominator first.  The result passes
    `_check_constants` before it is returned.
    """
    roots, neg = rd.roots, rd.neg
    sums = _root_sums(rd)
    npos = len(rd.pos_roots)
    norm = [  # (x, x) = sum_j d_j x_j <x, alpha-check_j>, an int
        sum(dj * xj * tj for dj, xj, tj in zip(rd.d, x, t))
        for x, t in zip(roots, rd.pairings)
    ]
    for x, v in zip(roots, norm):
        if v <= 0:
            raise VerificationError(f"(x, x) = {v} is not positive at x = {x}")
    N = {}  # positive pairs, both orders

    def n_ab(a, b):
        if a < npos and b < npos:
            return N[a, b]
        if a >= npos and b >= npos:
            return -n_ab(neg[a], neg[b])
        if a >= npos:
            return -n_ab(b, a)
        # a positive, b negative: the zero-sum triple (a, b, -c)
        c = sums[a][b]
        if c < npos:  # N_{a,b}/(c,c) = N_{b,-c}/(a,a) = -N_{-b,c}/(a,a)
            return _exact(-norm[c] * N[neg[b], c], norm[a], roots, a, b)
        # N_{a,b}/(c,c) = N_{-c,a}/(b,b)
        return _exact(norm[c] * N[neg[c], a], norm[b], roots, a, b)

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
            # a term dropped when its sum is not a root; the kept terms
            # over one denominator, num / den, then N_{xi,zeta} is
            # num (gamma,gamma) / (den top)
            num, den = 0, 1
            d = sums[zeta].get(neg[alpha])
            if d is not None:
                t = n_ab(zeta, neg[alpha]) * n_ab(xi, neg[beta])
                num, den = num * norm[d] + t * den, den * norm[d]
            d = sums[xi].get(neg[alpha])
            if d is not None:
                t = n_ab(neg[alpha], xi) * n_ab(zeta, neg[beta])
                num, den = num * norm[d] + t * den, den * norm[d]
            v = _exact(num * norm[g], den * top, roots, xi, zeta)
            N[xi, zeta], N[zeta, xi] = v, -v
    out = {(a, b): n_ab(a, b) for a, row in enumerate(sums) for b in row}
    _check_constants(rd, out, _coroots(rd), rd.pairings)
    return out


def _check_constants(rd: RootDatum, N, coroot, pairs):
    """Raise VerificationError, naming the roots, unless the constants N
    (as `structure_constants` returns them) are antisymmetric, have
    |N_{a,b}| = p + 1, satisfy N_{a,b} h_c + N_{b,c} h_a + N_{c,a} h_b = 0
    for a + b + c = 0, and satisfy Jacobi.  coroot[a] is h_a and
    pairs[a][i] = <root a, b_i> on a Cartan basis (b_i), both indexed by
    root position.

    Jacobi is checked with a generator as its first argument.  For an
    antisymmetric bracket the Jacobiator J(x, y, z) = [[x, y], z] +
    [[y, z], x] + [[z, x], y] is alternating and satisfies

        [a, J(b,c,d)] - [b, J(a,c,d)] + [c, J(a,b,d)] - [d, J(a,b,c)]
            = J([a,b],c,d) - J([a,c],b,d) + J([a,d],b,c)
              + J([b,c],a,d) - J([b,d],a,c) + J([c,d],a,b),

    so S = {x : J(x, ., .) = 0} is a subalgebra: for a, b in S every term
    but J([a,b],c,d) has an argument in S.  The bracket is antisymmetric
    when N is and coroot is odd under a -> -a.  S holds the Cartan basis
    when pairs is additive over root sums and pairs and coroot are odd
    (ad_h is then a derivation), and S holds every e_beta once it holds the
    e_{+-alpha_i}, when each non-simple positive beta has a positive root
    beta - alpha_i: e_beta is [e_{alpha_i}, e_{beta-alpha_i}] / N with
    N != 0, by induction on the height, and the negative roots likewise.
    These three hypotheses are checked here, so J vanishes everywhere once
    J(e_g, ., .) = 0 for the 2n generators g = +-alpha_i.  J(e_g, e_y, e_z)
    lies in the weight space of g + y + z: on the Cartan (sum 0) it is the
    coroot relation, on a root space the coefficient checked below, and it
    is zero otherwise, and also unless two of g, y, z sum to a root or 0.
    """
    roots, neg = rd.roots, rd.neg
    sums = _root_sums(rd)
    npos = len(rd.pos_roots)
    for (a, b), v in N.items():
        if N[b, a] != -v:
            raise VerificationError(f"N is not antisymmetric at {(roots[a], roots[b])}")
    # with N antisymmetric, |N_{b,a}| = |N_{a,b}|, and p is the same for
    # (a, b) and (b, a) in a root system, so each unordered pair once
    for (a, b), v in N.items():
        if a < b and abs(v) != _string_below(sums, neg, a, b) + 1:
            raise VerificationError(f"|N| != p + 1 at {(roots[a], roots[b])}")
    # The coroot relation of a + b + c = 0 is the same sum in each cyclic
    # order and its negative in the other (N is antisymmetric), so it is
    # checked once, at a < b < c.  h_x is coded as the int sum_i h_x[i] B^i:
    # each |N| = p + 1 <= 4, since a root string has at most four roots, so
    # the relation's entries are at most 12 max|h| < B in size and the code
    # of the sum is 0 only on the zero vector.
    base = 12 * max(abs(t) for h in coroot for t in h) + 1
    hcode = [sum(t * base ** i for i, t in enumerate(h)) for h in coroot]
    for (a, b), v in N.items():
        c = neg[sums[a][b]]
        if a < b < c and v * hcode[c] + N[b, c] * hcode[a] + N[c, a] * hcode[b]:
            raise VerificationError(
                f"coroot relation fails at {(roots[a], roots[b], roots[c])}")

    # pairs[a] coded as the int sum_i pairs[a][i] B^i, with B > 6 max|entry|,
    # so a sum of at most three codes is 0 only on a zero vector
    base = 6 * max(abs(t) for p in pairs for t in p) + 1
    code = [sum(t * base ** i for i, t in enumerate(p)) for p in pairs]
    for a, row in enumerate(sums):
        if code[a] + code[neg[a]] or any(map(operator.add, coroot[a], coroot[neg[a]])):
            raise VerificationError(f"the pairings or the coroots of +-{roots[a]} are not odd")
        for b, c in row.items():
            if code[a] + code[b] != code[c]:
                raise VerificationError(f"the pairings are not additive at {(roots[a], roots[b])}")
    simples = [rd.root_index[a] for a in rd.simple_roots]
    for b in range(npos):
        if b not in simples and all(sums[b].get(neg[i], npos) >= npos for i in simples):
            raise VerificationError(f"{roots[b]} is no simple root plus a positive root")

    row_of = [{} for _ in roots]  # row_of[a][b] = N_{a,b}
    for (a, b), v in N.items():
        row_of[a][b] = v

    def z_on_x(z, x):  # <z, x-check>
        return sum(map(operator.mul, coroot[x], pairs[z]))

    # J(g, y, z) is alternating in (y, z).  Each of its three terms, the
    # coefficient of [[e_u, e_v], e_w] at e_{u+v+w}, is N_{u,v} N_{u+v,w}
    # when u + v is a root, <w, u-check> when v = -u and 0 otherwise
    every = range(len(roots))
    for g in simples + [neg[i] for i in simples]:
        row, ng = sums[g], row_of[g]
        near = {*row, neg[g]}  # the y with g + y a root or 0
        # g + y in Phi or 0: each pair {y, z} once, from its least y in near
        for y in near:
            s = row.get(y)
            sy, ny = sums[y], row_of[y]
            for z in (every if s is None else sums[s]):
                if z == g or (z <= y and z in near):
                    continue
                j = z_on_x(z, g) if s is None else ng[y] * row_of[s][z]
                yz = sy.get(z)
                if yz is not None:
                    j += ny[z] * row_of[yz][g]
                elif z == neg[y]:
                    j += z_on_x(g, y)
                zg = sums[z].get(g)
                if zg is not None:
                    j += row_of[z][g] * row_of[zg][y]
                elif g == neg[z]:
                    j += z_on_x(y, z)
                if j:
                    raise VerificationError(
                        f"Jacobi fails at {(roots[g], roots[y], roots[z])}")
        # neither y nor z in near: J(g, y, z) is [[y, z], g] alone, which is
        # N_{y,z} N_{s,g} != 0 when y + z = s is a root, and <g, y-check>
        # when z = -y
        for s in row:
            for b, z in sums[s].items():
                if neg[b] not in near and z not in near:
                    raise VerificationError(
                        f"Jacobi fails at {(roots[g], roots[neg[b]], roots[z])}")
        for y in range(npos):
            if y not in near and neg[y] not in near and z_on_x(g, y):
                raise VerificationError(
                    f"Jacobi fails at {(roots[g], roots[y], roots[neg[y]])}")


def _coroots(rd: RootDatum):
    """The coroots of rd.roots in simple-coroot coordinates, in that order."""
    return rd.coroots + tuple(tuple(-c for c in x) for x in rd.coroots)


def _gl_root_interval(root):
    """(i, j) with root = e_i - e_j, 0-based, from simple-root coords."""
    support = [k for k, c in enumerate(root) if c]
    if all(root[k] > 0 for k in support):
        return support[0], support[-1] + 1
    return support[-1] + 1, support[0]


@lru_cache(maxsize=None)
def _cartan_data(rd: RootDatum):
    """(N, coroots, pairings) for the bracket table, each indexed by root
    position: N as `structure_constants` gives it, the coroot h_a of each
    root in the Cartan basis, and pairings[a][i] = <root a, b_i> on it.

    The Cartan basis is the simple coroots, and for GL_n the diagonal matrix
    units, where the coroot of e_i - e_j and its pairings are both the
    vector e_i - e_j.  GL_n's matrix units are a Chevalley basis, with
    N_{a,b} = [j_a == i_b] - [j_b == i_a] for a = e_{i_a} - e_{j_a}; they pass
    `_check_constants` like the constants of every other type."""
    if rd.series != "GL":
        return structure_constants(rd), _coroots(rd), rd.pairings
    ij = [_gl_root_interval(a) for a in rd.roots]
    N = {(a, b): (ij[a][1] == ij[b][0]) - (ij[b][1] == ij[a][0])
         for a, row in enumerate(_root_sums(rd)) for b in row}
    coroots = tuple(tuple((k == i) - (k == j) for k in range(rd.rank)) for i, j in ij)
    _check_constants(rd, N, coroots, coroots)
    return N, coroots, coroots


class ChevalleyAlgebra:
    def __init__(self, rd: RootDatum, field=QQ):
        h = coxeter_number(rd)
        if field.p is not None and field.p <= h:
            raise ValueError(f"need p > h = {h}")
        self.rd = rd
        self.field = field
        self.h = h
        self.npos = len(rd.pos_roots)
        self.ncartan = rd.rank
        self.dim = 2 * self.npos + self.ncartan
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

        N, coroots, pairings = _cartan_data(rd)
        for a, (row, coroot) in enumerate(zip(_root_sums(rd), coroots)):
            for b, s in row.items():
                add(a, b, s, N[a, b])
            for i, ci in enumerate(coroot):
                add(a, rd.neg[a], self.cartan_index(i), ci)
        for i in range(rd.rank):
            hi = self.cartan_index(i)
            for b, t in enumerate(pairings):
                add(hi, b, b, t[i])
                add(b, hi, b, -t[i])
        self.table = table

    def _build_kappa(self):
        """kappa_rows[i] = {j: kappa(b_i, b_j)} over the nonzero values.

        ad b_i ad b_j moves weights by wt(b_i) + wt(b_j), so its trace can
        be nonzero only when that sum is 0: on the pairs (e_a, e_{-a}) and
        on the Cartan block.  The same holds for the matrix trace form."""
        rd = self.rd
        npos, cartan, neg = self.npos, range(2 * self.npos, self.dim), rd.neg
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
        v[self.rd.root_index[tuple(root)]] = self.field(1)
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


@lru_cache(maxsize=None)
def build_algebra(rd: RootDatum, field=QQ) -> ChevalleyAlgebra:
    return ChevalleyAlgebra(rd, field)


@lru_cache(maxsize=None)
def _heights(alg: ChevalleyAlgebra):
    """heights[i] = the height of basis index i: the positive roots at
    [0, npos), the negative roots at [npos, 2 npos), both in rd.roots
    order, then the Cartan, of height 0."""
    return tuple(map(alg.rd.height, alg.rd.roots)) + (0,) * alg.ncartan


@lru_cache(maxsize=None)
def _minus_simples(alg: ChevalleyAlgebra):
    """The basis indices of the -alpha_i, in alpha_i order: the support of
    N^-, whose entries there are all 1."""
    rd = alg.rd
    return tuple(rd.neg[rd.root_index[a]] for a in rd.simple_roots)


def _ad_nminus(alg: ChevalleyAlgebra, v):
    """[N^-, v] for a dense v: the sum of the [b_j, v] over the support j of
    N^-, read off the table rows."""
    out = alg.zero()
    for j in _minus_simples(alg):
        _ad_basis(alg, j, v, out)
    return out


def _ad_basis(alg: ChevalleyAlgebra, j, y, out=None):
    """[b_j, y] for the basis vector b_j and a dense y, read off the table
    row of b_j: ad_{b_j} is table[j].  With `out`, a dense vector, [b_j, y]
    is added into it in place and `out` is returned."""
    if out is None:
        out = alg.zero()
    for i, row in alg.table[j].items():
        yi = y[i]
        if yi:
            for k, c in row.items():
                out[k] = out[k] + yi * c
    return out


def _kappa_basis(alg: ChevalleyAlgebra, w, j):
    """kappa(w, b_j) for a dense w and the basis vector b_j, read off
    kappa_rows[j] (kappa is symmetric)."""
    acc = alg.field(0)
    for i, g in alg.kappa_rows[j].items():
        wi = w[i]
        if wi:
            acc = acc + wi * g
    return acc


class GradedSubspace(Frozen):
    """A spanned piece (z_r or a_r^mu): `basis` is a tuple of dense
    coordinate tuples.  `support`, the frozenset of the coordinates where
    some basis vector is nonzero, is read off the basis once, here; it
    takes no part in equality, hashing or printing."""

    _fields = ("basis",)

    def __init__(self, basis: tuple):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "support", frozenset(
            i for v in basis for i in compress(range(len(v)), v)))

    @property
    def dim(self):
        return len(self.basis)


# ---------------------------------------------------------------------------
# Principal sl2 and gradings.

@lru_cache(maxsize=None)
def principal_sl2(alg: ChevalleyAlgebra):
    """(N^-, H, N^+) with H = 2 rho-check, [N^+, N^-] = H, [H, N^pm] = pm 2,
    as tuples.

    N^- is the sum of the e_{-alpha_i}, H = sum_i c_i h_{alpha_i} the sum of
    the positive coroots, and N^+ = sum_i c_i e_{alpha_i}.  All three are
    integral, so the relations are checked on int rows of the table, as
    `_ad_int_rows` reads them; field elements are built only for the tuples
    returned."""
    rd = alg.rd
    # 2 rho-check in simple-coroot coordinates pairs to 2 with every alpha_j
    c = [sum(col) for col in zip(*rd.coroots)]
    if any(sum(map(operator.mul, c, col)) != 2 for col in zip(*rd.cartan)):
        raise VerificationError("2 rho-check does not pair to 2 with every simple root")
    coroots = _cartan_data(rd)[1]
    minus = _minus_simples(alg)
    nminus = dict.fromkeys(minus, 1)
    nplus = {rd.neg[m]: ci for m, ci in zip(minus, c)}
    hc = [0] * rd.rank  # H = sum_i c_i coroot(alpha_i), in the Cartan basis
    for a, ci in nplus.items():
        hc = [x + ci * y for x, y in zip(hc, coroots[a])]
    H = {alg.cartan_index(i): x for i, x in enumerate(hc) if x}

    def int_bracket(x, y):  # [x, y] = sum_j x_j [b_j, y] on sparse ints
        acc = {}
        for xj, row in zip(x.values(), _ad_int_rows(alg, y, x)):
            for k, v in row.items():
                acc[k] = acc.get(k, 0) + xj * v
        return _nonzero(alg, acc)

    if int_bracket(nplus, nminus) != _nonzero(alg, H):
        raise VerificationError("[N+, N-] != 2 rho-check")
    if int_bracket(H, nplus) != _nonzero(alg, {k: 2 * v for k, v in nplus.items()}):
        raise VerificationError("[H, N+] != 2 N+")
    if int_bracket(H, nminus) != _nonzero(alg, {k: -2 * v for k, v in nminus.items()}):
        raise VerificationError("[H, N-] != -2 N-")

    def dense(x):
        v = alg.zero()
        for k, xk in x.items():
            v[k] = alg.field(xk)
        return tuple(v)

    return dense(nminus), dense(H), dense(nplus)


@lru_cache(maxsize=None)
def height_piece(alg: ChevalleyAlgebra, r: int) -> tuple:
    """g(r), the root spaces of height r (the Cartan when r = 0), as the
    ascending tuple of their basis indices."""
    h = alg.h
    if not (1 - h <= r <= h - 1):
        raise ValueError("height out of range")
    return tuple(i for i, t in enumerate(_heights(alg)) if t == r)


@lru_cache(maxsize=None)
def grading_piece(alg: ChevalleyAlgebra, r: int) -> tuple:
    """Cyclic piece g_r = g(r) + g(r-h), g_0 = g(0) = t, as the basis
    indices of g(r) followed by those of g(r-h)."""
    h = alg.h
    if not (0 <= r <= h - 1):
        raise ValueError("cyclic degree out of range")
    if r == 0:
        return height_piece(alg, 0)
    return height_piece(alg, r) + height_piece(alg, r - h)


@lru_cache(maxsize=None)
def x_minus1(alg: ChevalleyAlgebra):
    """X_{-1} = N^- + E_theta, as a tuple."""
    x = list(principal_sl2(alg)[0])
    i = alg.rd.root_index[alg.rd.theta]
    x[i] = x[i] + alg.field(1)
    return tuple(x)


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


def _int_coords(alg: ChevalleyAlgebra, x):
    """{i: int} of the nonzero coefficients of an integral dense x:
    numerators over Q, residues over F_p."""
    p = alg.field.p
    xs = {i: c.numerator if p is None else c.v for i, c in enumerate(x) if c}
    if p is None and any(x[i].denominator != 1 for i in xs):
        raise ValueError("the int rows of ad need an integral vector")
    return xs


def _nonzero(alg: ChevalleyAlgebra, acc):
    """The nonzero entries of {k: int}, as residues over F_p."""
    p = alg.field.p
    if p is not None:
        acc = {k: c % p for k, c in acc.items()}
    return {k: c for k, c in acc.items() if c}


def _ad_int_rows(alg: ChevalleyAlgebra, xs, indices):
    """[b_j, x] for j in indices, as {k: int} of the nonzero coefficients,
    for x given as {i: int} (residues over F_p, where the coefficients are
    residues too), read off the table rows."""
    rows = []
    for j in indices:
        adj, acc = alg.table[j], {}
        for i, xi in xs.items():
            for k, c in adj.get(i, {}).items():
                acc[k] = acc.get(k, 0) + xi * c
        rows.append(_nonzero(alg, acc))
    return rows


def _ad_kernel(alg: ChevalleyAlgebra, x, indices):
    """Basis of {v in span(b_j : j in indices) : [x, v] = 0}, as dense
    vectors, for an integral x."""
    if not indices:
        return []
    # kernel of the coefficient-space map c -> sum c_j [b_j, x], which is
    # minus c -> sum c_j [x, b_j]: one int row per coordinate it reaches
    # (a zero row if it reaches none)
    m = len(indices)
    coords = {}
    for t, row in enumerate(_ad_int_rows(alg, _int_coords(alg, x), indices)):
        for k, c in row.items():
            coords.setdefault(k, [0] * m)[t] = c
    out = []
    for coeffs in nullspace(list(coords.values()) or [[0] * m], alg.field(1)):
        v = alg.zero()
        for j, c in zip(indices, coeffs):
            v[j] = c
        out.append(v)
    return out


@lru_cache(maxsize=None)
def centralizer_z(alg: ChevalleyAlgebra):
    """z_r = ker(ad_{X_{-1}}) cap g_r for r = 0..h-1, as a tuple of graded
    pieces."""
    x = x_minus1(alg)
    return tuple(
        GradedSubspace(tuple(map(tuple, _ad_kernel(alg, x, grading_piece(alg, r)))))
        for r in range(alg.h)
    )


@lru_cache(maxsize=None)
def a_subspace(alg: ChevalleyAlgebra, r: int, mu: Coweight = None) -> GradedSubspace:
    """a_r = [g(r-1-h), N^+]; zero at r = 1 since g(-h) = 0.

    With mu, returns a_r^mu = Ad_{w_P}(a_r) through the normalized
    representative.  (The space a itself only sums a_r over r <= ceil(h/2).)
    """
    h = alg.h
    if not 1 <= r <= h - 1:
        raise ValueError("r out of range")
    if mu is not None:  # the cached a_r, moved by the lift on its support
        ar, cols, zero = a_subspace(alg, r), wP_representative(alg, mu), alg.field(0)
        return GradedSubspace(tuple(tuple(_apply_columns(cols, v, zero, ar.support))
                                    for v in ar.basis))
    basis = []
    if r >= 2:
        nplus = _int_coords(alg, principal_sl2(alg)[2])
        rows = _ad_int_rows(alg, nplus, height_piece(alg, r - 1 - h))
        cols = sorted({k for row in rows for k in row})
        M = [[row.get(k, 0) for k in cols] for row in rows]
        basis, _ = _reduce(M, cols, alg.dim, None if alg.field.p is None else alg.field)
    return GradedSubspace(tuple(map(tuple, basis)))


def p_minus_project(alg: ChevalleyAlgebra, v):
    """Component of v in negative heights: its negative-root block
    [npos, 2 npos), with zeros elsewhere."""
    npos, zero = alg.npos, alg.field(0)
    return [zero] * npos + list(v[npos:2 * npos]) + [zero] * alg.ncartan


def p_minus_bijective(alg: ChevalleyAlgebra, r: int) -> bool:
    """p_-: z_r -> ker(ad_{N^-}|g(r-h)) is an isomorphism."""
    if not (1 <= r <= alg.h - 1):
        raise ValueError("r out of range")
    zr = centralizer_z(alg)[r]
    nminus, _, _ = principal_sl2(alg)
    tgt = height_piece(alg, r - alg.h)
    # kernel of ad_{N^-} restricted to g(r-h): the rank of the [b_j, N^-]
    ker_dim = len(tgt) - rank([_ad_basis(alg, j, nminus) for j in tgt])
    proj = [p_minus_project(alg, v) for v in zr.basis]
    proj_rank = rank(proj)
    if proj_rank != zr.dim or proj_rank != ker_dim:
        return False
    return not any(any(_ad_nminus(alg, v)) for v in proj)


@lru_cache(maxsize=None)
def u_mu_piece(alg: ChevalleyAlgebra, mu: Coweight, r: int) -> tuple:
    """u_{mu,r}, spanned by the root vectors E_alpha, alpha in Phi(u_mu), of
    height congruent to r mod h: the tuple of their basis indices in
    Phi(u_mu) order, so distinct indices of height r or r - h when
    1 <= r <= h - 1."""
    heights, h = _heights(alg), alg.h
    at = map(alg.rd.root_index.__getitem__, u_mu_roots(alg.rd, mu)[0])
    return tuple(i for i in at if heights[i] % h == r % h)


def decomposition_check(alg: ChevalleyAlgebra, mu: Coweight, r: int) -> bool:
    """g_r = z_r + a_r^mu + u_{mu,r}, checked by dimension, support and rank.

    g_r is spanned by the basis vectors at the indices of `grading_piece`,
    and u_{mu,r} by those at some of them.  So the sum is g_r exactly when
    the dimensions add up, no z_r or a_r^mu vector has a coordinate outside
    g_r (read off the pieces' supports), and z_r + a_r^mu, read on the
    coordinates of g_r that u_{mu,r} does not cover, has full rank there.
    """
    if not (1 <= r <= alg.h - 1):
        raise ValueError("r out of range")
    zr, ar = centralizer_z(alg)[r], a_subspace(alg, r, mu)
    rest = zr.basis + ar.basis
    gr = grading_piece(alg, r)
    ur = u_mu_piece(alg, mu, r)
    if len(rest) + len(ur) != len(gr):
        return False
    if not zr.support.issubset(gr) or not ar.support.issubset(gr):
        return False
    free = sorted(set(gr).difference(ur))
    return rank([[v[i] for i in free] for v in rest]) == len(free)


# ---------------------------------------------------------------------------
# The w_P representative.

def _apply_columns(cols, v, zero, support):
    """M v for M given by sparse columns ((row, entry), ...) and a dense v
    whose nonzero entries lie at the indices in `support`."""
    out = [zero] * len(cols)
    for j in support:
        vj = v[j]
        if vj:
            for k, c in cols[j]:
                out[k] = out[k] + c * vj
    return out


def _root_image(rd: RootDatum, w):
    """image[a] = the index of w(root a), read off w's matrix by the root
    codes: column i of the matrix is w(alpha_i).  Raises VerificationError
    naming the first root that w sends to a code of no root."""
    powers, _, at = _root_codes(rd)
    wcodes = [sum(map(operator.mul, col, powers)) for col in zip(*w.matrix)]
    try:
        return [at[sum(map(operator.mul, root, wcodes))] for root in rd.roots]
    except KeyError:
        root = next(r for r in rd.roots if sum(map(operator.mul, r, wcodes)) not in at)
        raise VerificationError(
            f"w sends the root {root} to {w.apply_root(root)}, outside the root system") from None


@lru_cache(maxsize=None)
def wP_representative(alg: ChevalleyAlgebra, mu: Coweight):
    """Ad-matrix of the lift of w_P that fixes X_{-1}, as sparse columns
    ((row, entry), ...) with entries in the field, each column's rows in
    ascending order.

    This Ad is unique: two lifts differ by some t in T, and if both fix
    X_{-1} = sum_i e_{-alpha_i} + e_theta then alpha_i(t) = 1 for every i.
    It sends each e_a to eps(a) e_{w_P a}, eps(a) = +-1 (Carter, Simple
    Groups of Lie Type, 4.2).  Fixing X_{-1} needs w_P to permute -Delta
    and theta, with eps = 1 there; every other sign follows from
    eps(a + b) N_{a,b} = eps(a) eps(b) N_{wa,wb} with b = -alpha_j, which
    reaches every negative root from -Delta and every positive root from
    theta.  The Cartan block is the product of the reflections
    h -> h - <alpha_i, h> h_{alpha_i} along `wP_reduced_word`, on ints.

    Raises VerificationError unless w_P permutes -Delta and theta and the
    lift passes `_check_lift`, which proves it an automorphism and checks
    the Cartan block against w_P's matrix on the coroots.
    """
    rd = alg.rd
    N, coroots, pairings = _cartan_data(rd)
    sums, npos = _root_sums(rd), alg.npos
    w = weyl_wP(rd, mu)
    image = _root_image(rd, w)
    minus = _minus_simples(alg)
    fixed = (*minus, rd.root_index[rd.theta])
    if {image[a] for a in fixed} != set(fixed):
        raise VerificationError("w_P does not permute -Delta and theta")
    eps = dict.fromkeys(fixed, 1)
    # down from theta through the positive roots, from -Delta through the
    # negative ones, in height order, so eps(a) is set before a is read
    for a in (*reversed(range(npos)), *range(npos, 2 * npos)):
        for b in minus:
            s = sums[a].get(b)
            if s is not None and s not in eps:
                eps[s] = eps[a] * N[image[a], image[b]] // N[a, b]
    cols = [((b, eps[a]),) for a, b in enumerate(image)]
    # Cartan column k is the image of b_k; multiplying by s_i on the right
    # takes t_k = <alpha_i, b_k> times the image v of h_{alpha_i} off it
    cartan = [[int(r == k) for r in range(rd.rank)] for k in range(rd.rank)]
    for i in wP_reduced_word(rd, mu):
        e = rd.root_index[rd.simple_roots[i]]
        v = [sum(map(operator.mul, coroots[e], row)) for row in zip(*cartan)]
        for k, t in enumerate(pairings[e]):
            if t:
                cartan[k] = [x - t * y for x, y in zip(cartan[k], v)]
    first = alg.cartan_index(0)
    cols += [tuple((first + r, c) for r, c in enumerate(col) if c) for col in cartan]
    _check_lift(alg, w, cols)
    scalar = {c: alg.field(c) for c in {c for col in cols for _, c in col}}
    return tuple(tuple((r, scalar[c]) for r, c in col if scalar[c]) for col in cols)


def _check_lift(alg: ChevalleyAlgebra, w, cols):
    """Raise VerificationError unless the int columns are Ad of a lift of
    the Weyl element w, read off its matrix.  Each root column a is
    eps(a) = +-1 at the row of w(a); eps(a + b) N_{a,b} =
    eps(a) eps(b) N_{wa,wb} on the pairs (a, +-alpha_i) and eps(a) eps(-a)
    = 1, which with these pairs generating fixes the signs; and the Cartan
    block sends each simple coroot h_{alpha_i} to h_{w alpha_i} (for GL_n
    it also fixes the identity matrix, the centre)."""
    rd = alg.rd
    N, coroots, _ = _cartan_data(rd)
    neg, sums = rd.neg, _root_sums(rd)
    image, eps = _root_image(rd, w), []
    for a, (root, b) in enumerate(zip(rd.roots, image)):
        col = cols[a]
        if len(col) != 1 or col[0][0] != b or abs(col[0][1]) != 1:
            raise VerificationError(f"the w_P lift does not send E_{root} to +-E_{rd.roots[b]}")
        eps.append(col[0][1])
    simples = [rd.root_index[a] for a in rd.simple_roots]
    steps = simples + [neg[i] for i in simples]
    for a, e in enumerate(eps):
        if e * eps[neg[a]] != 1:
            raise VerificationError(f"the w_P lift signs of +-{rd.roots[a]} differ")
    for a, row in enumerate(sums):
        for b in steps:
            s = row.get(b)
            if s is not None and eps[s] * N[a, b] != eps[a] * eps[b] * N[image[a], image[b]]:
                raise VerificationError(
                    f"the w_P lift is no automorphism at {(rd.roots[a], rd.roots[b])}")
    cartan = alg.cartan_index(0)
    images = [(coroots[i], coroots[image[i]]) for i in simples]
    if rd.series == "GL":
        images.append(((1,) * rd.rank, (1,) * rd.rank))
    for h, wh in images:
        got = {}
        for k, c in enumerate(h):
            if c:
                for r, m in cols[cartan + k]:
                    got[r] = got.get(r, 0) + c * m
        if {r: c for r, c in got.items() if c} != {cartan + k: c for k, c in enumerate(wh) if c}:
            raise VerificationError(f"the w_P lift does not send the coroot {h} to {wh}")


# ---------------------------------------------------------------------------
# Relevance checks (linear and quadratic).

def relevance_linear_kernel(alg: ChevalleyAlgebra, r: int) -> bool:
    """{e in a_r : kappa([e, N^-], g(h+1-r)) = 0} is zero."""
    if not (2 <= r <= (alg.h + 1) // 2):
        raise ValueError("r out of range")
    ar = a_subspace(alg, r)
    tgt = height_piece(alg, alg.h + 1 - r)
    # the rows kappa([N^-, e], b_j) are minus kappa([e, N^-], b_j): same rank
    rows = []
    for v in ar.basis:
        w = _ad_nminus(alg, v)
        rows.append([_kappa_basis(alg, w, j) for j in tgt])
    return rank(rows) == ar.dim


QUADRATIC_BUDGET = 10 ** 7  # the most points of a(F_p) to enumerate


def relevance_quadratic_bruteforce(alg: ChevalleyAlgebra):
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
    if p ** len(basis) > QUADRATIC_BUDGET:
        raise ValueError("search space exceeds budget")
    etheta = alg.E(alg.rd.theta)
    cut = h // 2 + 1
    tgt = [i for i, t in enumerate(_heights(alg)) if t >= cut]
    half = alg.field(1) / alg.field(2)
    sols = []
    for coeffs in product(alg.field.elements(), repeat=len(basis)):
        e = _combine(alg, coeffs, basis)
        # [e, N^-] + [e, [e, E_theta]]/2, with [e, N^-] = -[N^-, e]
        q = alg.bracket(e, alg.bracket(e, etheta))
        expr = [half * b - a for a, b in zip(_ad_nminus(alg, e), q)]
        if all(not _kappa_basis(alg, expr, j) for j in tgt):
            sols.append(coeffs)
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
        ys = _ad_kernel(alg, nminus, height_piece(alg, r - h))
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
    heights = _heights(alg)

    def cut(vec):
        out = list(vec)
        for i in range(alg.dim):
            if out[i] and 2 * heights[i] > -h:
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
    p_minus = {a: Z[rd.root_index[a]] for a in cut_roots}

    # Phi_S and the inverse of the triangular change of variables
    # lambda_beta = f_beta(lambda), one exponent r at a time.  For the k
    # slots of r, Phi_S takes the first k roots of height r - h on which the
    # slot vectors have a rank-k block.  Their lambda are A^{-1}(x - rest),
    # with A the block of the linear terms of their f_beta in them, read off
    # one rref of [A | I], and rest the other terms, in lower lambda only.
    by_r = {}
    for idx, (r, y, v) in enumerate(slots):
        by_r.setdefault(r, []).append(idx)
    one, zero_f = field(1), field(0)
    phi_s_roots = [None] * len(slots)
    lam_exprs = {}
    for r, idxs in by_r.items():
        k = len(idxs)
        cands = [a for a in rd.roots if rd.height(a) == r - h]
        betas = next((
            bs for bs in combinations(cands, k)
            if rank([[slots[i][1][rd.root_index[b]] for b in bs] for i in idxs]) == k
        ), None)
        if betas is None:
            raise VerificationError(f"no invertible coefficient block at exponent {r}")
        aug, rs = [], []
        for row, (i, beta) in enumerate(zip(idxs, betas)):
            phi_s_roots[i] = beta
            rest = p_minus[beta]
            coeffs = [rest.coefficient(lam[j]) for j in idxs]  # int 0 where absent
            aug.append([c or zero_f for c in coeffs] + [one if col == row else zero_f for col in range(k)])
            for j, c in zip(idxs, coeffs):
                rest = rest - mp_var(lam[j]) * c
            rs.append(mp_var(xs[i]) - rest.substitute(lam_exprs))
        M, pivots = rref(aug)
        if pivots[:k] != list(range(k)):
            raise VerificationError(f"singular linear block for {', '.join(lam[i] for i in idxs)}")
        for i, inv_row in zip(idxs, M):
            lam_exprs[lam[i]] = sum((ri * c for ri, c in zip(rs, inv_row[k:])), zero)

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
    """Random lambda-samples: the graph polynomials reproduce p_-(s).

    Each polynomial is compiled once into its `MultiPoly.log_terms` and
    evaluated on element indices (`arith._eval_log_terms`); a sample is the
    list of the lambda values and then the x values, x_i being p_- at the
    i-th root of Phi_S."""
    from .arith import _eval_log_terms

    field = alg.field
    p = field.p
    if p is None:
        raise ValueError("sampling needs a finite field")
    tab = field._tables
    m = len(graph.lambda_names)
    slot = {name: i for i, name in enumerate(graph.lambda_names + graph.var_names)}
    p_minus = {a: f.log_terms(field, slot) for a, f in graph.p_minus.items()}
    graphs = [(a, f.log_terms(field, slot)) for a, f in graph.graphs.items()]
    lambda_exprs = [graph.lambda_exprs[n].log_terms(field, slot) for n in graph.lambda_names]
    for _ in range(samples):
        # a constant c < p of F_q is its own index
        values = [rng.randrange(p) for _ in graph.lambda_names] + [0] * m
        vals = {a: _eval_log_terms(tab, terms, values) for a, terms in p_minus.items()}
        values[m:] = [vals[beta] for beta in graph.phi_s]
        for a, terms in graphs:
            if _eval_log_terms(tab, terms, values) != vals[a]:
                return False
        # the inverse change of variables recovers lambda
        for i, terms in enumerate(lambda_exprs):
            if _eval_log_terms(tab, terms, values) != values[i]:
                return False
    return True
