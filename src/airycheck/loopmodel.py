"""Truncated loop algebra and the GL_n truncated loop group.

Everything is truncated at t^(h+2): the functional phi vanishes on
Lie I(2+h), so no information is lost.  Affine filtration lines are pairs
(root, t-power) with Moy-Prasad depth i*h + Ht(alpha) for the Iwahori
barycenter rho-check/h; the Cartan occupies the root=None lines of depth i*h.

The group-level factorization is implemented in the GL_n matrix model: a
group element is a list of h+2 matrices of int residues mod p (the t-power
coefficients).  A series product works on packed rows: row j of B, over
all h+2 blocks, is one int with a 64-bit slot per entry, so a row of A B is
a sum of small multiples of shifted packed rows, unpacked once and reduced
mod p (Kronecker substitution).  No slot carries while (h+2) n (p-1)^2 is
below 2^64, which `GLnModel` checks.  `factorize_I1` forms no
series product and no inverse: each factor is an entry list, applied to a
series by sparse row or column operations, and an S-factor is undone by a
triangular solve.  Field elements enter only in `_factor_bases`, which
turns the z, a^mu and u_mu bases into int solve maps once per (n, p, mu); a
sample reads, solves and updates on residues alone.

`draw_factorization` and `round_trip_mismatch` are the round-trip oracle
of `factorize_I1`: they build g from random factor coordinates and read the
coordinates back from the factors it returns.  The oracle forms its factors
with `graded_lift`, `exp_series` and `mul` only, and must share none of
factorize_I1's kernels (`_factor_bases`, `_entries`, `_sparse_exp_terms`,
`_exp_pair`, `_times_one_plus`, `_one_plus_times`, `_solve_one_plus`), so
that a fault in one of them cannot cancel out of the comparison.
"""

from __future__ import annotations

import operator
import struct
from functools import cached_property, lru_cache
from itertools import chain

from . import Frozen, VerificationError
from .arith import GF
from .chevalley import (
    ChevalleyAlgebra,
    _gl_root_interval,
    a_subspace,
    build_algebra,
    centralizer_z,
    height_piece,
    principal_sl2,
    u_mu_piece,
)
from .linalg import rref
from .rootdata import Coweight, coxeter_number, get_root_datum, u_mu_roots


class AffineRootIndex(Frozen):
    _fields = ("root", "power")

    def __init__(self, root: tuple, power: int):
        object.__setattr__(self, "root", root)  # root coordinates, or None for the Cartan block
        object.__setattr__(self, "power", power)

    def _key(self):
        # spelled out, since the stabilizer-line sets hash these often
        return (self.root, self.power)

    def _height(self, rd):
        return 0 if self.root is None else rd.height(self.root)

    def depth(self, rd):
        h = coxeter_number(rd)
        return self.power * h + self._height(rd)


def all_lines(rd):
    h = coxeter_number(rd)
    lines = []
    for i in range(h + 2):
        lines.append(AffineRootIndex(None, i))
        for a in rd.roots:
            lines.append(AffineRootIndex(a, i))
    return lines


def line_dim(rd, line: AffineRootIndex) -> int:
    return rd.rank if line.root is None else 1


def filtration_basis(alg: ChevalleyAlgebra, r: int, r_hi: int = None):
    """Lines of Lie I(r) (depth >= r), optionally cut off below r_hi."""
    rd = alg.rd
    if not 0 <= r <= alg.h + 2:
        raise ValueError("r out of range")
    out = []
    for line in all_lines(rd):
        d = line.depth(rd)
        if d >= r and (r_hi is None or d < r_hi):
            out.append(line)
    return out


# ---------------------------------------------------------------------------
# The functional phi.

def phi_eval(alg: ChevalleyAlgebra, Y) -> object:
    """phi(Y) = kappa(N^-, Y_1) + kappa(E_theta, Y_2) for Y in Lie I(1).

    Y is a list of algebra coefficient vectors, indexed by t-power; this is
    the residue pairing against t^{-1}N^- + t^{-2}E_theta.
    """
    nminus, _, _ = principal_sl2(alg)
    etheta = alg.E(alg.rd.theta)
    acc = alg.field(0)
    if len(Y) > 1 and Y[1] is not None:
        acc = acc + alg.kappa(nminus, Y[1])
    if len(Y) > 2 and Y[2] is not None:
        acc = acc + alg.kappa(etheta, Y[2])
    return acc


def phi_generic_check(alg: ChevalleyAlgebra) -> bool:
    """phi is nonzero on each affine simple line of depth h+1 and vanishes
    on Lie I(2+h)."""
    rd = alg.rd
    zero = [None] * (alg.h + 2)
    for i in range(rd.n):
        simple = tuple(1 if j == i else 0 for j in range(rd.n))
        Y = list(zero)
        Y[1] = alg.E(simple)
        if not phi_eval(alg, Y):
            return False
    Y = list(zero)
    Y[2] = alg.E(tuple(-c for c in rd.theta))
    if not phi_eval(alg, Y):
        return False
    # vanishing on depth >= h+2 within the truncation
    for line in filtration_basis(alg, alg.h + 2):
        if line.root is None:
            continue
        Y = list(zero)
        Y[line.power] = alg.E(line.root)
        if phi_eval(alg, Y):
            return False
    return True


def stab_affine_roots(alg: ChevalleyAlgebra, mu: Coweight):
    """Lines of Ad_{t^{-mu}} L^-G cap I(1); equals u_M at level 0 plus
    u_P^- at level 1."""
    rd = alg.rd
    h = alg.h
    lines = set()
    for a in rd.roots:
        pairing = rd.pairing(a, mu)
        for m in range(0, 2 * h + 2):
            i = -m - pairing
            if i < 0:
                continue
            if i * h + rd.height(a) >= 1 and i <= h + 1:
                lines.add(AffineRootIndex(a, i))
    phi_u, _ = u_mu_roots(rd, mu)
    expected = set()
    for a in phi_u:
        expected.add(AffineRootIndex(a, 0 if rd.height(a) > 0 else 1))
    if lines != expected:
        raise VerificationError("stabilizer lines differ from u_mu")
    return lines


# ---------------------------------------------------------------------------
# Odd Coxeter number: the parahoric filtration from rho-check/(h-1).

def odd_parahoric_check(alg: ChevalleyAlgebra) -> bool:
    """eq-level sanity of the barycenter rho-check/2n filtration, type A_2n."""
    rd = alg.rd
    h = alg.h
    if h % 2 == 0:
        raise ValueError("odd Coxeter number required (type A_2n)")
    n = (h - 1) // 2

    def p_depth(line):
        return line.power * (h - 1) + line._height(rd)

    lines = all_lines(rd)
    P = lambda r: {l for l in lines if p_depth(l) >= r}
    I = lambda r: {l for l in lines if l.depth(rd) >= r}
    if not P(2) <= I(2):
        return False
    if not (I(n + 2) <= P(1 + n) <= I(n + 1)):
        return False
    q1 = sum(line_dim(rd, l) for l in P(1 + n) - I(n + 2))
    q2 = sum(line_dim(rd, l) for l in I(n + 1) - P(1 + n))
    return (
        q1 == len(height_piece(alg, n + 1).basis)
        and q2 == len(height_piece(alg, n + 1 - h).basis)
    )


# ---------------------------------------------------------------------------
# GL_n truncated matrix group.

class GLnModel:
    """GL_n(F_p[t]/t^(n+2)) together with its Iwahori filtration.

    A series is a list of N = n+2 blocks, the t^0 coefficient first; each
    block is an n x n list of int residues mod p.  For GF(p) a residue is
    the index of the field element, so an entry v equals model.field(v).
    The methods accept any ints and return residues in [0, p).
    """

    def __init__(self, n: int, p: int):
        if (n + 2) * n * (p - 1) ** 2 >= 1 << 64:
            raise ValueError(f"GL_{n} series products over F_{p} overflow 64-bit slots")
        self.n = n
        self.p = p
        self.field = GF(p)
        self.rd = get_root_datum("GL", n, "gl")
        self.alg = build_algebra(self.rd, self.field)
        self.h = n
        self.N = n + 2  # truncation order
        self._slots = struct.Struct(f"<{self.N * n}Q")  # one packed row

    # -- series arithmetic -------------------------------------------------

    def zero_series(self):
        return [[[0] * self.n for _ in range(self.n)] for _ in range(self.N)]

    def identity_series(self):
        g = self.zero_series()
        for i in range(self.n):
            g[0][i][i] = 1
        return g

    def mul(self, A, B):
        """The product series A B, on packed rows.  Row j of B over all N
        blocks is one int whose 64-bit slot m n + c holds B_m[j][c]; row r
        of A B is the sum of x (packed row j << 64 n i) over the nonzero
        entries x = A_i[r][j], cut to N n slots and unpacked once.  A slot
        sums at most N n products below p^2, so none carries."""
        n, p, slots = self.n, self.p, self._slots
        width = 64 * n
        packed = [
            int.from_bytes(slots.pack(*[x % p for blk in B for x in blk[j]]), "little")
            for j in range(n)
        ]
        mask = (1 << 8 * slots.size) - 1
        out = [[] for _ in range(self.N)]
        for r in range(n):
            acc = 0
            for i, blk in enumerate(A):
                s = 0
                for x, row in zip(blk[r], packed):
                    x %= p
                    if x:
                        s += x * row
                if s:
                    acc += s << width * i
            vals = [v % p for v in slots.unpack((acc & mask).to_bytes(slots.size, "little"))]
            for m, blk in enumerate(out):
                blk.append(vals[m * n:(m + 1) * n])
        return out

    def eq(self, A, B):
        p = self.p
        return all(
            (x - y) % p == 0
            for a, b in zip(A, B) for ra, rb in zip(a, b) for x, y in zip(ra, rb)
        )

    def in_filtration(self, A, r: int) -> bool:
        """A - 1 has depth >= r: reads only the entries of depth < r."""
        p = self.p
        ones, zeros = _shallow_positions(self.n, r)
        return (all(A[0][j][j] % p == 1 for j in ones)
                and not any(A[i][j][k] % p for i, j, k in zeros))

    # -- Lie <-> group -----------------------------------------------------

    @cached_property
    def _root_lines(self):
        """(height, row, col) of each root basis vector of the algebra."""
        return [(self.rd.height(a),) + _gl_root_interval(a) for a in self.alg.basis_roots]

    def graded_lift(self, v, r: int):
        """Depth-r series with t-powers (r - Ht(alpha))/h per root line."""
        out = self.zero_series()
        lines = self._root_lines
        for idx, c in enumerate(v):
            if not c:
                continue
            if idx >= len(lines):
                raise ValueError("graded lift of a Cartan line")
            ht, rr, cc = lines[idx]
            i, rem = divmod(r - ht, self.h)
            if rem or not 0 <= i < self.N:
                raise ValueError(f"root {self.alg.basis_roots[idx]} has no line of depth {r}")
            out[i][rr][cc] = (out[i][rr][cc] + c.v) % self.p
        return out

    def exp_series(self, Y):
        """exp of a positive-depth series, summed over the powers Y^k up to
        the first zero one; the series must terminate before 1/p! is needed."""
        p = self.p
        out = self.identity_series()
        term = [[[x % p for x in row] for row in blk] for blk in Y]  # Y^k, from k = 1
        k = fact = 1
        while any(any(map(any, blk)) for blk in term):
            if k >= p:
                raise ValueError("exp series does not terminate before 1/p!")
            fact *= k
            c = pow(fact, -1, p)
            out = [[[(x + c * y) % p for x, y in zip(orow, trow)] for orow, trow in zip(ob, tb)]
                   for ob, tb in zip(out, term)]
            k += 1
            term = self.mul(term, Y)
        return out

    @cached_property
    def _x_tilde(self):
        out = self.zero_series()
        nminus, _, _ = principal_sl2(self.alg)
        out[0] = [[x.v for x in row] for row in self.alg.matrix_of(self.alg.E(self.rd.theta))]
        out[1] = [[x.v for x in row] for row in self.alg.matrix_of(nminus)]
        return out

    def x_tilde_t2(self):
        """t^2 * X-tilde = t N^- + E_theta as a series (built once per model)."""
        return [[list(row) for row in blk] for blk in self._x_tilde]

    @cached_property
    def _x_tilde_entries(self):
        return [
            (i, r, c, x)
            for i, blk in enumerate(self._x_tilde) for r, row in enumerate(blk)
            for c, x in enumerate(row) if x
        ]

    def stabilizes_x_tilde(self, Z) -> bool:
        """1 + Z commutes with X = t N^- + E_theta, for Z the entry list
        (t-power, row, col, value) of a series: Z X = X Z, both products
        summed over the pairs of entries of Z and of X."""
        N, p = self.N, self.p
        diff = {}
        for i, r, c, z in Z:
            for i2, r2, c2, x in self._x_tilde_entries:
                if i + i2 < N:
                    if r2 == c:  # z t^i E_rc . x t^i2 E_c c2
                        key = (i + i2, r, c2)
                        diff[key] = diff.get(key, 0) + z * x
                    if c2 == r:  # x t^i2 E_r2 r . z t^i E_rc
                        key = (i + i2, r2, c)
                        diff[key] = diff.get(key, 0) - x * z
        return not any(v % p for v in diff.values())

    @cached_property
    def _i1_draws(self):
        """(t-power, entries) per line of Lie I(1), in filtration_basis order:
        the diagonal for a Cartan line, the root's entry otherwise."""
        diag = [(j, j) for j in range(self.n)]
        return [
            (line.power, diag if line.root is None else [_gl_root_interval(line.root)])
            for line in filtration_basis(self.alg, 1)
        ]

    def random_I1(self, rng):
        """Uniform-ish element 1 + (random Lie I(1) coefficients)."""
        p = self.p
        g = self.identity_series()
        for power, entries in self._i1_draws:
            blk = g[power]
            for i, j in entries:
                blk[i][j] = (blk[i][j] + rng.randrange(p)) % p
        return g


@lru_cache(maxsize=None)
def _shallow_positions(n, r):
    """The entries of depth < r of a GL_n series: the t^0 diagonal, which is
    1 in I(r) for r >= 1, and the (t-power, row, col) of the rest, which are 0."""
    ones = tuple(range(n)) if r > 0 else ()
    zeros = tuple(
        (i, j, k) for i in range(n + 2) for j in range(n) for k in range(n)
        if i * n + k - j < r and not (i == 0 and j == k)
    )
    return ones, zeros


@lru_cache(maxsize=None)
def _factor_bases(model_key, mu_coords):
    """Per depth r, int maps mod p that split the depth-r part of a remainder
    into its z_r, a_r^mu and u_{mu,r} parts: (reads, consistency, u_lines,
    a_lift, z_lift).

    A sample is the vector x of the remainder's entries at `reads`, the
    (t-power, row, col) of the depth-r root lines.  One rref of
    [colmat | I], with the z, a^mu and u_mu bases as the columns of colmat,
    gives an invertible E with E colmat reduced.  The rows of E below the
    rank are the consistency rows: x is in the span exactly when they all
    annihilate it.  The pivot rows of E give the coordinates that
    `linalg.solve` picks (the free ones 0); composed with the bases, they
    give each entry of a part's graded lift as one row over x.  `u_lines`
    holds the u_mu root lines in algebra-index order, and every entry is a
    (t-power, row, col, coefficient row).
    """
    n, p = model_key
    model = GLnModel(n, p)
    alg = model.alg
    mu = Coweight(mu_coords)
    zs = centralizer_z(alg)
    one, zero = alg.field(1), alg.field(0)
    out = {}
    for r in range(1, (model.h + 1) // 2 + 1):
        zb = zs[r].basis
        ab = a_subspace(alg, r, mu).basis
        ub = u_mu_piece(alg, mu, r).basis
        cols = zb + ab + ub
        lines = {}  # algebra index -> (t-power, row, col) of its depth-r line
        for idx, (ht, rr, cc) in enumerate(model._root_lines):
            i, rem = divmod(r - ht, model.h)
            if rem == 0 and 0 <= i < model.N:
                lines[idx] = (i, rr, cc)
        aug = [
            [col[i] for col in cols] + [one if j == i else zero for j in range(alg.dim)]
            for i in range(alg.dim)
        ]
        M, pivots = rref(aug)
        rank = sum(c < len(cols) for c in pivots)
        E = [[row[len(cols) + idx].v for idx in lines] for row in M]
        parts = ({}, {}, {})  # z, a, u: algebra index -> row over x
        for erow, k in zip(E, pivots[:rank]):
            part = parts[(k >= len(zb)) + (k >= len(zb) + len(ab))]
            for idx, b in enumerate(cols[k]):
                if b:
                    acc = part.setdefault(idx, [0] * len(lines))
                    part[idx] = [(y + b.v * e) % p for y, e in zip(acc, erow)]

        def placed(part):
            rows = []
            for idx in sorted(part):
                if any(part[idx]):
                    if idx not in lines:
                        raise ValueError(f"a basis vector has no line of depth {r}")
                    rows.append(lines[idx] + (part[idx],))
            return rows

        z_lift, a_lift, u_lines = map(placed, parts)
        consistency = [row for row in E[rank:] if any(row)]
        out[r] = (list(lines.values()), consistency, u_lines, a_lift, z_lift)
    return out


def _entries(rows, x, p):
    """(t-power, row, col, value) of the nonzero entries that the rows give
    on the sample x."""
    out = []
    for i, j, k, row in rows:
        c = sum(map(operator.mul, row, x)) % p
        if c:
            out.append((i, j, k, c))
    return out


def _sparse_exp_terms(model: GLnModel, Y):
    """[(1/k! mod p, Y^k) for k = 1, 2, ...] up to the first zero power, for
    Y an entry list; each Y^k is a {(t-power, row, col): value} dict, and
    the entries (i, j, k) and (i', k, l) multiply to (i + i', j, l), dropped
    at t^N."""
    N, p = model.N, model.p
    term = {(i, j, k): c % p for i, j, k, c in Y if c % p}
    right = {}  # row -> [(t-power, col, value)] of Y
    for (i, j, k), c in term.items():
        right.setdefault(j, []).append((i, k, c))
    terms = []
    k = fact = 1
    while term:
        if k >= p:
            raise ValueError("exp series does not terminate before 1/p!")
        fact *= k
        terms.append((pow(fact, -1, p), term))
        k += 1
        nxt = {}
        for (i, j, l), c in term.items():
            for i2, l2, c2 in right.get(l, ()):
                if i + i2 < N:
                    nxt[i + i2, j, l2] = nxt.get((i + i2, j, l2), 0) + c * c2
        term = {key: c % p for key, c in nxt.items() if c % p}
    return terms


def _exp_pair(model: GLnModel, Y):
    """exp(Y) - 1 and exp(-Y) - 1 as entry lists, for Y an entry list of
    positive depth, from one chain of powers Y^k: the k-th terms differ by
    the sign (-1)^k."""
    p = model.p
    plus, minus = {}, {}
    for k, (coeff, term) in enumerate(_sparse_exp_terms(model, Y), start=1):
        sign = coeff if k % 2 == 0 else -coeff
        for key, y in term.items():
            plus[key] = plus.get(key, 0) + coeff * y
            minus[key] = minus.get(key, 0) + sign * y
    return tuple([key + (c % p,) for key, c in d.items() if c % p] for d in (plus, minus))


def _times_one_plus(model: GLnModel, A, entries):
    """A (1 + Z) in place, Z the sum of c t^i E_jk over the entries
    (i, j, k, c): column k of block m gains c times column j of the old
    block m - i."""
    N, p = len(A), model.p
    adds = [(m, k, c, [line[j] for line in A[m - i]])
            for i, j, k, c in entries for m in range(i, N)]
    for m, k, c, src in adds:
        for line, x in zip(A[m], src):
            line[k] = (line[k] + c * x) % p
    return A


def _one_plus_times(model: GLnModel, entries, A):
    """(1 + Z) A in place: row j of block m gains c times row k of the old
    block m - i."""
    N, p = len(A), model.p
    adds = [(m, j, c, A[m - i][k]) for i, j, k, c in entries for m in range(i, N)]
    for m, j, c, src in adds:  # rows are replaced, so src keeps the old row
        A[m][j] = [(y + c * x) % p for y, x in zip(A[m][j], src)]


def _solve_one_plus(model: GLnModel, entries, A):
    """(1 + Z)^{-1} A in place, for Z of positive depth: X = A - Z X, where
    row j of block m of Z X is the sum of c times row k of X_{m-i}.  Blocks
    are solved in ascending order and the rows of a block from the bottom
    up, since a t^0 entry (j, k) of positive depth has k > j.  Rows are
    replaced, never changed in place."""
    p = model.p
    by_row = [[] for _ in range(model.n)]  # row j -> [(t-power, col, value)] of Z
    for i, j, k, c in entries:
        if i == 0 and k <= j:
            raise ValueError(f"t^0 entry ({j}, {k}) of Z does not have positive depth")
        by_row[j].append((i, k, c))
    for m, blk in enumerate(A):
        for j in reversed(range(model.n)):
            for i, k, c in by_row[j]:
                if i <= m:
                    blk[j] = [(y - c * x) % p for y, x in zip(blk[j], A[m - i][k])]


def factorize_I1(model: GLnModel, g, mu: Coweight):
    """g = u * a * s * residual with u in Ad_{t^-mu}U_mu, a a product of
    depth-r A-factors, s in S(1), residual in I(1 + ceil(h/2)).

    The remainder (u a s)^{-1} g is carried as s^{-1} a^{-1} w with
    w = u^{-1} g, and every factor as the entry list of its part off the
    identity: a root-line factor 1 + Y (Y square-zero, inverse 1 - Y)
    updates u by a column and w by a row operation, an A-factor exp(Y)
    updates a by column operations and is undone on the remainder by the
    row operations of exp(-Y), and an S-factor 1 + Z updates s by column
    operations and is undone on the remainder by a triangular solve.  No
    inverse series and no dense series product is formed.
    """
    if not model.in_filtration(g, 1):
        raise ValueError("element is not in I(1)")
    p = model.p
    half = (model.h + 1) // 2
    maps = _factor_bases((model.n, p), tuple(mu.coords))
    w = [[[x % p for x in row] for row in blk] for blk in g]
    u = model.identity_series()
    a = model.identity_series()
    s = model.identity_series()
    a_steps, s_steps = [], []  # exp(-Y) - 1 and Z of each factor, in step order

    def remainder(blocks):
        d = [list(blk) for blk in w[:blocks]]  # rows are replaced, never changed
        for e in a_steps:
            _one_plus_times(model, e, d)
        for z in s_steps:
            _solve_one_plus(model, z, d)
        return d

    for r in range(1, half + 1):
        # the step reads only entries of depth <= r <= h; an entry at t^i
        # has depth at least i h - (h - 1), so these lie in blocks 0 and 1
        d = remainder(2)
        if not model.in_filtration(d, r):
            raise VerificationError(f"remainder before step {r} is not in I({r})")
        reads, consistency, u_lines, a_lift, z_lift = maps[r]
        x = [d[i][j][k] for i, j, k in reads]
        if any(sum(map(operator.mul, row, x)) % p for row in consistency):
            raise VerificationError(f"depth-{r} part is not in z + a^mu + u_mu")
        # u-part: product of one-parameter root subgroups (each square-zero)
        for i, j, k, c in _entries(u_lines, x, p):
            _times_one_plus(model, u, [(i, j, k, c)])
            _one_plus_times(model, [(i, j, k, p - c)], w)
        # a-part: exp of the graded lift (a t^{-mu}w_P-conjugate of exp(tY))
        ya = _entries(a_lift, x, p)
        if ya:
            e, e_minus = _exp_pair(model, ya)
            _times_one_plus(model, a, e)
            a_steps.append(e_minus)
        # s-part: 1 + Z with Z a multiple of E_1^r, which commutes with
        # t N^- + E_theta, so 1 + Z lies in S(r)
        zs = _entries(z_lift, x, p)
        if zs:
            if not model.stabilizes_x_tilde(zs):
                raise VerificationError(f"the depth-{r} S-factor does not fix X-tilde")
            s_steps.append(zs)
            _times_one_plus(model, s, zs)
    residual = remainder(model.N)
    if not model.in_filtration(residual, 1 + half):
        raise VerificationError(f"residual is not in I({1 + half})")
    return u, a, s, residual


# ---------------------------------------------------------------------------
# The round-trip oracle of factorize_I1 (see the module docstring).

def draw_factorization(model: GLnModel, mu: Coweight, rng):
    """Random coordinates and the g = u a s res they give: per depth
    r = 1..ceil(h/2) a random vector of u_{mu,r}, of a_r^mu and of z_r
    (coefficients in the Chevalley basis), and a random residual in
    I(1 + ceil(h/2)).  Returns (coords, products, residual, g), the
    products as `_factor_products` gives them."""
    alg, p = model.alg, model.p
    half = (model.h + 1) // 2
    zs = centralizer_z(alg)

    def draw(basis):
        v = alg.zero()
        for b in basis:
            c = rng.randrange(p)
            for i, y in enumerate(b):
                if y:
                    v[i] = v[i] + c * y
        return v

    coords = [
        tuple(map(draw, (u_mu_piece(alg, mu, r).basis, a_subspace(alg, r, mu).basis, zs[r].basis)))
        for r in range(1, half + 1)
    ]
    residual = model.identity_series()
    for i, blk in enumerate(residual):
        for j, row in enumerate(blk):
            for k in range(model.n):
                if i * model.h + k - j > half:
                    row[k] = (row[k] + rng.randrange(p)) % p
    prods = _factor_products(model, coords)
    g = model.mul(model.mul(model.mul(prods[0][-1], prods[1][-1]), prods[2][-1]), residual)
    return coords, prods, residual, g


def _one_plus(model: GLnModel, v, r: int):
    """1 + the graded lift of v at depth r."""
    g = model.graded_lift(v, r)
    for j in range(model.n):
        g[0][j][j] += 1
    return g


def _factor_products(model: GLnModel, coords):
    """For each of u, a and s, the products of its drawn factors of depth
    < r for r = 1..ceil(h/2)+1.  The depth-r factors are formed as
    factorize_I1 forms them: the u_mu root lines 1 + Y one at a time in
    algebra-index order, exp of the a^mu lift, and 1 + the z lift."""
    alg = model.alg
    one = model.identity_series()
    prods = ([one], [one], [one])
    for r, (uvec, avec, zvec) in enumerate(coords, start=1):
        lines = []
        for idx, c in enumerate(uvec):
            if c:
                line = alg.zero()
                line[idx] = c
                lines.append(_one_plus(model, line, r))
        a = model.exp_series(model.graded_lift(avec, r))
        for prod, factors in zip(prods, (lines, [a], [_one_plus(model, zvec, r)])):
            acc = prod[-1]
            for f in factors:
                acc = f if acc is one else model.mul(acc, f)
            prod.append(acc)
    return prods


def round_trip_mismatch(model: GLnModel, coords, prods, residual, found):
    """The first drawn coordinate that factorize_I1's (u, a, s, residual)
    does not give back, or None.  Each returned factor is read one depth at
    a time: at the entries of depth <= r it must agree with the product of
    the drawn factors of depth < r plus the graded lift of the drawn depth-r
    vector; in the end it must be the whole product."""
    p = model.p
    for part, name in enumerate("uas"):
        A = found[part]
        for r, vecs in enumerate(coords, start=1):
            B, lift = prods[part][r - 1], model.graded_lift(vecs[part], r)
            ones, zeros = _shallow_positions(model.n, r + 1)
            if any((A[i][j][k] - B[i][j][k] - lift[i][j][k]) % p
                   for i, j, k in chain(((0, j, j) for j in ones), zeros)):
                return f"{name}-coordinates at depth {r}"
        if not model.eq(A, prods[part][-1]):
            return f"{name} beyond depth {len(coords)}"
    if not model.eq(found[3], residual):
        return "residual"
    return None
