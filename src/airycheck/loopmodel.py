"""Truncated loop algebra and the GL_n truncated loop group.

Everything is truncated at t^(h+2): the functional phi vanishes on
Lie I(2+h), so no information is lost.  Affine filtration lines are
(root, t-power) pairs, the Cartan line being (None, i).  `_line_depth` is the
one statement of their Moy-Prasad depth i*h + Ht(alpha) at the Iwahori
barycenter rho-check/h.

The group-level factorization is implemented in the GL_n matrix model: a
group element is a list of h+2 matrices of int residues mod p (the t-power
coefficients).  One cached table, `_gl_lines` with its per-depth view
`_gl_lines_at`, places each root line at a matrix entry; `graded_lift`,
`block_coords`, X-tilde, the draws of `random_I1` and `_factor_bases` all
read it.  One cached table, `_gl_depths`, gives each entry (t-power, row,
col) the `_line_depth` of the line it carries, the diagonal carrying the
Cartan line; `_gl_lines_at`, `in_filtration`, the draws, the S-solve's
depth guard, the oracle's residual and `z_element` all read it.

Series arithmetic works on packed ints (Kronecker substitution), reduced
mod p inside the int, every slot at once, by a multiply and shift (Granlund
and Montgomery's division by an invariant integer).  `mul` packs each row
of B over all h+2 blocks into one int with 64-bit slots, sums small
multiples of shifted rows and unpacks by one struct call; `GLnModel` checks
that no slot carries.  `factorize_I1` forms no series product and no
inverse: it applies each factor, an entry list, by row or column operations
on ints of its own (`_packing`), the remainder as n rows and u, a and s as
n columns, one shift, multiply and add per entry over every block, and
undoes an S-factor by a solve, rows bottom-up, one pass per block.  Field
elements enter only in `_factor_bases`, which turns the z, a^mu and u_mu
bases into int solve maps once per (n, p, mu).

`draw_factorization` and `round_trip_mismatch` are the round-trip oracle
of `factorize_I1`: they build g from random factor coordinates and read the
coordinates back from the factors it returns.  The oracle forms its factors
with `graded_lift`, `exp_series` and `mul` only (and `identity_series`),
and shares none of factorize_I1's kernels, which use none of `mul`'s code,
so that a fault in either cannot cancel out of the comparison.
"""

from __future__ import annotations

import operator
import struct
from functools import cached_property, lru_cache
from itertools import chain
from types import SimpleNamespace

from . import VerificationError
from .arith import GF
from .chevalley import (
    ChevalleyAlgebra,
    _combine,
    _gl_root_interval,
    _kappa_basis,
    _minus_simples,
    a_subspace,
    build_algebra,
    centralizer_z,
    height_piece,
    principal_sl2,
    u_mu_piece,
    x_minus1,
)
from .linalg import _eliminate
from .rootdata import Coweight, coxeter_number, get_root_datum, u_mu_roots


def _line_depth(rd, line) -> int:
    """The depth i*h + Ht(alpha) of the affine line (alpha, i) at the
    barycenter rho-check/h; the Cartan line (None, i) has height 0."""
    root, power = line
    return power * coxeter_number(rd) + (0 if root is None else rd.height(root))


def all_lines(rd):
    """The (root, t-power) lines below the truncation, per t-power the
    Cartan line (None, i) first and then the roots in `rd.roots` order."""
    h = coxeter_number(rd)
    return [(root, i) for i in range(h + 2) for root in (None,) + rd.roots]


def filtration_basis(alg: ChevalleyAlgebra, r: int):
    """Lines of Lie I(r) (depth >= r)."""
    rd = alg.rd
    if not 0 <= r <= alg.h + 2:
        raise ValueError("r out of range")
    return [line for line in all_lines(rd) if _line_depth(rd, line) >= r]


# ---------------------------------------------------------------------------
# The functional phi.

def phi_eval(alg: ChevalleyAlgebra, Y) -> object:
    """phi(Y) = kappa(N^-, Y_1) + kappa(E_theta, Y_2) for Y in Lie I(1).

    Y is a list of algebra coefficient vectors, indexed by t-power; this is
    the residue pairing against t^{-1}N^- + t^{-2}E_theta.  N^- is the sum
    of the basis vectors at its support and E_theta the basis vector at
    theta's index, so both pairings are read off kappa_rows there.
    """
    acc = alg.field(0)
    if len(Y) > 1 and Y[1] is not None:
        for j in _minus_simples(alg):
            acc = acc + _kappa_basis(alg, Y[1], j)
    if len(Y) > 2 and Y[2] is not None:
        acc = acc + _kappa_basis(alg, Y[2], alg.rd.root_index[alg.rd.theta])
    return acc


def phi_generic_check(alg: ChevalleyAlgebra) -> bool:
    """phi is nonzero on each affine simple line of depth h+1 and vanishes
    on Lie I(2+h).

    The test vectors are the basis vectors b_j at t-powers 1 and 2, where
    phi is kappa(N^-, b_j) and kappa(E_theta, b_j), each read off kappa_rows
    at j; phi is zero at every other t-power."""
    rd = alg.rd
    nminus, _, _ = principal_sl2(alg)
    pairs = {1: nminus, 2: alg.E(rd.theta)}  # t-power -> what phi pairs it with

    def phi(root, power):
        w = pairs.get(power)
        return w is not None and _kappa_basis(alg, w, rd.root_index[root])

    if not all(phi(simple, 1) for simple in rd.simple_roots):
        return False
    if not phi(tuple(-c for c in rd.theta), 2):
        return False
    # vanishing on depth >= h+2 within the truncation
    return not any(phi(root, power) for root, power in filtration_basis(alg, alg.h + 2)
                   if root is not None)


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
            if _line_depth(rd, (a, i)) >= 1 and i <= h + 1:
                lines.add((a, i))
    phi_u, _ = u_mu_roots(rd, mu)
    expected = {(a, 0 if rd.height(a) > 0 else 1) for a in phi_u}
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

    # the parahoric depth i (h - 1) + Ht(alpha) of the line (alpha, i)
    depths = [(line, _line_depth(rd, line)) for line in all_lines(rd)]
    P = lambda r: {line for line, d in depths if d - line[1] >= r}
    I = lambda r: {line for line, d in depths if d >= r}
    dim = lambda lines: sum(rd.rank if root is None else 1 for root, _ in lines)
    if not P(2) <= I(2):
        return False
    if not (I(n + 2) <= P(1 + n) <= I(n + 1)):
        return False
    q1 = dim(P(1 + n) - I(n + 2))
    q2 = dim(I(n + 1) - P(1 + n))
    return (
        q1 == len(height_piece(alg, n + 1))
        and q2 == len(height_piece(alg, n + 1 - h))
    )


# ---------------------------------------------------------------------------
# GL_n truncated matrix group.

@lru_cache(maxsize=None)
def _gl_lines(n):
    """(row, col) of each root line of GL_n, in algebra-index order: the
    root e_row - e_col sits at that matrix entry."""
    return tuple(map(_gl_root_interval, get_root_datum("GL", n, "gl").roots))


@lru_cache(maxsize=None)
def _gl_depths(n):
    """{(t-power, row, col): depth} over the entries of a GL_n series, in
    (t-power, row, col) order: the entry (row, col) at t^i carries the line
    (e_row - e_col, i), and a diagonal entry the Cartan line (None, i)."""
    rd = get_root_datum("GL", n, "gl")
    roots = dict(zip(_gl_lines(n), rd.roots))
    return {(i, j, k): _line_depth(rd, (roots.get((j, k)), i))
            for i in range(n + 2) for j in range(n) for k in range(n)}


@lru_cache(maxsize=None)
def _gl_lines_at(n, r):
    """Per root line of GL_n, in algebra-index order, the (t-power, row, col)
    of its line of depth r, or None if that line lies past the truncation."""
    at = {(j, k): (i, j, k) for (i, j, k), d in _gl_depths(n).items() if d == r}
    return tuple(map(at.get, _gl_lines(n)))


class GLnModel:
    """GL_n(F_p[t]/t^(n+2)) together with its Iwahori filtration.

    A series is a list of N = n+2 blocks, the t^0 coefficient first; each
    block is an n x n list of int residues mod p.  For GF(p) a residue is
    the index of the field element, so an entry v equals model.field(v).
    The methods accept any ints and return residues in [0, p).

    A model exists only where `mul`'s packed reduction is exact: with b the
    bits of (n+2) n (p-1)^2, the largest sum a product slot holds, 2b +
    p.bit_length() must be at most 64 (at n = 8, p up to 1021); otherwise
    ValueError is raised before a field table is built.
    """

    def __init__(self, n: int, p: int):
        b = ((n + 2) * n * (p - 1) ** 2).bit_length()
        if 2 * b + p.bit_length() > 64:
            raise ValueError(f"GL_{n} series products over F_{p} overflow 64-bit slots")
        self.n = n
        self.p = p
        self.field = GF(p)
        self.rd = get_root_datum("GL", n, "gl")
        self.alg = build_algebra(self.rd, self.field)
        self.h = n
        self.N = n + 2  # truncation order
        self._slots = struct.Struct(f"<{self.N * n * n}Q")  # every row, packed
        self._row = struct.Struct(f"<{n}Q")  # one row of one block
        # M, s and the mask of each slot's low b bits, for `_residues`
        s = b + p.bit_length()
        low = sum((1 << b) - 1 << 64 * k for k in range(self.N * n * n))
        self._reduce = (-(-(1 << s) // p), s, low)
        self._identity = [
            [[int(j == k) for k in range(n)] for j in range(n)] if i == 0
            else [[0] * n for _ in range(n)]
            for i in range(self.N)
        ]

    # -- series arithmetic -------------------------------------------------

    def zero_series(self):
        return [[[0] * self.n for _ in range(self.n)] for _ in range(self.N)]

    def identity_series(self):
        return [[list(row) for row in blk] for blk in self._identity]

    def mul(self, A, B):
        """The product series A B, on packed rows.  All of B is packed by
        one struct call, row j over all N blocks into one int whose 64-bit
        slot m n + c holds B_m[j][c]; row r of A B is the sum of x (packed
        row j << 64 n i) over the nonzero entries x = A_i[r][j], with the
        all-zero rows of A skipped, cut to N n slots.  A slot sums at most
        N n products below p^2, so it is below 2^b and none carries.
        `_residues` reduces every slot mod p in the packed int, and the rows
        of A B are unpacked together, one row of one block per record."""
        n, p, N, slots = self.n, self.p, self.N, self._slots
        width = 64 * n  # one block of a packed row
        row_bits = width * N
        mask = (1 << row_bits) - 1
        whole = int.from_bytes(
            slots.pack(*[x % p for j in range(n) for blk in B for x in blk[j]]), "little")
        packed = [whole >> row_bits * j & mask for j in range(n)]
        acc = 0
        for r in range(n):
            row = 0
            for i, blk in enumerate(A):
                if any(blk[r]):
                    s = 0
                    for x, b in zip(blk[r], packed):
                        x %= p
                        if x:
                            s += x * b
                    row += s << width * i
            acc |= (row & mask) << row_bits * r
        out = self._residues(acc).to_bytes(slots.size, "little")
        rows = list(map(list, self._row.iter_unpack(out)))  # row r of block m at r N + m
        return [rows[m::N] for m in range(N)]

    def _residues(self, acc):
        """acc, packed as a product of `mul`, with every 64-bit slot value
        v < 2^b replaced by v mod p, by division by an invariant integer
        (Granlund and Montgomery): with s = b + p.bit_length() and
        M = ceil(2^s / p), floor(v / p) = floor(v M / 2^s).  Each slot's
        v M is below 2^(2b+1) <= 2^64, so the slots of acc M do not
        overlap, and after the shift by s the low b bits of a slot hold its
        quotient: the next slot's low s bits land at bit 64 - s >= b."""
        M, s, low = self._reduce
        return acc - self.p * ((acc * M >> s) & low)

    def eq(self, A, B):
        """A = B mod p.  Equal lists, as two reduced series that agree are,
        compare equal at once; other series are compared reduced."""
        if A == B:
            return True
        p = self.p
        return ([x % p for blk in A for row in blk for x in row]
                == [x % p for blk in B for row in blk for x in row])

    def in_filtration(self, A, r: int) -> bool:
        """A - 1 has depth >= r: reads only the entries of depth < r."""
        p = self.p
        ones, zeros = _shallow_positions(self.n, r)
        return (all(A[0][j][j] % p == 1 for j in ones)
                and not any(A[i][j][k] % p for i, j, k in zeros))

    # -- Lie <-> group -----------------------------------------------------

    def graded_lift(self, v, r: int):
        """Depth-r series with t-powers (r - Ht(alpha))/h per root line."""
        out = self.zero_series()
        lines = _gl_lines_at(self.n, r)
        for idx, c in enumerate(v):
            if not c:
                continue
            if idx >= len(lines):
                raise ValueError("graded lift of a Cartan line")
            if lines[idx] is None:
                raise ValueError(f"root {self.rd.roots[idx]} has no line of depth {r}")
            i, j, k = lines[idx]
            out[i][j][k] = (out[i][j][k] + c.v) % self.p
        return out

    def block_coords(self, blk):
        """The algebra coordinates of an n x n block, the inverse of the
        placement of a root line: each root's entry, then the diagonal as
        the Cartan coordinates."""
        F = self.field
        return ([F(blk[row][col]) for row, col in _gl_lines(self.n)]
                + [F(blk[j][j]) for j in range(self.n)])

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
        """t^2 X-tilde = E_theta + t N^-, the graded lift of X_{-1} at depth
        h - 1 (built once per model)."""
        return self.graded_lift(x_minus1(self.alg), self.h - 1)

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
        per t-power the diagonal for the Cartan line (from t^1 on), then the
        entry of each root line of depth >= 1."""
        n = self.n
        depths = _gl_depths(n)
        diag = [(j, j) for j in range(n)]
        draws = []
        for i in range(self.N):
            if depths[i, 0, 0] >= 1:
                draws.append((i, diag))
            draws += [(i, [(row, col)]) for row, col in _gl_lines(n) if depths[i, row, col] >= 1]
        return draws

    def random_I1(self, rng):
        """Uniform-ish element 1 + (random Lie I(1) coefficients).

        Each drawn entry is 0 in the identity and gets a uniform residue,
        drawn as `rng.randrange(p)` draws it on CPython: p.bit_length()
        random bits, drawn again while the value is >= p."""
        p = self.p
        k = p.bit_length()
        getrandbits = rng.getrandbits
        g = self.identity_series()
        for power, entries in self._i1_draws:
            blk = g[power]
            for i, j in entries:
                v = getrandbits(k)
                while v >= p:
                    v = getrandbits(k)
                blk[i][j] = v
        return g


def z_element(model: GLnModel, r: int):
    """Z_r as a truncated series: the cyclic shift power E_1^r, the sum of
    the entries of depth r."""
    if not 1 <= r <= model.n + 1:
        raise ValueError("r out of range")
    out = model.zero_series()
    for (i, j, k), d in _gl_depths(model.n).items():
        if d == r:
            out[i][j][k] = 1
    return out


def phi_z_values(model: GLnModel):
    """phi(Z_r) for r = 1..n+1; only r = n+1 pairs nontrivially (value n)."""
    return [phi_eval(model.alg, [model.block_coords(blk) for blk in z_element(model, r)])
            for r in range(1, model.n + 2)]


@lru_cache(maxsize=None)
def _shallow_positions(n, r):
    """The entries of depth < r of a GL_n series: the t^0 diagonal, which is
    1 in I(r) for r >= 1, and the (t-power, row, col) of the rest, which are 0."""
    ones = tuple(range(n)) if r > 0 else ()
    zeros = tuple((i, j, k) for (i, j, k), d in _gl_depths(n).items()
                  if d < r and not (i == 0 and j == k))
    return ones, zeros


@lru_cache(maxsize=None)
def _factor_bases(model_key, mu_coords):
    """Per depth r, int maps mod p that split the depth-r part of a remainder
    into its z_r, a_r^mu and u_{mu,r} parts: (reads, consistency, u_lines,
    a_lift, z_lift).

    A sample is the vector x of the remainder's entries at `reads`, the
    (t-power, row, col) of the depth-r root lines.  One `_eliminate` of
    [colmat | I] on residues, a row per depth-r line, with the z and a^mu
    bases and the basis vectors at the u_mu indices as the columns of
    colmat, gives an invertible E with E colmat reduced.  The rows of E
    below the rank are the consistency rows: x is in the span exactly when
    they all annihilate it.  The pivot rows of E give the coordinates that
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
    out = {}
    for r in range(1, (model.h + 1) // 2 + 1):
        zb = zs[r].basis
        ab = a_subspace(alg, r, mu).basis
        # column k as its nonzero (algebra index, residue) pairs
        cols = [[(idx, b.v) for idx, b in enumerate(col) if b] for col in zb + ab]
        cols += [[(idx, 1)] for idx in u_mu_piece(alg, mu, r)]
        k = len(cols)
        # algebra index -> (t-power, row, col) of its depth-r line
        lines = {idx: line for idx, line in enumerate(_gl_lines_at(n, r)) if line}
        row_of = {idx: t for t, idx in enumerate(lines)}
        aug = [[0] * k + [int(s == t) for s in range(len(lines))] for t in range(len(lines))]
        for c, col in enumerate(cols):
            for idx, b in col:
                if idx not in row_of:
                    raise ValueError(f"a basis vector has no line of depth {r}")
                aug[row_of[idx]][c] = b
        pivots = _eliminate(aug, model.field)
        rank = sum(c < k for c in pivots)
        E = [row[k:] for row in aug]
        parts = ({}, {}, {})  # z, a, u: algebra index -> row over x
        for erow, c in zip(E, pivots[:rank]):
            part = parts[(c >= len(zb)) + (c >= len(zb) + len(ab))]
            for idx, b in cols[c]:
                acc = part.setdefault(idx, [0] * len(lines))
                part[idx] = [(y + b * e) % p for y, e in zip(acc, erow)]

        def placed(part):
            return [lines[idx] + (part[idx],) for idx in sorted(part) if any(part[idx])]

        z_lift, a_lift, u_lines = map(placed, parts)
        out[r] = (list(lines.values()), E[rank:], u_lines, a_lift, z_lift)
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


@lru_cache(maxsize=None)
def _packing(n, p):
    """The slots of factorize_I1's packed series over GL_n(F_p): row j of a
    remainder holds entry (m, j, k) at slot m n + k, column k of a factor at
    slot (m n + j) n + k, so a factor's columns sum to the row-major series.
    A kernel reduces a slot once a product of residues is added, so a slot
    holds at most p (p - 1), of b bits; `width` is the least of 16, 32 and 64
    with 2b + p.bit_length() <= width, for `reduce` to act as in `mul`.
    `GLnModel`'s guard is that bound at 64 for a larger b.  `block` is one
    block of a row, masks[b] cuts a row to b blocks and `full` a column;
    `series` and `row` unpack a series and one row of one block."""
    N, bits, b = n + 2, p.bit_length(), (p * (p - 1)).bit_length()
    width, code = next((w, c) for w, c in ((16, "H"), (32, "I"), (64, "Q")) if 2 * b + bits <= w)
    low = sum((1 << b) - 1 << width * k for k in range(N * n * n))
    masks = tuple((1 << width * n * blocks) - 1 for blocks in range(N + 1))
    return SimpleNamespace(
        n=n, p=p, width=width, block=width * n, masks=masks, full=(1 << width * N * n * n) - 1,
        reduce=(-(-(1 << b + bits) // p), b + bits, low),
        series=struct.Struct(f"<{N * n * n}{code}"), row=struct.Struct(f"<{n}{code}"))


@lru_cache(maxsize=None)
def _filtration_masks(n, p, r):
    """(mask, value) per packed row: a reduced series is in I(r) exactly when
    row & mask == value for every row, the masks covering the entries of
    depth < r (`_shallow_positions`) and the values their 1s, on the diagonal."""
    width = _packing(n, p).width
    ones, zeros = _shallow_positions(n, r)
    masks = [0] * n
    for i, j, k in [(0, j, j) for j in ones] + list(zeros):
        masks[j] |= (1 << width) - 1 << width * (i * n + k)
    return tuple((mask, (j in ones) << width * j) for j, mask in enumerate(masks))


def _pack_rows(pk, A):
    """The packed rows of the series A, its entries reduced mod p."""
    n, p = pk.n, pk.p
    whole = int.from_bytes(
        pk.series.pack(*[x % p for j in range(n) for blk in A for x in blk[j]]), "little")
    return [whole >> pk.block * (n + 2) * j & pk.masks[n + 2] for j in range(n)]


def _unpack_rows(pk, rows):
    """The series with packed rows `rows`, by one struct call."""
    N = pk.n + 2
    whole = sum(row << pk.block * N * j for j, row in enumerate(rows))
    out = list(map(list, pk.row.iter_unpack(whole.to_bytes(pk.series.size, "little"))))
    return [out[m::N] for m in range(N)]  # row j of block m at j N + m


def _unpack_cols(pk, cols):
    """The series with packed columns `cols`, by one struct call."""
    out = list(map(list, pk.row.iter_unpack(sum(cols).to_bytes(pk.series.size, "little"))))
    return [out[m * pk.n:(m + 1) * pk.n] for m in range(pk.n + 2)]  # row j of block m at m n + j


def _one_plus_rows(pk, entries, rows, blocks):
    """(1 + Z) A in place on packed rows cut to `blocks` blocks, Z the sum of
    c t^i E_jk over entries (i, j, k, c): row j gains c t^i (row k of old A)."""
    p, block, (M, s, low), mask = pk.p, pk.block, pk.reduce, pk.masks[blocks]
    for j, v in [(j, c % p * rows[k] << block * i) for i, j, k, c in entries]:
        v = rows[j] + v & mask
        rows[j] = v - p * ((v * M >> s) & low)


def _solve_one_plus_rows(pk, entries, rows, blocks):
    """(1 + Z)^{-1} A in place, as `_one_plus_rows`: X = A - Z X, one pass per
    block m.  It takes the t^0 entries (j, k) of Z rows bottom-up (k > j at
    positive depth); block m is then final, and each entry at t^i, i > 0,
    reads it off row k into block m + i of row j.  Depths are checked first."""
    p, depths = pk.p, _gl_depths(pk.n)
    at0, later = [], []
    for i, j, k, c in entries:
        if depths[i, j, k] < 1:
            raise ValueError(f"t^{i} entry ({j}, {k}) of Z does not have positive depth")
        (later if i else at0).append((i, j, k, -c % p))
    at0.sort(key=operator.itemgetter(1), reverse=True)
    (M, s, low), block, one = pk.reduce, pk.block, pk.masks[1]
    for m in range(blocks):
        here = one << block * m
        for _, j, k, c in at0:
            v = rows[j] + c * (rows[k] & here)
            rows[j] = v - p * ((v * M >> s) & low)
        for i, j, k, c in later:
            if m + i < blocks:
                v = rows[j] + (c * (rows[k] >> block * m & one) << block * (m + i))
                rows[j] = v - p * ((v * M >> s) & low)


def _times_one_plus_cols(pk, cols, entries):
    """A (1 + Z) in place on the packed columns of A, Z as in `_one_plus_rows`
    of positive depth: column k gains c times column j of old A, moved i blocks."""
    n, p, width, (M, s, low) = pk.n, pk.p, pk.width, pk.reduce
    for k, v in [(k, c % p * cols[j] << width * (i * n * n + k - j)) for i, j, k, c in entries]:
        v = cols[k] + v & pk.full
        cols[k] = v - p * ((v * M >> s) & low)
    return cols


def factorize_I1(model: GLnModel, g, mu: Coweight):
    """g = u * a * s * residual with u in Ad_{t^-mu}U_mu, a a product of
    depth-r A-factors, s in S(1), residual in I(1 + ceil(h/2)).

    The remainder (u a s)^{-1} g is carried as s^{-1} a^{-1} w with
    w = u^{-1} g, w as packed rows and u, a and s as packed columns
    (`_packing`), unpacked on return; each factor is the entry list of its
    part off the identity.  A root-line factor 1 + Y (Y square-zero,
    inverse 1 - Y) updates u by a column and w by a row operation, an
    A-factor exp(Y) updates a by column operations and is undone on the
    remainder by the row operations of exp(-Y), and an S-factor 1 + Z
    updates s by column operations and is undone by a triangular solve.
    """
    if not model.in_filtration(g, 1):
        raise ValueError("element is not in I(1)")
    n, p = model.n, model.p
    half = (model.h + 1) // 2
    maps = _factor_bases((n, p), tuple(mu.coords))
    pk = _packing(n, p)
    width, slot = pk.width, (1 << pk.width) - 1
    w = _pack_rows(pk, g)
    u, a, s = ([1 << width * k * (n + 1) for k in range(n)] for _ in "uas")
    a_steps, s_steps = [], []  # exp(-Y) - 1 and Z of each factor, in step order

    def remainder(blocks):
        d = [row & pk.masks[blocks] for row in w]
        for e in a_steps:
            _one_plus_rows(pk, e, d, blocks)
        for z in s_steps:
            _solve_one_plus_rows(pk, z, d, blocks)
        return d

    for r in range(1, half + 1):
        # the step reads only entries of depth <= r <= h; an entry at t^i
        # has depth at least i h - (h - 1), so these lie in blocks 0 and 1
        d = remainder(2)
        if any(row & m != v for row, (m, v) in zip(d, _filtration_masks(n, p, r))):
            raise VerificationError(f"remainder before step {r} is not in I({r})")
        reads, consistency, u_lines, a_lift, z_lift = maps[r]
        x = [d[j] >> width * (i * n + k) & slot for i, j, k in reads]
        if any(sum(map(operator.mul, row, x)) % p for row in consistency):
            raise VerificationError(f"depth-{r} part is not in z + a^mu + u_mu")
        # u-part: product of one-parameter root subgroups (each square-zero)
        for i, j, k, c in _entries(u_lines, x, p):
            _times_one_plus_cols(pk, u, [(i, j, k, c)])
            _one_plus_rows(pk, [(i, j, k, p - c)], w, model.N)
        # a-part: exp of the graded lift (a t^{-mu}w_P-conjugate of exp(tY))
        ya = _entries(a_lift, x, p)
        if ya:
            e, e_minus = _exp_pair(model, ya)
            _times_one_plus_cols(pk, a, e)
            a_steps.append(e_minus)
        # s-part: 1 + Z with Z a multiple of E_1^r, which commutes with
        # t N^- + E_theta, so 1 + Z lies in S(r)
        zs = _entries(z_lift, x, p)
        if zs:
            if not model.stabilizes_x_tilde(zs):
                raise VerificationError(f"the depth-{r} S-factor does not fix X-tilde")
            s_steps.append(zs)
            _times_one_plus_cols(pk, s, zs)
    residual = _unpack_rows(pk, remainder(model.N))
    if not model.in_filtration(residual, 1 + half):
        raise VerificationError(f"residual is not in I({1 + half})")
    return _unpack_cols(pk, u), _unpack_cols(pk, a), _unpack_cols(pk, s), residual


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
    bits, getrandbits = p.bit_length(), rng.getrandbits

    def residue():  # as rng.randrange(p) draws it on CPython (see random_I1)
        v = getrandbits(bits)
        while v >= p:
            v = getrandbits(bits)
        return v

    def draw(basis):
        return _combine(alg, [residue() for _ in basis], basis)

    def draw_indices(indices):
        v = alg.zero()
        for i in indices:
            v[i] = alg.field(residue())
        return v

    coords = [
        (draw_indices(u_mu_piece(alg, mu, r)), draw(a_subspace(alg, r, mu).basis),
         draw(zs[r].basis))
        for r in range(1, half + 1)
    ]
    residual = model.identity_series()
    for (i, j, k), d in _gl_depths(model.n).items():
        if d > half:
            residual[i][j][k] = (residual[i][j][k] + residue()) % p
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
