"""Truncated loop algebra and the GL_n truncated loop group.

Everything is truncated at t^(h+2): the functional phi vanishes on
Lie I(2+h), so no information is lost.  Affine filtration lines are pairs
(root, t-power) with Moy-Prasad depth i*h + Ht(alpha) for the Iwahori
barycenter rho-check/h; the Cartan occupies the root=None lines of depth i*h.

The group-level factorization is implemented in the GL_n matrix model: a
group element is a list of h+2 matrices over F_p (the t-power coefficients).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import VerificationError
from .arith import GF
from .chevalley import (
    ChevalleyAlgebra,
    a_subspace,
    build_algebra,
    centralizer_z,
    height_piece,
    principal_sl2,
    u_mu_piece,
)
from .linalg import inverse, mat_mul, solve
from .rootdata import Coweight, coxeter_number, get_root_datum, u_mu_roots


@dataclass(frozen=True)
class AffineRootIndex:
    root: tuple  # root coordinates, or None for the Cartan block
    power: int

    def height(self, rd):
        return 0 if self.root is None else rd.height(self.root)

    def depth(self, rd):
        h = coxeter_number(rd)
        return self.power * h + self.height(rd)


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


def filtration_dim(alg: ChevalleyAlgebra, r: int, r_hi: int) -> int:
    return sum(line_dim(alg.rd, l) for l in filtration_basis(alg, r, r_hi))


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
        return line.power * (h - 1) + line.height(rd)

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
    """GL_n(F_p[t]/t^(n+2)) together with its Iwahori filtration."""

    def __init__(self, n: int, p: int):
        self.n = n
        self.p = p
        self.field = GF(p)
        self.rd = get_root_datum("GL", n, "gl")
        self.alg = build_algebra(self.rd, self.field)
        self.h = n
        self.N = n + 2  # truncation order

    # -- series arithmetic -------------------------------------------------

    def zero_series(self):
        z = self.field(0)
        return [[[z] * self.n for _ in range(self.n)] for _ in range(self.N)]

    def identity_series(self):
        g = self.zero_series()
        for i in range(self.n):
            g[0][i][i] = self.field(1)
        return g

    def mul(self, A, B):
        out = self.zero_series()
        for i in range(self.N):
            if not any(any(row) for row in A[i]):
                continue
            for j in range(self.N - i):
                if not any(any(row) for row in B[j]):
                    continue
                prod = mat_mul(A[i], B[j])
                tgt = out[i + j]
                for r in range(self.n):
                    for c in range(self.n):
                        tgt[r][c] = tgt[r][c] + prod[r][c]
        return out

    def inv(self, A):
        inv0 = inverse(A[0], self.field(1))
        out = self.zero_series()
        out[0] = inv0
        for k in range(1, self.N):
            acc = [[self.field(0)] * self.n for _ in range(self.n)]
            for i in range(1, k + 1):
                prod = mat_mul(A[i], out[k - i])
                for r in range(self.n):
                    for c in range(self.n):
                        acc[r][c] = acc[r][c] + prod[r][c]
            out[k] = [[-x for x in row] for row in mat_mul(inv0, acc)]
        return out

    def eq(self, A, B):
        return all(A[i] == B[i] for i in range(self.N))

    def depth(self, A):
        """Filtration depth of A - 1; returns None for the identity."""
        one = self.identity_series()
        best = None
        for i in range(self.N):
            for r in range(self.n):
                for c in range(self.n):
                    if A[i][r][c] != one[i][r][c]:
                        d = i * self.h + (c - r)
                        if best is None or d < best:
                            best = d
        return best

    def in_filtration(self, A, r: int) -> bool:
        d = self.depth(A)
        return d is None or d >= r

    # -- Lie <-> group -----------------------------------------------------

    def graded_lift(self, v, r: int):
        """Depth-r series with t-powers (r - Ht(alpha))/h per root line."""
        out = self.zero_series()
        for idx, c in enumerate(v):
            if not c:
                continue
            if idx >= 2 * self.alg.npos:
                raise ValueError("graded lift of a Cartan line")
            a = self.alg.basis_roots[idx]
            ht = self.rd.height(a)
            i, rem = divmod(r - ht, self.h)
            if rem or not 0 <= i < self.N:
                raise ValueError(f"root {a} has no line of depth {r}")
            m = self.alg.matrix_of(self.alg.E(a))
            for rr in range(self.n):
                for cc in range(self.n):
                    if m[rr][cc]:
                        out[i][rr][cc] = out[i][rr][cc] + c * m[rr][cc]
        return out

    def exp_series(self, Y):
        """exp of a positive-depth series; the series must terminate
        before 1/p! is needed."""
        out = self.identity_series()
        term = self.identity_series()
        k = 0
        while True:
            k += 1
            term = self.mul(term, Y)
            if all(not any(any(row) for row in term[i]) for i in range(self.N)):
                break
            if k >= self.p:
                raise ValueError("exp series does not terminate before 1/p!")
            fk = self.field(1)
            for i in range(2, k + 1):
                fk = fk * i
            coeff = self.field(1) / fk
            for i in range(self.N):
                for r in range(self.n):
                    for c in range(self.n):
                        out[i][r][c] = out[i][r][c] + coeff * term[i][r][c]
        return out

    def x_tilde_t2(self):
        """t^2 * X-tilde = t N^- + E_theta as a series."""
        out = self.zero_series()
        nminus, _, _ = principal_sl2(self.alg)
        m1 = self.alg.matrix_of(nminus)
        m0 = self.alg.matrix_of(self.alg.E(self.rd.theta))
        out[0] = m0
        for r in range(self.n):
            for c in range(self.n):
                out[1][r][c] = out[1][r][c] + m1[r][c]
        return out

    def stabilizes_x_tilde(self, A) -> bool:
        X = self.x_tilde_t2()
        return self.eq(self.mul(A, X), self.mul(X, A))

    def random_I1(self, rng):
        """Uniform-ish element 1 + (random Lie I(1) coefficients)."""
        g = self.identity_series()
        for line in filtration_basis(self.alg, 1):
            if line.root is None:
                for j in range(self.n):
                    g[line.power][j][j] = g[line.power][j][j] + self.field(
                        rng.randrange(self.p)
                    )
            else:
                i, j = _root_entry(line.root)
                g[line.power][i][j] = g[line.power][i][j] + self.field(
                    rng.randrange(self.p)
                )
        return g


def _root_entry(root):
    from .chevalley import _gl_root_interval

    return _gl_root_interval(root)


@lru_cache(maxsize=None)
def _factor_bases(model_key, mu_coords):
    """Per-depth (z, a^mu, u_mu) bases and the solve matrix, cached."""
    n, p = model_key
    model = GLnModel(n, p)
    alg = model.alg
    mu = Coweight(mu_coords)
    zs = centralizer_z(alg)
    out = {}
    for r in range(1, (model.h + 1) // 2 + 1):
        zb = zs[r].basis
        ab = a_subspace(alg, r, mu).basis
        ub = u_mu_piece(alg, mu, r).basis
        cols = zb + ab + ub
        out[r] = (zb, ab, ub, cols)
    return out


def factorize_I1(model: GLnModel, g, mu: Coweight):
    """g = u * a * s * residual with u in Ad_{t^-mu}U_mu, a a product of
    depth-r A-factors, s in S(1), residual in I(1 + ceil(h/2))."""
    if not model.in_filtration(g, 1):
        raise ValueError("element is not in I(1)")
    alg = model.alg
    h = model.h
    half = (h + 1) // 2
    bases = _factor_bases((model.n, model.p), tuple(mu.coords))
    u = model.identity_series()
    a = model.identity_series()
    s = model.identity_series()
    for r in range(1, half + 1):
        d = model.mul(model.inv(model.mul(model.mul(u, a), s)), g)
        if not model.in_filtration(d, r):
            raise VerificationError(f"remainder before step {r} is not in I({r})")
        # depth-r component of d - 1, as a cyclic-degree-r algebra vector
        X = alg.zero()
        for idx, root in enumerate(alg.basis_roots):
            ht = alg.rd.height(root)
            i, rem = divmod(r - ht, h)
            if rem == 0 and 0 <= i < model.N:
                rr, cc = _root_entry(root)
                X[idx] = d[i][rr][cc]
        zb, ab, ub, cols = bases[r]
        if cols:
            colmat = [[col[i] for col in cols] for i in range(alg.dim)]
            sol = solve(colmat, X)
            if sol is None:
                raise VerificationError(f"depth-{r} part is not in z + a^mu + u_mu")
        else:
            sol = []
        nz, na = len(zb), len(ab)

        def combine(basis, coeffs):
            v = alg.zero()
            for c, b in zip(coeffs, basis):
                for i, bi in enumerate(b):
                    v[i] = v[i] + c * bi
            return v

        zvec = combine(zb, sol[:nz])
        avec = combine(ab, sol[nz:nz + na])
        uvec = combine(ub, sol[nz + na:])
        # u-part: product of one-parameter root subgroups (each square-zero)
        for idx, c in enumerate(uvec):
            if c:
                lift = model.graded_lift(
                    [c if i == idx else alg.field(0) for i in range(alg.dim)], r
                )
                one = model.identity_series()
                for i in range(model.N):
                    for rr in range(model.n):
                        for cc in range(model.n):
                            one[i][rr][cc] = one[i][rr][cc] + lift[i][rr][cc]
                u = model.mul(u, one)
        # a-part: exp of the graded lift (a t^{-mu}w_P-conjugate of exp(tY))
        if any(avec):
            a = model.mul(a, model.exp_series(model.graded_lift(avec, r)))
        # s-part: 1 + Z with Z a multiple of E_1^r, which commutes with
        # t N^- + E_theta, so 1 + Z lies in S(r)
        if any(zvec):
            lift = model.graded_lift(zvec, r)
            sr = model.identity_series()
            for i in range(model.N):
                for rr in range(model.n):
                    for cc in range(model.n):
                        sr[i][rr][cc] = sr[i][rr][cc] + lift[i][rr][cc]
            if not model.stabilizes_x_tilde(sr):
                raise VerificationError(f"the depth-{r} S-factor does not fix X-tilde")
            s = model.mul(s, sr)
    residual = model.mul(model.inv(model.mul(model.mul(u, a), s)), g)
    if not model.in_filtration(residual, 1 + half):
        raise VerificationError(f"residual is not in I({1 + half})")
    return u, a, s, residual


def exp_product_valuation(model: GLnModel, Y1, Y2, r: int):
    """Depth of exp(-(Y1+Y2)t) exp(Y1 t) exp(Y2 t); None for the identity.

    Y1, Y2 are algebra vectors (Y1 in a, Y2 in a_r); the t factor makes
    each exp a terminating series.
    """
    def t_embed(v):
        out = model.zero_series()
        m = model.alg.matrix_of(v)
        for rr in range(model.n):
            for cc in range(model.n):
                out[1][rr][cc] = m[rr][cc]
        return out

    ysum = [x + y for x, y in zip(Y1, Y2)]
    g = model.mul(
        model.inv(model.exp_series(t_embed(ysum))),
        model.mul(model.exp_series(t_embed(Y1)), model.exp_series(t_embed(Y2))),
    )
    return model.depth(g)
