"""Root-system combinatorics for types A-G and GL_n.

Roots are stored as coordinate vectors in the simple-root basis, so heights
are coordinate sums and the cyclic height classes are cheap.  Coweights are
integer vectors in fundamental-coweight coordinates, except for GL_n where
the cocharacter lattice is Z^n with the standard pairing.

Conventions: cartan[i][j] = <alpha_j, alpha-check_i>.  Weyl elements act on
root coordinates through their int `matrix`, built from their `word`, the
simple reflection indices applied left to right (w = s_{w[0]} s_{w[1]} ...).
The words of w_0 and w_{P,0} are reduced; that of w_P = w_{P,0} w_0 is their
concatenation, which need not be: for A2 it is (1, 0, 1, 0).  A reduced word
of w_P, (0, 1) there, is read off its matrix by `wP_reduced_word`.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

from . import Frozen, VerificationError
from .linalg import det, solve

SERIES = ("A", "B", "C", "D", "E", "F", "G", "GL")
FORMS = ("sc", "adjoint", "gl")


def cartan_matrix(series: str, rank: int):
    """Cartan matrix with entries a[i][j] = <alpha_j, alpha-check_i>."""
    n = rank - 1 if series == "GL" else rank  # GL_n has the Cartan matrix of A_{n-1}
    if series in ("A", "GL"):
        if n < 1:
            raise ValueError("rank must be >= 1")
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            a[i][i] = 2
            if i + 1 < n:
                a[i][i + 1] = a[i + 1][i] = -1
        return a
    if series in ("B", "C"):
        if n < 2:
            raise ValueError(f"type {series} needs rank >= 2")
        a = cartan_matrix("A", n)
        if series == "B":
            # alpha_n short: <alpha_{n-1}, alpha-check_n> = -2
            a[n - 1][n - 2] = -2
        else:
            a[n - 2][n - 1] = -2
        return a
    if series == "D":
        if n < 3:
            raise ValueError("type D needs rank >= 3")
        a = cartan_matrix("A", n)
        a[n - 1][n - 2] = a[n - 2][n - 1] = 0
        a[n - 1][n - 3] = a[n - 3][n - 1] = -1
        return a
    if series == "G":
        if n != 2:
            raise ValueError("type G has rank 2")
        return [[2, -1], [-3, 2]]
    if series == "F":
        if n != 4:
            raise ValueError("type F has rank 4")
        return [
            [2, -1, 0, 0],
            [-1, 2, -1, 0],
            [0, -2, 2, -1],
            [0, 0, -1, 2],
        ]
    if series == "E":
        if n not in (6, 7, 8):
            raise ValueError("type E has rank 6, 7 or 8")
        # Bourbaki numbering: node 2 hangs off node 4 of the A-chain 1-3-4-5-...
        chain = [1, 3, 4] + list(range(5, n + 1))
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            a[i][i] = 2
        for u, v in zip(chain, chain[1:]):
            a[u - 1][v - 1] = a[v - 1][u - 1] = -1
        a[1][3] = a[3][1] = -1
        return a
    raise ValueError(f"unknown series {series!r}")


def symmetrizer(cartan):
    """d_i with d_i * a[i][j] = d_j * a[j][i], as the smallest positive
    integers: for a connected finite type 1 on the short simple roots and 2
    or 3 on the long ones, all 1 when it is simply laced."""
    n = len(cartan)
    d = [None] * n
    d[0] = Fraction(1)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            if d[i] is None:
                continue
            for j in range(n):
                if i != j and cartan[i][j] and d[j] is None:
                    d[j] = d[i] * cartan[i][j] / cartan[j][i]
                    changed = True
    scale = math.lcm(*(x.denominator for x in d))
    d = [int(x * scale) for x in d]
    g = math.gcd(*d)
    return [x // g for x in d]


def _enumerate_positive_roots(cartan):
    """All positive roots in simple-root coordinates, by height then lex."""
    n = len(cartan)
    roots = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    frontier = list(roots)
    while frontier:
        fresh = []
        for beta in frontier:
            for i in range(n):
                # p = length of the alpha_i-string below beta
                p = 0
                cur = list(beta)
                while True:
                    cur[i] -= 1
                    if tuple(cur) in roots:
                        p += 1
                    else:
                        break
                pair = sum(cartan[i][j] * beta[j] for j in range(n))
                if p - pair > 0:
                    new = tuple(
                        c + (1 if j == i else 0) for j, c in enumerate(beta)
                    )
                    if new not in roots:
                        roots.add(new)
                        fresh.append(new)
        frontier = fresh
    return sorted(roots, key=lambda r: (sum(r), r))


class Coweight(Frozen):
    """Integer cocharacter; fundamental-coweight coords, or Z^n for GL."""

    _fields = ("coords",)

    def __init__(self, coords: tuple):
        object.__setattr__(self, "coords", coords)

    def __repr__(self):
        return f"Coweight{self.coords}"


class WeylElement(Frozen):
    _fields = ("matrix", "word")

    def __init__(self, matrix: tuple, word: tuple):
        object.__setattr__(self, "matrix", matrix)  # action on simple-root coordinates
        object.__setattr__(self, "word", word)  # applied left to right

    def apply_root(self, coords):
        return tuple(sum(map(operator.mul, row, coords)) for row in self.matrix)


class RootDatum(Frozen):
    """Compared, hashed and printed on the eight structural fields of
    `_fields`; `pairings` and the root layout derived from `pos_roots`
    (`roots`, `root_index`, `neg`, `simple_roots`) take no part.  The hash
    is computed once, since every lru_cache keyed on a root datum hashes it
    on each call."""

    _fields = ("series", "rank", "form", "n", "cartan", "d", "pos_roots", "coroots")

    def __init__(self, series: str, rank: int, form: str, n: int, cartan: tuple, d: tuple,
                 pos_roots: tuple, coroots: tuple, pairings: tuple):
        set_ = object.__setattr__
        set_(self, "series", series)
        set_(self, "rank", rank)
        set_(self, "form", form)
        set_(self, "n", n)  # semisimple rank
        set_(self, "cartan", cartan)  # n x n, rows = coroot index
        set_(self, "d", d)  # symmetrizer, ints (root half-lengths)
        set_(self, "pos_roots", pos_roots)  # positive roots, simple-root coords, height/lex order
        set_(self, "coroots", coroots)  # coroots of the positive roots, simple-coroot coords
        # pairings[a][i] = <root a, alpha-check_i> as ints, for the roots in
        # `roots` order; <root a, coroot> for a coroot with simple-coroot
        # coordinates b is sum_i b_i pairings[a][i]
        set_(self, "pairings", pairings)
        # the root layout, derived from pos_roots: the negatives follow the
        # positives in the same order, and the simple roots, of height 1,
        # come first in lex order, that is alpha_{n-1}, ..., alpha_0
        npos = len(pos_roots)
        roots = pos_roots + tuple(tuple(-c for c in r) for r in pos_roots)
        set_(self, "roots", roots)
        set_(self, "root_index", {a: i for i, a in enumerate(roots)})
        set_(self, "neg", tuple(range(npos, 2 * npos)) + tuple(range(npos)))
        set_(self, "simple_roots", pos_roots[n - 1::-1])  # alpha_i at position i
        set_(self, "_hash", hash(self._key()))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt rather than restored, since str hashes differ between processes
        return RootDatum, self._key() + (self.pairings,)

    # -- basic structure -------------------------------------------------

    @property
    def num_roots(self):
        return 2 * len(self.pos_roots)

    @property
    def theta(self):
        return self.pos_roots[-1]

    @property
    def dim_g(self):
        return self.rank + self.num_roots

    @property
    def dim_b(self):
        return self.rank + len(self.pos_roots)

    def height(self, root):
        return sum(root)

    def pairing(self, root, mu: Coweight):
        """<alpha, mu> for a root alpha and a cocharacter mu."""
        m = mu.coords
        if self.series == "GL":  # <alpha_k, mu> = m_k - m_{k+1}
            m = map(operator.sub, m, m[1:])
        return sum(map(operator.mul, root, m))

    def heights_count(self):
        """k_r = number of positive roots of height r, as a dict."""
        k = {}
        for r in self.pos_roots:
            k[sum(r)] = k.get(sum(r), 0) + 1
        return k

    # -- lattice membership ----------------------------------------------

    def _coroot_lattice_coords(self, pairing):
        """The rational b with sum_i b_i cartan[i][j] = pairing[j] for every
        j: the combination sum_i b_i coroot_i of the simple coroots that
        pairs to pairing[j] with alpha_j.  A coweight in fundamental-coweight
        coordinates is its own pairing vector."""
        Ct = [[Fraction(row[j]) for row in self.cartan] for j in range(self.n)]
        return tuple(solve(Ct, [Fraction(m) for m in pairing]))

    def in_lattice(self, mu: Coweight) -> bool:
        """Whether mu lies in the cocharacter lattice of this form (not for
        GL, whose minuscule coweights are listed directly)."""
        if self.form == "adjoint":
            return all(isinstance(c, int) for c in mu.coords)
        b = self._coroot_lattice_coords(mu.coords)
        return all(x.denominator == 1 for x in b)

    def is_minuscule(self, mu: Coweight) -> bool:
        return all(0 <= self.pairing(a, mu) <= 1 for a in self.pos_roots)

    def is_dominant(self, mu: Coweight) -> bool:
        return all(self.pairing(a, mu) >= 0 for a in self.simple_roots)


def build_root_datum(series: str, rank: int, form: str = "sc") -> RootDatum:
    if series not in SERIES:
        raise ValueError(f"unknown series {series!r}")
    if series == "GL":
        if form != "gl":
            raise ValueError("GL series requires form='gl'")
        if rank < 2:
            raise ValueError("GL_n needs n >= 2")
    elif form not in ("sc", "adjoint"):
        raise ValueError(f"form must be 'sc' or 'adjoint' for type {series}")
    cartan = cartan_matrix(series, rank)
    n = len(cartan)
    d = symmetrizer(cartan)
    pos = tuple(_enumerate_positive_roots(cartan))
    pairings = tuple(
        tuple(sum(a * c for a, c in zip(row, beta)) for row in cartan) for beta in pos
    )
    # coroot_j = 2 d_j beta_j / (beta, beta), an integer quotient, with
    # (beta, beta) = sum_j d_j beta_j <beta, alpha-check_j>
    coroots = []
    for beta, t in zip(pos, pairings):
        norm = sum(dj * bj * tj for dj, bj, tj in zip(d, beta, t))
        cr = [divmod(2 * dj * bj, norm) for dj, bj in zip(d, beta)]
        if any(rem for _, rem in cr):
            raise VerificationError(f"coroot of {beta} is not integral")
        coroots.append(tuple(q for q, _ in cr))
    rd = RootDatum(
        series=series,
        rank=rank,
        form="gl" if series == "GL" else form,
        n=n,
        cartan=tuple(tuple(r) for r in cartan),
        d=tuple(d),
        pos_roots=pos,
        coroots=tuple(coroots),
        pairings=pairings + tuple(tuple(-c for c in t) for t in pairings),
    )
    _check_invariants(rd)
    return rd


def _check_invariants(rd: RootDatum):
    h = coxeter_number(rd)
    if rd.num_roots != rd.n * h:
        raise VerificationError(f"{rd.num_roots} roots, want rank * h = {rd.n * h}")
    if rd.height(rd.theta) != h - 1:
        raise VerificationError("the highest root does not have height h - 1")
    for beta, cr, t in zip(rd.pos_roots, rd.coroots, rd.pairings):
        if sum(b * x for b, x in zip(cr, t)) != 2:
            raise VerificationError(f"<{beta}, coroot> != 2")
    es = exponents(rd)
    if sum(es) != len(rd.pos_roots):
        raise VerificationError("the exponents do not sum to the number of positive roots")
    if any(a + b != h for a, b in zip(es, reversed(es))):
        raise VerificationError("the exponents are not symmetric about h/2")


@lru_cache(maxsize=None)
def get_root_datum(series: str, rank: int, form: str = "sc") -> RootDatum:
    return build_root_datum(series, rank, form)


def coxeter_number(rd: RootDatum) -> int:
    return rd.height(rd.theta) + 1


def exponents(rd: RootDatum):
    """Exponents as a sorted list, via the height-count differences."""
    k = rd.heights_count()
    h = coxeter_number(rd)
    out = []
    for r in range(1, h):
        mult = k.get(r, 0) - k.get(r + 1, 0)
        out.extend([r] * mult)
    return sorted(out)


# ---------------------------------------------------------------------------
# Minuscule coweights.

def fundamental_coweight(rd: RootDatum, i: int) -> Coweight:
    return Coweight(tuple(1 if j == i else 0 for j in range(rd.n)))


@lru_cache(maxsize=None)
def minuscule_coweights(rd: RootDatum):
    """All mu in X_*(T) with 0 <= <alpha, mu> <= 1 for every positive alpha,
    as a tuple.

    For GL_n the set is infinite, the (c+1)^k c^(n-k) for every integer c;
    this returns the n of degree 0 to n - 1, the 1^k 0^(n-k).
    """
    if rd.series == "GL":
        out = [Coweight((1,) * k + (0,) * (rd.rank - k)) for k in range(rd.rank)]
    else:
        out = [Coweight((0,) * rd.n)]
        for i in range(rd.n):
            if rd.theta[i] == 1:
                mu = fundamental_coweight(rd, i)
                if rd.in_lattice(mu):
                    out.append(mu)
    for mu in out:
        if not rd.is_minuscule(mu):
            raise VerificationError(f"{mu.coords} is not minuscule")
    return tuple(out)


def minuscule_bijection_check(rd: RootDatum) -> bool:
    """Minuscule characters biject with X^*(T) modulo the root lattice.

    The character-lattice count of minuscule elements must equal the index
    of the root lattice, with distinct elements in distinct classes.  Not
    for GL_n, whose minuscule coweights (c+1)^k c^(n-k) have the distinct
    degrees n c + k by construction.
    """
    # the dual datum: B and C swap, sc and adjoint swap; for G2 and F4 the
    # library's Cartan matrix is the transpose with the nodes relabelled,
    # which moves neither the count nor the classes below
    dual = get_root_datum(
        {"B": "C", "C": "B"}.get(rd.series, rd.series), rd.rank,
        {"sc": "adjoint", "adjoint": "sc"}[rd.form],
    )
    ms = minuscule_coweights(dual)
    index = 1 if rd.form == "adjoint" else abs(det(rd.cartan))
    if len(ms) != index:
        return False
    # distinct classes mod the (co)root lattice of the dual datum
    seen = set()
    for mu in ms:
        b = dual._coroot_lattice_coords(mu.coords)
        cls = tuple(x - math.floor(x) for x in b)
        if cls in seen:
            return False
        seen.add(cls)
    return True


def alpha_mu(rd: RootDatum, mu: Coweight):
    """Index of the unique simple root pairing to 1 with mu, or None."""
    if not rd.is_minuscule(mu):
        raise ValueError("mu is not minuscule")
    hits = [i for i, a in enumerate(rd.simple_roots) if rd.pairing(a, mu) == 1]
    if not hits:
        return None
    if len(hits) != 1:
        raise VerificationError(f"simple roots {hits} all pair to 1 with {mu.coords}")
    return hits[0]


# ---------------------------------------------------------------------------
# Weyl elements.

def _longest_word(rd: RootDatum, subset):
    """Reduced word for the longest element of the parabolic W_subset."""
    # Push rho of the sub-system to the anti-dominant chamber, recording
    # the reflections used; pairings live in fundamental-weight coords.
    n = rd.n
    v = [1 if i in subset else 0 for i in range(n)]
    word = []
    while True:
        j = next((j for j in subset if v[j] > 0), None)
        if j is None:
            break
        c = v[j]
        for k in range(n):
            v[k] -= c * rd.cartan[k][j]
        word.append(j)
    return tuple(word)


def _times_reflection(rd: RootDatum, m, i):
    """m s_i in place, where s_i = 1 - e_i cartan[i] on simple-root
    coordinates: each row of m loses its entry i times row i of the Cartan
    matrix."""
    ci = rd.cartan[i]
    for a, row in enumerate(m):
        c = row[i]
        if c:
            m[a] = [x - c * y for x, y in zip(row, ci)]


def _weyl_from_word(rd: RootDatum, word) -> WeylElement:
    n = rd.n
    m = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    for i in word:
        _times_reflection(rd, m, i)
    return WeylElement(tuple(tuple(r) for r in m), tuple(word))


@lru_cache(maxsize=None)
def weyl_w0(rd: RootDatum) -> WeylElement:
    return _weyl_from_word(rd, _longest_word(rd, range(rd.n)))


@lru_cache(maxsize=None)
def weyl_wP0(rd: RootDatum, mu: Coweight) -> WeylElement:
    # the longest element of W_P, generated by the s_j with j != alpha_mu
    i = alpha_mu(rd, mu)
    return _weyl_from_word(rd, _longest_word(rd, [j for j in range(rd.n) if j != i]))


@lru_cache(maxsize=None)
def weyl_wP(rd: RootDatum, mu: Coweight) -> WeylElement:
    """w_P = w_{P,0} w_0: the product of their cached matrices, with the
    concatenation of their words."""
    wp0, w0 = weyl_wP0(rd, mu), weyl_w0(rd)
    cols = tuple(zip(*w0.matrix))
    matrix = tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in wp0.matrix)
    return WeylElement(matrix, wp0.word + w0.word)


@lru_cache(maxsize=None)
def wP_reduced_word(rd: RootDatum, mu: Coweight) -> tuple:
    """A reduced word of w_P, read off `weyl_wP(rd, mu).matrix` by right
    descents: while w != 1 some alpha_i has w(alpha_i) < 0 (column i of the
    matrix is a negative root), and w s_i is one shorter, so the word of w
    is that of w s_i followed by i.  Its length is the number of positive
    roots that w_P sends to negative ones."""
    m = [list(row) for row in weyl_wP(rd, mu).matrix]
    word = []
    while (i := next((i for i in range(rd.n) if any(row[i] < 0 for row in m)), None)) is not None:
        _times_reflection(rd, m, i)
        word.append(i)
    return tuple(reversed(word))


def check_wP_heights(rd: RootDatum, mu: Coweight) -> bool:
    """w_P permutes each height class mod h of the root system."""
    h = coxeter_number(rd)
    wp = weyl_wP(rd, mu)
    classes = {}
    for a in rd.roots:
        classes.setdefault(rd.height(a) % h, set()).add(a)
    for r, cls in classes.items():
        if {wp.apply_root(a) for a in cls} != cls:
            return False
    return True


@lru_cache(maxsize=None)
def u_mu_roots(rd: RootDatum, mu: Coweight):
    """(Phi(u_mu), Phi(u_mu^-)) as tuples; also checks w_P carries Phi+ onto
    the first."""
    if not rd.is_minuscule(mu):
        raise ValueError("mu is not minuscule")
    phi_u, phi_uminus = [], []
    for a in rd.roots:
        pos = rd.height(a) > 0
        pr = rd.pairing(a, mu)
        if (pos and pr == 0) or (not pos and pr == -1):
            phi_u.append(a)
        else:
            phi_uminus.append(a)
    wp = weyl_wP(rd, mu)
    if {wp.apply_root(a) for a in rd.pos_roots} != set(phi_u):
        raise VerificationError(f"w_P Phi+ != Phi(u_mu) for mu = {mu.coords}")
    return tuple(phi_u), tuple(phi_uminus)


# ---------------------------------------------------------------------------
# Dimension counts.

@lru_cache(maxsize=None)
def _stab_tops(rd: RootDatum):
    """floor((Ht(alpha) - 1) / h) for the roots alpha in rd.roots order."""
    h = coxeter_number(rd)
    return tuple((rd.height(a) - 1) // h for a in rd.roots)


def stab_dimension(rd: RootDatum, mu: Coweight) -> int:
    """dim of the stabilizer of t^mu in the negative loop group.

    dim T + sum over roots of #{r : <alpha,mu> <= r <= (Ht(alpha)-1)/h}.
    """
    total = rd.rank
    for a, hi in zip(rd.roots, _stab_tops(rd)):
        total += max(0, hi - rd.pairing(a, mu) + 1)
    return total


def dim_bunJ_defect(rd: RootDatum) -> int:
    """dim G(O)/J minus the dimension matched by the exponent count; 0.  It
    restates the exponents' symmetry, which `_check_invariants` enforces, so
    it cannot fail until ROADMAP item 12 derives the exponents anew."""
    h = coxeter_number(rd)
    k = rd.heights_count()
    es = exponents(rd)
    if h % 2 == 0:
        lhs = k.get(h // 2, 0)
        rhs = sum(1 for e in es if e <= h // 2)
    else:
        if not (rd.series in ("A", "GL") and rd.n % 2 == 0):
            raise ValueError("odd Coxeter number only arises in type A_2n")
        m = rd.n // 2
        lhs = m + 1
        rhs = sum(1 for e in es if e < m + 2)
    return lhs - rhs


def swan_identity_check(rd: RootDatum) -> bool:
    """n(h+1) = n + #Phi, that is #Phi = n h, which `_check_invariants`
    enforces: it cannot fail until ROADMAP item 12 derives h anew."""
    h = coxeter_number(rd)
    return rd.n * (h + 1) == rd.n + rd.num_roots
