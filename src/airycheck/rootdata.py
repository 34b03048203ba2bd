"""Root-system combinatorics for types A-G and GL_n.

Roots are stored as coordinate vectors in the simple-root basis, so heights
are coordinate sums and the cyclic height classes are cheap.  Coweights are
integer vectors in fundamental-coweight coordinates, except for GL_n where
the cocharacter lattice is Z^n with the standard pairing.

Conventions: cartan[i][j] = <alpha_j, alpha-check_i>.  Weyl elements act on
root coordinates through their `matrix`; the reduced `word` lists simple
reflection indices applied left to right (w = s_{w[0]} s_{w[1]} ...).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import Frozen, VerificationError
from .linalg import mat_mul, mat_vec, solve

SERIES = ("A", "B", "C", "D", "E", "F", "G", "GL")
FORMS = ("sc", "adjoint", "gl")


def cartan_matrix(series: str, rank: int):
    """Cartan matrix with entries a[i][j] = <alpha_j, alpha-check_i>."""
    n = rank
    if series in ("A", "GL"):
        if series == "GL":
            n = rank - 1
        if n < 1 and series == "A":
            raise ValueError("rank must be >= 1")
        if n < 1:
            # GL_1: empty semisimple part
            return []
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
    if n == 0:
        return []
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
        object.__setattr__(self, "word", word)  # reduced word, applied left to right

    def apply_root(self, coords):
        return tuple(mat_vec([list(r) for r in self.matrix], list(coords)))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        m = mat_mul([list(r) for r in self.matrix], [list(r) for r in other.matrix])
        return WeylElement(tuple(tuple(r) for r in m), self.word + other.word)


class RootDatum(Frozen):
    """Compared, hashed and printed on the nine structural fields of
    `_fields`; `pairings` and the per-instance `_cache` take no part."""

    _fields = ("series", "rank", "form", "n", "center_rank", "cartan", "d",
               "pos_roots", "coroots")

    def __init__(self, series: str, rank: int, form: str, n: int, center_rank: int,
                 cartan: tuple, d: tuple, pos_roots: tuple, coroots: tuple,
                 pairings: tuple):
        set_ = object.__setattr__
        set_(self, "series", series)
        set_(self, "rank", rank)
        set_(self, "form", form)
        set_(self, "n", n)  # semisimple rank
        set_(self, "center_rank", center_rank)
        set_(self, "cartan", cartan)  # n x n, rows = coroot index
        set_(self, "d", d)  # symmetrizer, ints (root half-lengths)
        set_(self, "pos_roots", pos_roots)  # positive roots, simple-root coords, height/lex order
        set_(self, "coroots", coroots)  # coroots of the positive roots, simple-coroot coords
        # pairings[a][i] = <root a, alpha-check_i> as ints, for the roots in
        # `roots` order; <root a, coroot> for a coroot with simple-coroot
        # coordinates b is sum_i b_i pairings[a][i]
        set_(self, "pairings", pairings)
        set_(self, "_cache", {})

    # -- basic structure -------------------------------------------------

    @property
    def roots(self):
        return self.pos_roots + tuple(
            tuple(-c for c in r) for r in self.pos_roots
        )

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
        if self.series == "GL":
            m = mu.coords
            return sum(
                c * (m[k] - m[k + 1]) for k, c in enumerate(root) if c
            )
        return sum(c * m for c, m in zip(root, mu.coords))

    def heights_count(self):
        """k_r = number of positive roots of height r, as a dict."""
        k = {}
        for r in self.pos_roots:
            k[sum(r)] = k.get(sum(r), 0) + 1
        return k

    # -- lattice membership ----------------------------------------------

    def _coroot_lattice_coords(self, mu: Coweight):
        """mu as a rational combination of simple coroots, or None for GL."""
        if self.series == "GL":
            return None
        # mu = sum_i b_i coroot_i with sum_i b_i cartan[i][j] = coords[j]
        Ct = [[Fraction(row[j]) for row in self.cartan] for j in range(self.n)]
        return tuple(solve(Ct, [Fraction(m) for m in mu.coords]))

    def in_lattice(self, mu: Coweight) -> bool:
        """Whether mu lies in the cocharacter lattice of this form."""
        if self.series == "GL":
            return all(isinstance(c, int) for c in mu.coords)
        if self.form == "adjoint":
            return all(isinstance(c, int) for c in mu.coords)
        b = self._coroot_lattice_coords(mu)
        return all(x.denominator == 1 for x in b)

    def is_minuscule(self, mu: Coweight) -> bool:
        return all(0 <= self.pairing(a, mu) <= 1 for a in self.pos_roots)

    def is_dominant(self, mu: Coweight) -> bool:
        simples = [
            tuple(1 if j == i else 0 for j in range(self.n))
            for i in range(self.n)
        ]
        return all(self.pairing(a, mu) >= 0 for a in simples)


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
        center_rank=1 if series == "GL" else 0,
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


def minuscule_coweights(rd: RootDatum, degree_window=None):
    """All mu in X_*(T) with 0 <= <alpha, mu> <= 1 for every positive alpha.

    For GL_n the set is infinite; `degree_window = (lo, hi)` bounds the
    central coordinate c of mu = (c+1,...,c+1,c,...,c).
    """
    if rd.series == "GL":
        if degree_window is None:
            raise ValueError("GL_n needs a degree_window")
        lo, hi = degree_window
        out = []
        for c in range(lo, hi + 1):
            for k in range(rd.rank):
                out.append(Coweight((c + 1,) * k + (c,) * (rd.rank - k)))
        return out
    out = [Coweight((0,) * rd.n)]
    for i in range(rd.n):
        if rd.theta[i] == 1:
            mu = fundamental_coweight(rd, i)
            if rd.in_lattice(mu):
                out.append(mu)
    for mu in out:
        if not rd.is_minuscule(mu):
            raise VerificationError(f"{mu.coords} is not minuscule")
    return out


def minuscule_bijection_check(rd: RootDatum, degree_window=None) -> bool:
    """Minuscule characters biject with X^*(T) modulo the root lattice.

    The character-lattice count of minuscule elements must equal the index
    of the root lattice, with distinct elements in distinct classes.  For
    GL_n the quotient is Z (by total degree) and the check runs over the
    classes covered by the window.
    """
    if rd.series == "GL":
        ms = minuscule_coweights(rd, degree_window or (-1, 1))
        degrees = [sum(m.coords) for m in ms]
        return len(set(degrees)) == len(degrees) and (
            sorted(degrees) == list(range(min(degrees), max(degrees) + 1))
        )
    # the dual datum: B and C swap, sc and adjoint swap; for G2 and F4 the
    # library's Cartan matrix is the transpose with the nodes relabelled,
    # which moves neither the count nor the classes below
    dual = get_root_datum(
        {"B": "C", "C": "B"}.get(rd.series, rd.series), rd.rank,
        {"sc": "adjoint", "adjoint": "sc"}[rd.form],
    )
    ms = minuscule_coweights(dual)
    if rd.form == "adjoint":
        index = 1
    else:
        C = [[Fraction(x) for x in row] for row in rd.cartan]
        det = Fraction(1)
        rows = [row[:] for row in C]
        for c in range(len(rows)):
            piv = next(i for i in range(c, len(rows)) if rows[i][c])
            if piv != c:
                rows[c], rows[piv] = rows[piv], rows[c]
                det = -det
            det *= rows[c][c]
            rows[c] = [x / rows[c][c] for x in rows[c]]
            for i in range(len(rows)):
                if i != c and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
        index = abs(int(det))
    if len(ms) != index:
        return False
    # distinct classes mod the (co)root lattice of the dual datum
    seen = set()
    for mu in ms:
        b = dual._coroot_lattice_coords(mu)
        cls = tuple(x - math.floor(x) for x in b)
        if cls in seen:
            return False
        seen.add(cls)
    return True


def alpha_mu(rd: RootDatum, mu: Coweight):
    """Index of the unique simple root pairing to 1 with mu, or None."""
    if not rd.is_minuscule(mu):
        raise ValueError("mu is not minuscule")
    hits = [
        i
        for i in range(rd.n)
        if rd.pairing(tuple(1 if j == i else 0 for j in range(rd.n)), mu) == 1
    ]
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


def _weyl_from_word(rd: RootDatum, word) -> WeylElement:
    n = rd.n
    m = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    for i in word:
        # m s_i, where s_i = 1 - e_i cartan[i] on simple-root coordinates:
        # each row loses its entry i times row i of the Cartan matrix
        ci = rd.cartan[i]
        for a, row in enumerate(m):
            c = row[i]
            if c:
                m[a] = [x - c * y for x, y in zip(row, ci)]
    return WeylElement(tuple(tuple(r) for r in m), tuple(word))


def weyl_w0(rd: RootDatum) -> WeylElement:
    key = "w0"
    if key not in rd._cache:
        rd._cache[key] = _weyl_from_word(rd, _longest_word(rd, range(rd.n)))
    return rd._cache[key]


def weyl_wP0(rd: RootDatum, mu: Coweight) -> WeylElement:
    # depends on mu only through alpha_mu; cached per root datum
    key = ("wP0", alpha_mu(rd, mu))
    if key not in rd._cache:
        subset = [j for j in range(rd.n) if j != key[1]]
        rd._cache[key] = _weyl_from_word(rd, _longest_word(rd, subset))
    return rd._cache[key]


def weyl_wP(rd: RootDatum, mu: Coweight) -> WeylElement:
    key = ("wP", alpha_mu(rd, mu))
    if key not in rd._cache:
        rd._cache[key] = weyl_wP0(rd, mu) * weyl_w0(rd)
    return rd._cache[key]


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


def u_mu_roots(rd: RootDatum, mu: Coweight):
    """(Phi(u_mu), Phi(u_mu^-)); also checks w_P carries Phi+ onto the first.

    Split and checked once per (rd, mu); every call returns fresh lists.
    """
    key = ("u_mu", tuple(mu.coords))
    split = rd._cache.get(key)
    if split is None:
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
        split = rd._cache[key] = (tuple(phi_u), tuple(phi_uminus))
    return list(split[0]), list(split[1])


# ---------------------------------------------------------------------------
# Dimension counts.

def stab_dimension(rd: RootDatum, mu: Coweight) -> int:
    """dim of the stabilizer of t^mu in the negative loop group.

    dim T + sum over roots of #{r : <alpha,mu> <= r <= (Ht(alpha)-1)/h}.
    """
    h = coxeter_number(rd)
    total = rd.rank
    for a in rd.roots:
        hi = (rd.height(a) - 1) // h  # floor
        lo = rd.pairing(a, mu)
        total += max(0, hi - lo + 1)
    return total


def dim_bunJ_defect(rd: RootDatum) -> int:
    """dim G(O)/J minus the dimension matched by the exponent count; 0."""
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
    """n(h+1) = n + #Phi, the Swan-conductor consistency count."""
    h = coxeter_number(rd)
    return rd.n * (h + 1) == rd.n + rd.num_roots
