import copy
import hashlib
import itertools
from fractions import Fraction
import operator
import os
import random
import re
import subprocess
import sys
from collections import Counter

import pytest

import airycheck
from airycheck.arith import GF
from airycheck.chevalley import (
    QQ,
    ChevalleyAlgebra,
    GradedSubspace,
    S1Graph,
    _cartan_data,
    _check_constants,
    _check_lift,
    _ad_basis,
    _gl_root_interval,
    _heights,
    _kappa_basis,
    _root_sums,
    a_subspace,
    build_algebra,
    centralizer_z,
    decomposition_check,
    grading_piece,
    height_piece,
    p_minus_bijective,
    p_minus_project,
    principal_sl2,
    relevance_linear_kernel,
    relevance_quadratic_bruteforce,
    s1_graph,
    s1_graph_check,
    structure_constants,
    u_mu_piece,
    wP_representative,
    x_minus1,
)
from airycheck.cli import SUITE_TYPES
from jacobi_oracle import jacobi_failure
from matrix_oracle import mat_mul, mat_vec
from wp_oracle import wp_lift
from airycheck.rootdata import (
    Coweight,
    RootDatum,
    exponents,
    get_root_datum,
    minuscule_coweights,
    stab_dimension,
    u_mu_roots,
    weyl_wP,
)


def _basis(alg):
    one, zero = alg.field(1), alg.field(0)
    return [[one if i == j else zero for j in range(alg.dim)] for i in range(alg.dim)]


def _units(alg, indices):
    """The basis vectors at the given indices, as a tuple of tuples: the
    form in which the graded pieces were once cached and pinned."""
    basis = _basis(alg)
    return tuple(tuple(basis[i]) for i in indices)


def _dense_wP(alg, mu):
    """The w_P lift as a dense tuple of rows, from its sparse columns."""
    M = [[alg.field(0)] * alg.dim for _ in range(alg.dim)]
    for j, col in enumerate(wP_representative(alg, mu)):
        for k, c in col:
            M[k][j] = c
    return tuple(map(tuple, M))


def _matrix_of(alg, x):
    """The n x n matrix of a gl_n vector: e_i - e_j at (i, j), the Cartan
    coordinates on the diagonal.  The reference for the GL bracket and the
    trace form."""
    assert alg.rd.series == "GL", "the matrix model needs GL_n"
    n = alg.rd.rank
    m = [[alg.field(0)] * n for _ in range(n)]
    for idx, c in enumerate(x):
        if c:
            if idx < 2 * alg.npos:
                i, j = _gl_root_interval(alg.rd.roots[idx])
            else:
                i = j = idx - 2 * alg.npos
            m[i][j] = m[i][j] + c
    return m


def _from_matrix(alg, m):
    """The gl_n vector of an n x n matrix, the inverse of `_matrix_of`."""
    assert alg.rd.series == "GL", "the matrix model needs GL_n"
    x = [alg.field(m[i][j]) for i, j in map(_gl_root_interval, alg.rd.roots)]
    return x + [alg.field(m[i][i]) for i in range(alg.rd.rank)]


def _kappa(alg, x, y):
    """kappa(x, y) for dense x and y, summed over kappa_rows[i] at every
    nonzero x_i: the reference for the table reads and the first-build pin."""
    acc = alg.field(0)
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, g in alg.kappa_rows[i].items():
            if y[j]:
                acc = acc + xi * y[j] * g
    return acc


def _jacobi_holds(alg):
    """Jacobi on all basis triples, dense: how _build_table assembles the
    structure constants and the Cartan rows."""
    basis = _basis(alg)
    for x in basis:
        for y in basis:
            xy = alg.bracket(x, y)
            for z in basis:
                lhs = alg.bracket(xy, z)
                t2 = alg.bracket(alg.bracket(y, z), x)
                t3 = alg.bracket(alg.bracket(z, x), y)
                if any(a + b + c for a, b, c in zip(lhs, t2, t3)):
                    return False
    return True


def _kappa_invariant(alg):
    """kappa([x, y], z) = kappa(x, [y, z]) on all basis triples, dense."""
    basis = _basis(alg)
    for x in basis:
        for y in basis:
            xy = alg.bracket(x, y)
            for z in basis:
                if _kappa(alg, xy, z) != _kappa(alg, x, alg.bracket(y, z)):
                    return False
    return True


def test_a1_structure():
    alg = build_algebra(get_root_datum("A", 1, "sc"))
    assert alg.dim == 3
    assert _jacobi_holds(alg)
    assert _kappa_invariant(alg)
    e, f = alg.E((1,)), alg.E((-1,))
    hcoord = alg.bracket(e, f)
    assert hcoord[alg.cartan_index(0)] == QQ(1)


def test_g2_jacobi_exhaustive():
    alg = build_algebra(get_root_datum("G", 2, "adjoint"))
    assert alg.dim == 14
    assert _jacobi_holds(alg)
    assert _kappa_invariant(alg)


def test_structure_constants_pinned():
    # the constants of the Jacobi closure that the one-pass derivation
    # replaced, keyed by root pairs, for the suite types and E6-E8
    digest = hashlib.sha256()
    for series, rank in list(SUITE_TYPES) + [("E", 6), ("E", 7), ("E", 8)]:
        rd = get_root_datum(series, rank, "adjoint")
        roots = rd.roots
        N = {(roots[a], roots[b]): v for (a, b), v in structure_constants(rd).items()}
        digest.update(repr(sorted(N.items())).encode())
    assert digest.hexdigest() == "f9942cd8b3fe34de05c9982c19bd81601eed197d3f866d0b47ffad870ed7028b"


def _scale_triple(rd, a, b, scale, pairs=3):
    """A copy of the constants of rd with N_{x,y} and N_{y,x} replaced by
    scale(N) for the first `pairs` of (a, b), (b, c), (c, a), where
    a + b + c = 0."""
    N = dict(_cartan_data(rd)[0])
    c = rd.roots.index(tuple(-x - y for x, y in zip(rd.roots[a], rd.roots[b])))
    for x, y in [(a, b), (b, c), (c, a)][:pairs]:
        N[x, y], N[y, x] = scale(N[x, y]), scale(N[y, x])
    return N


def _corrupt(rd, scale, pairs=1):
    """`_scale_triple` at a seeded root pair a, b; and the roots a, b."""
    a, b = random.Random(7).choice(sorted(_cartan_data(rd)[0]))
    return _scale_triple(rd, a, b, scale, pairs), [rd.roots[a], rd.roots[b]]


@pytest.mark.parametrize("series,rank", [t for t in SUITE_TYPES if t != ("A", 1)]
                         + [("GL", n) for n in range(3, 7)])
def test_check_constants_catches_a_flipped_sign(series, rank):
    rd = get_root_datum(series, rank, "gl" if series == "GL" else "adjoint")
    N, named = _corrupt(rd, lambda v: -v)
    with pytest.raises(airycheck.VerificationError, match="coroot relation") as err:
        _check_constants(rd, N, *_cartan_data(rd)[1:])
    assert all(str(root) in str(err.value) for root in named)


@pytest.mark.parametrize("series,rank", [t for t in SUITE_TYPES if t != ("A", 1)]
                         + [("GL", n) for n in range(3, 7)])
def test_coroot_relation_sees_each_pair_of_its_triple(series, rank):
    # the relation is checked once per zero-sum triple, in one orientation:
    # a flip on any one of its three pairs must still be seen
    rd = get_root_datum(series, rank, "gl" if series == "GL" else "adjoint")
    a, b = random.Random(7).choice(sorted(_cartan_data(rd)[0]))
    c = rd.neg[_root_sums(rd)[a][b]]
    for x, y in [(a, b), (b, c), (c, a)]:
        N = _scale_triple(rd, x, y, operator.neg, pairs=1)
        with pytest.raises(airycheck.VerificationError, match="coroot relation") as err:
            _check_constants(rd, N, *_cartan_data(rd)[1:])
        assert str(rd.roots[x]) in str(err.value) and str(rd.roots[y]) in str(err.value)


def _with_d(rd, d):
    """rd with the symmetrizer d in place of its own."""
    return RootDatum(rd.series, rd.rank, rd.form, rd.n, rd.cartan, d, rd.pos_roots,
                     rd.coroots, rd.pairings)


def test_structure_constants_reject_a_bad_symmetrizer():
    # G2 with d = (1, 1) gives the root (1, 1) norm 0;
    # B2 with d = (1, 1) gives norms that make a quotient non-integral
    g2 = _with_d(get_root_datum("G", 2, "adjoint"), (1, 1))
    with pytest.raises(airycheck.VerificationError, match=re.escape("not positive at x = (1, 1)")):
        structure_constants(g2)
    b2 = _with_d(get_root_datum("B", 2, "adjoint"), (1, 1))
    with pytest.raises(airycheck.VerificationError,
                       match=re.escape("N at ((0, 1), (-1, -2)) is not integral")):
        structure_constants(b2)


def test_structure_constants_use_no_fraction(monkeypatch):
    import airycheck.chevalley as chevalley

    def refuse(*args):
        raise AssertionError("Fraction in the structure-constant pass")

    monkeypatch.setattr(chevalley, "Fraction", refuse)
    for series, rank in [("G", 2), ("F", 4), ("E", 8)]:
        rd = get_root_datum(series, rank, "adjoint")
        N = structure_constants.__wrapped__(rd)
        assert N == structure_constants(rd)
        _check_constants(rd, N, *_cartan_data(rd)[1:])


def test_check_constants_catches_a_magnitude_off_by_one():
    rd = get_root_datum("G", 2, "adjoint")
    N, named = _corrupt(rd, lambda v: v + (1 if v > 0 else -1))
    with pytest.raises(airycheck.VerificationError, match="p \\+ 1") as err:
        _check_constants(rd, N, *_cartan_data(rd)[1:])
    assert all(str(root) in str(err.value) for root in named)


def test_check_constants_catches_a_flipped_zero_sum_triple():
    # flipping N on all three pairs of a + b + c = 0 keeps |N| and the
    # coroot relation; only Jacobi sees it
    rd = get_root_datum("B", 3, "adjoint")
    N, _ = _corrupt(rd, lambda v: -v, pairs=3)
    with pytest.raises(airycheck.VerificationError, match="Jacobi"):
        _check_constants(rd, N, *_cartan_data(rd)[1:])


_CORRUPT_CONSTANTS = """
from airycheck import VerificationError
from airycheck.chevalley import _cartan_data, _check_constants
from airycheck.rootdata import get_root_datum

assert not __debug__, "this check must run under python -O"
rd = get_root_datum("B", 2, "adjoint")
N, coroots, pairings = _cartan_data(rd)
N = dict(N)
a, b = min(N)
N[a, b], N[b, a] = -N[a, b], -N[b, a]
try:
    _check_constants(rd, N, coroots, pairings)
except VerificationError as exc:
    print("raised:", exc)
else:
    print("accepted")
"""


def test_constant_checks_survive_optimize():
    src = os.path.dirname(os.path.dirname(airycheck.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_CONSTANTS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised:"), out.stdout


def test_jacobiator_identity_makes_its_kernel_a_subalgebra():
    # the identity behind the generator-only Jacobi check, on seeded
    # antisymmetric brackets of dimension 5 that are no Lie brackets
    rng = random.Random(29)
    n = 5

    def combine(*terms):  # sum of sign * vector
        return [sum(sign * v[k] for sign, v in terms) for k in range(n)]

    for _ in range(5):
        const = {}
        for i, j in itertools.combinations(range(n), 2):
            v = [rng.randrange(-3, 4) for _ in range(n)]
            const[i, j], const[j, i] = v, [-t for t in v]

        def br(x, y):
            return combine(*((x[i] * y[j], v) for (i, j), v in const.items()))

        def jac(x, y, z):
            return combine((1, br(br(x, y), z)), (1, br(br(y, z), x)), (1, br(br(z, x), y)))

        a, b, c, d = ([rng.randrange(-3, 4) for _ in range(n)] for _ in range(4))
        lhs = combine((1, br(a, jac(b, c, d))), (-1, br(b, jac(a, c, d))),
                      (1, br(c, jac(a, b, d))), (-1, br(d, jac(a, b, c))))
        rhs = combine((1, jac(br(a, b), c, d)), (-1, jac(br(a, c), b, d)), (1, jac(br(a, d), b, c)),
                      (1, jac(br(b, c), a, d)), (-1, jac(br(b, d), a, c)), (1, jac(br(c, d), a, b)))
        assert lhs == rhs
        assert any(jac(a, b, c))


def _jacobi_types():
    """(series, rank, form) of every suite type in both forms, GL_2-GL_6
    and E6-E8 adjoint."""
    types = [(s, r, f) for s, r in SUITE_TYPES for f in ("sc", "adjoint")]
    types += [("GL", n, "gl") for n in range(2, 7)]
    return types + [("E", r, "adjoint") for r in (6, 7, 8)]


def test_generator_jacobi_accepts_what_the_full_oracle_accepts():
    for series, rank, form in _jacobi_types():
        rd = get_root_datum(series, rank, form)
        data = _cartan_data(rd)
        _check_constants(rd, *data)
        assert jacobi_failure(rd, *data) is None, (series, rank, form)


def _off_simple_pair(rd):
    """The first root pair (a, b) with a, b and -(a + b) all off +-Delta."""
    simple = {rd.root_index[a] for a in rd.simple_roots}
    simple |= {rd.neg[i] for i in simple}
    sums = _root_sums(rd)
    return next((a, b) for a, b in sorted(_cartan_data(rd)[0])
                if not {a, b, rd.neg[sums[a][b]]} & simple)


def _jacobi_corpus():
    """(label, rd, N): N flipped on the three pairs of a zero-sum triple,
    which keeps |N| and the coroot relation, so that only Jacobi sees it: at
    the seeded pairs 0-2 and 7 of every type with a root sum, at every pair
    of G2, and on one triple off +-Delta."""
    for series, rank, form in _jacobi_types():
        rd = get_root_datum(series, rank, form)
        pairs = sorted(_cartan_data(rd)[0])
        if form == "sc" or not pairs:
            continue
        for seed in (0, 1, 2, 7):
            yield f"{series}{rank} seed {seed}", rd, _scale_triple(rd, *random.Random(seed).choice(pairs), operator.neg)
    rd = get_root_datum("G", 2, "adjoint")
    for a, b in sorted(_cartan_data(rd)[0]):
        yield f"G2 at {(a, b)}", rd, _scale_triple(rd, a, b, operator.neg)
    rd = get_root_datum("D", 4, "adjoint")
    yield "D4 off Delta", rd, _scale_triple(rd, *_off_simple_pair(rd), operator.neg)


def test_generator_jacobi_rejects_what_the_full_oracle_rejects():
    for label, rd, N in _jacobi_corpus():
        _, coroots, pairings = _cartan_data(rd)
        assert jacobi_failure(rd, N, coroots, pairings) is not None, label
        with pytest.raises(airycheck.VerificationError, match="Jacobi"):
            _check_constants(rd, N, coroots, pairings)


def test_check_constants_checks_the_generator_hypotheses():
    # the three hypotheses under which Jacobi on generators is Jacobi
    # everywhere: pairings and coroots odd, pairings additive, and every
    # root reached from the simple roots
    rd = get_root_datum("A", 1, "adjoint")
    N, coroots, pairings = _cartan_data(rd)
    with pytest.raises(airycheck.VerificationError, match="not odd"):
        _check_constants(rd, N, (coroots[0], coroots[0]), pairings)
    rd = get_root_datum("B", 3, "adjoint")
    N, coroots, pairings = _cartan_data(rd)
    theta = rd.root_index[rd.theta]
    bad = list(pairings)
    bad[theta] = tuple(2 * t for t in pairings[theta])
    with pytest.raises(airycheck.VerificationError, match="not additive"):
        _check_constants(rd, N, coroots, bad)
    fewer = copy.copy(rd)  # alpha_0 alone as the simple roots
    object.__setattr__(fewer, "simple_roots", rd.simple_roots[:1])
    with pytest.raises(airycheck.VerificationError, match="no simple root plus"):
        _check_constants(fewer, N, coroots, pairings)


_CORRUPT_JACOBI = """
from airycheck import VerificationError
from airycheck.chevalley import _cartan_data, _check_constants, _root_sums
from airycheck.rootdata import get_root_datum

assert not __debug__, "this check must run under python -O"
rd = get_root_datum("D", 4, "adjoint")
N, coroots, pairings = _cartan_data(rd)
N = dict(N)
simple = {rd.root_index[a] for a in rd.simple_roots}
simple |= {rd.neg[i] for i in simple}
sums = _root_sums(rd)
a, b = next((a, b) for a, b in sorted(N) if not {a, b, rd.neg[sums[a][b]]} & simple)
c = rd.neg[sums[a][b]]
for x, y in [(a, b), (b, c), (c, a)]:
    N[x, y], N[y, x] = -N[x, y], -N[y, x]
try:
    _check_constants(rd, N, coroots, pairings)
except VerificationError as exc:
    print("raised:", exc)
else:
    print("accepted")
"""


def test_generator_jacobi_survives_optimize():
    # a sign flip on a zero-sum triple with no root of +-Delta: only Jacobi
    # sees it, and only through the generators' brackets
    src = os.path.dirname(os.path.dirname(airycheck.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_JACOBI],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised:") and "Jacobi" in out.stdout, out.stdout


def _ad_entries(alg):
    """ad b_i as {(row, col): entry} over its nonzero entries, for every
    basis index i, read off the brackets of basis vectors."""
    basis = _basis(alg)
    ads = []
    for x in basis:
        ad = {}
        for col, y in enumerate(basis):
            for row, c in enumerate(alg.bracket(x, y)):
                if c:
                    ad[row, col] = c
        ads.append(ad)
    return ads


def _kappa_mismatches(alg, oracle):
    """The basis pairs (i, j) where kappa differs from oracle(i, j)."""
    basis = _basis(alg)
    return [
        (i, j) for i, x in enumerate(basis) for j, y in enumerate(basis)
        if _kappa(alg, x, y) != oracle(i, j)
    ]


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2), ("D", 4)])
def test_sparse_killing_form_matches_dense_traces(series, rank):
    # kappa on every basis pair against tr(ad b_i ad b_j)/2h, with the trace
    # taken over all entries of the ad matrices: no weight argument assumed
    rd = get_root_datum(series, rank, "adjoint")
    alg = build_algebra(rd)
    ads = _ad_entries(alg)

    def oracle(i, j):
        tr = sum(c * ads[j].get((l, k), 0) for (k, l), c in ads[i].items())
        return Fraction(tr, 2 * alg.h)

    assert _kappa_mismatches(alg, oracle) == []
    # negative control: one changed sparse entry fails the comparison
    bad = ChevalleyAlgebra(rd)
    i, row = next((i, row) for i, row in enumerate(bad.kappa_rows) if row)
    j = next(iter(row))
    row[j] += 1
    assert _kappa_mismatches(bad, oracle) == [(i, j)]


def test_gl3_kappa_is_the_trace_form():
    alg = build_algebra(get_root_datum("GL", 3, "gl"))
    basis = _basis(alg)

    def oracle(i, j):
        m = mat_mul(_matrix_of(alg, basis[i]), _matrix_of(alg, basis[j]))
        return sum(m[k][k] for k in range(3))

    assert _kappa_mismatches(alg, oracle) == []
    bad = ChevalleyAlgebra(alg.rd)
    bad.kappa_rows[0][next(iter(bad.kappa_rows[0]))] = QQ(2)
    assert len(_kappa_mismatches(bad, oracle)) == 1


def _first_builds():
    """(root datum, algebra, minuscule coweights) for every suite type in
    both forms over QQ, then GL_2, GL_4 and GL_6 over F_7."""
    cases = [(s, r, f, QQ) for s, r in SUITE_TYPES for f in ("sc", "adjoint")]
    cases += [("GL", n, "gl", GF(7)) for n in (2, 4, 6)]
    for series, rank, form, field in cases:
        rd = get_root_datum(series, rank, form)
        yield rd, build_algebra(rd, field), minuscule_coweights(rd)


def test_first_build_outputs_pinned():
    # the Cartan rows of the table, kappa on all basis pairs, the z_r bases
    # and, per minuscule mu, w_P, its torus-corrected lift and the a_r^mu
    # bases, as the dense Killing form and the Fraction pairings built them;
    # each lift column is hashed with its rows sorted, since only its
    # entries, not the order in which a build lists them, are the output
    digest = hashlib.sha256()
    for rd, alg, mus in _first_builds():
        basis = _basis(alg)
        items = [
            (rd.series, rd.rank, rd.form, repr(alg.field)),
            sorted((i, j, sorted(row.items()))
                   for i, t in enumerate(alg.table) for j, row in t.items()),
            [[_kappa(alg, x, y) for y in basis] for x in basis],
            [list(map(list, z.basis)) for z in centralizer_z(alg)],
        ]
        for mu in mus:
            cols = tuple(tuple(sorted(col)) for col in wP_representative(alg, mu))
            items.append((mu, weyl_wP(rd, mu), cols))
            items.append([list(map(list, a_subspace(alg, r, mu).basis)) for r in range(1, alg.h)])
        for item in items:
            digest.update(repr(item).encode())
    assert digest.hexdigest() == "ccea234fe0a6c5e9465b4a0ef0149e1db932df91037b78ae16c895905b97e59b"


def test_root_layout_and_principal_sl2_pinned():
    # rd.roots and (N^-, H, N^+) for every suite type in both forms over QQ,
    # and for GL_2-GL_8 over QQ and, where p = 7 > h, over F_7
    cases = [(s, r, f, QQ) for s, r in SUITE_TYPES for f in ("sc", "adjoint")]
    cases += [("GL", n, "gl", F) for n in range(2, 9) for F in (QQ, GF(7)) if F is QQ or n < 7]
    digest = hashlib.sha256()
    for series, rank, form, field in cases:
        rd = get_root_datum(series, rank, form)
        item = (series, rank, form, repr(field), rd.roots, principal_sl2(build_algebra(rd, field)))
        digest.update(repr(item).encode())
    assert digest.hexdigest() == "c7381b05542a498b86e3d09c0121e3ad64856a027efc22458f75c515edc00c48"


def test_graded_pieces_and_lie_verdicts_pinned():
    # per r, g(r) and g_r; per minuscule mu and r, u_{mu,r} and the
    # decomposition and p_- verdicts; for every suite type in both forms
    # over QQ, A3 in both forms over F_5 (where depth 3 fails) and F_7, and
    # GL_2-GL_4 over QQ and F_7; then stab_dimension on the [-2, 2]^rank box
    # for the suite types of rank <= 3 and GL_2, GL_3
    cases = [(s, r, f, QQ) for s, r in SUITE_TYPES for f in ("sc", "adjoint")]
    cases += [("A", 3, f, GF(p)) for p in (5, 7) for f in ("sc", "adjoint")]
    cases += [("GL", n, "gl", F) for n in (2, 3, 4) for F in (QQ, GF(7))]
    digest = hashlib.sha256()
    for series, rank, form, field in cases:
        rd = get_root_datum(series, rank, form)
        alg = build_algebra(rd, field)
        items = [(series, rank, form, repr(field))]
        items += [(r, _units(alg, height_piece(alg, r))) for r in range(1 - alg.h, alg.h)]
        items += [(r, _units(alg, grading_piece(alg, r))) for r in range(alg.h)]
        items += [(r, p_minus_bijective(alg, r)) for r in range(1, alg.h)]
        for mu in minuscule_coweights(rd):
            items += [(mu, r, _units(alg, u_mu_piece(alg, mu, r)), decomposition_check(alg, mu, r))
                      for r in range(1, alg.h)]
        for item in items:
            digest.update(repr(item).encode())
    small = [(s, r, f) for s, r in SUITE_TYPES if r <= 3 for f in ("sc", "adjoint")]
    for series, rank, form in small + [("GL", 2, "gl"), ("GL", 3, "gl")]:
        rd = get_root_datum(series, rank, form)
        box = itertools.product(range(-2, 3), repeat=rd.rank)
        item = (series, rank, form, [stab_dimension(rd, Coweight(c)) for c in box])
        digest.update(repr(item).encode())
    assert digest.hexdigest() == "41031af9f7285133ef4edd99f7d575f8400f287ef47919bc28f81b9d9ad37391"


def _floats(obj):
    """The number of floats in nested lists, tuples and dicts."""
    if isinstance(obj, float):
        return 1
    if isinstance(obj, dict):
        return sum(_floats(k) + _floats(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return sum(map(_floats, obj))
    return 0


def test_first_build_outputs_are_exact():
    # an int / int slipped into the integer paths would give a float
    assert _floats([{1: (Fraction(1), 0.5)}, (2, [0.0])]) == 2
    for rd, alg, mus in _first_builds():
        if alg.field is not QQ:
            continue
        outputs = [structure_constants(rd), alg.table, alg.kappa_rows,
                   [z.basis for z in centralizer_z(alg)]]
        for mu in mus:
            outputs += [weyl_wP(rd, mu).word, wP_representative(alg, mu),
                        [a_subspace(alg, r, mu).basis for r in range(1, alg.h)]]
        assert _floats(outputs) == 0, (rd.series, rd.rank, rd.form)


def test_gl3_matrix_crosscheck():
    # bracket agrees with the commutator of 3x3 matrices over F_7
    F = GF(7)
    alg = build_algebra(get_root_datum("GL", 3, "gl"), F)
    rng = random.Random(3)
    for _ in range(25):
        x = [F(rng.randrange(7)) for _ in range(alg.dim)]
        y = [F(rng.randrange(7)) for _ in range(alg.dim)]
        mx, my = _matrix_of(alg, x), _matrix_of(alg, y)
        comm = [
            [a - b for a, b in zip(ra, rb)]
            for ra, rb in zip(mat_mul(mx, my), mat_mul(my, mx))
        ]
        assert _matrix_of(alg, alg.bracket(x, y)) == comm
        assert _from_matrix(alg, mx) == x


def test_principal_sl2_sl3():
    alg = build_algebra(get_root_datum("A", 2, "sc"))
    nminus, H, nplus = principal_sl2(alg)
    # N^+ = 2 e_1 + 2 e_2 since 2 rho-check = 2 (omega-check_1 + omega-check_2)
    for i in (0, 1):
        simple = tuple(1 if j == i else 0 for j in range(2))
        assert nplus[alg.rd.root_index[simple]] == QQ(2)
        assert nminus[alg.rd.root_index[tuple(-c for c in simple)]] == QQ(1)
    assert tuple(alg.bracket(nplus, nminus)) == H


@pytest.mark.parametrize("fault,message", [
    ("coroots", "pair to 2"), ("[e, f]", "[N+, N-]"), ("[h, e]", "[H, N+]"), ("[h, f]", "[H, N-]")])
def test_principal_sl2_sees_each_fault(fault, message):
    # one fault per check, on a fresh B2 algebra: a positive coroot doubled
    # in the root datum, or one table row of alpha_1's sl2 changed
    rd = get_root_datum("B", 2, "adjoint")
    alg = ChevalleyAlgebra(rd)
    e = rd.root_index[rd.simple_roots[0]]
    f, h = rd.neg[e], alg.cartan_index(0)
    if fault == "coroots":
        alg.rd = copy.copy(rd)
        object.__setattr__(alg.rd, "coroots", (tuple(2 * c for c in rd.coroots[0]),) + rd.coroots[1:])
    elif fault == "[e, f]":
        alg.table[e][f] = {k: 2 * c for k, c in alg.table[e][f].items()}
    elif fault == "[h, e]":
        alg.table[h][e] = {e: alg.table[h][e][e] + 1}
    else:
        alg.table[h][f] = {f: alg.table[h][f][f] + 1}
    with pytest.raises(airycheck.VerificationError, match=re.escape(message)):
        principal_sl2(alg)


_CORRUPT_COROOT = """
from airycheck import VerificationError, chevalley
from airycheck.chevalley import build_algebra, principal_sl2
from airycheck.rootdata import get_root_datum

assert not __debug__, "this check must run under python -O"
cartan_data = chevalley._cartan_data


def corrupt(rd):  # the coroot of alpha_1 doubled, before the first build
    N, coroots, pairings = cartan_data(rd)
    a = rd.root_index[rd.simple_roots[0]]
    coroots = list(coroots)
    coroots[a] = tuple(2 * c for c in coroots[a])
    return N, tuple(coroots), pairings


chevalley._cartan_data = corrupt
try:
    principal_sl2(build_algebra(get_root_datum("A", 2, "adjoint")))
except VerificationError as exc:
    print("raised:", exc)
else:
    print("accepted")
"""


def test_principal_sl2_checks_survive_optimize():
    src = os.path.dirname(os.path.dirname(airycheck.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_COROOT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised:"), out.stdout


def test_grading_dims():
    alg = build_algebra(get_root_datum("A", 2, "sc"))
    h = alg.h
    assert h == 3
    assert len(grading_piece(alg, 0)) == 2
    # g_r = g(r) + g(r-h); total dim is dim g
    assert sorted(i for r in range(h) for i in grading_piece(alg, r)) == list(range(alg.dim))
    assert height_piece(alg, h - 1) == (alg.rd.root_index[alg.rd.theta],)  # highest root line
    with pytest.raises(ValueError):
        height_piece(alg, h)


def test_centralizer_dims():
    # dim z_r = #{exponents congruent to r mod h}
    for series, rank, form in (("A", 2, "sc"), ("D", 4, "adjoint"), ("B", 3, "sc")):
        rd = get_root_datum(series, rank, form)
        alg = build_algebra(rd)
        from airycheck.rootdata import exponents

        exps = exponents(rd)
        zs = centralizer_z(alg)
        for r in range(alg.h):
            assert zs[r].dim == sum(1 for m in exps if m % alg.h == r % alg.h)
    d4 = build_algebra(get_root_datum("D", 4, "adjoint"))
    assert centralizer_z(d4)[3].dim == 2  # exponents 3, 3


def test_centralizer_gl_is_cyclic_powers():
    # for gl_n, z_r is the line through E_1^r (r >= 1)
    F = GF(7)
    alg = build_algebra(get_root_datum("GL", 4, "gl"), F)
    zs = centralizer_z(alg)
    for r in range(1, alg.h):
        assert zs[r].dim == 1
        v = zs[r].basis[0]
        # E_1^r has a 1 at (i, i + r mod 4)
        w = _from_matrix(alg, [[F(int(j == (i + r) % 4)) for j in range(4)] for i in range(4)])
        # v and E_1^r are proportional
        i = next(i for i, c in enumerate(w) if c)
        assert [c * w[i] for c in v] == [c * v[i] for c in w]


def test_a_subspace():
    alg = build_algebra(get_root_datum("A", 3, "sc"))
    assert a_subspace(alg, 1).dim == 0
    h = alg.h
    for r in range(2, h):
        ar = a_subspace(alg, r)
        # a_r = [g(r-1-h), N^+] has the dimension of g(r-1-h) when p_- behaves
        assert ar.dim == len(height_piece(alg, r - 1 - h))
        for v in ar.basis:
            assert all(
                not c or _heights(alg)[i] in (r, r - h)
                for i, c in enumerate(v)
            )
    with pytest.raises(ValueError):
        a_subspace(alg, 0)


@pytest.mark.parametrize("series,rank", [("A", 3), ("B", 2), ("G", 2), ("D", 4)])
def test_p_minus_bijective(series, rank):
    alg = build_algebra(get_root_datum(series, rank, "adjoint"))
    for r in range(1, alg.h):
        assert p_minus_bijective(alg, r)


def test_decomposition_small():
    for series, rank in (("A", 2), ("C", 2), ("G", 2)):
        rd = get_root_datum(series, rank, "adjoint")
        alg = build_algebra(rd)
        for mu in minuscule_coweights(rd):
            for r in range(1, alg.h):
                assert decomposition_check(alg, mu, r)


def test_decomposition_fails_below_the_characteristic_bound():
    # adjoint A3 has h = 4, so the bound is p >= 2h - 1 = 7: over F_5 the
    # depth-3 sum z_3 + a_3^mu + u_{mu,3} is rank-deficient for every
    # minuscule mu, over F_7 it is all of g_3
    rd = get_root_datum("A", 3, "adjoint")
    for p, verdicts in ((5, [True, True, False]), (7, [True, True, True])):
        alg = build_algebra(rd, GF(p))
        for mu in minuscule_coweights(rd):
            assert [decomposition_check(alg, mu, r) for r in range(1, alg.h)] == verdicts


@pytest.mark.parametrize("piece", ["a", "z"])
def test_decomposition_fails_off_g_r(piece, monkeypatch):
    # negative control: one a_r^mu (or z_r) vector moved off g_r by a Cartan
    # coordinate (g_r has none for r != 0) must fail the check at every depth
    # where that space is nonzero, though the rank of the sum is unchanged
    from airycheck import chevalley

    rd = get_root_datum("B", 3, "adjoint")
    alg = build_algebra(rd)
    mu = minuscule_coweights(rd)[0]
    off = alg.cartan_index(0)
    a_subspace, centralizer = chevalley.a_subspace, chevalley.centralizer_z

    def nudge(sub):
        # a nudged copy: the cached piece itself is immutable
        if not sub.basis:
            return sub
        first = list(sub.basis[0])
        first[off] = first[off] + 1
        return GradedSubspace((tuple(first),) + sub.basis[1:])

    # the verdicts first, with every piece and table warm: the nudge below
    # must still fail, so no verdict is read from a cache
    assert all(decomposition_check(alg, mu, r) for r in range(1, alg.h))
    if piece == "a":
        monkeypatch.setattr(chevalley, "a_subspace", lambda *args: nudge(a_subspace(*args)))
    else:
        monkeypatch.setattr(chevalley, "centralizer_z", lambda alg: tuple(map(nudge, centralizer(alg))))
    depths = [r for r in range(1, alg.h) if (a_subspace(alg, r, mu) if piece == "a" else centralizer(alg)[r]).dim]
    assert len(depths) == (4 if piece == "a" else 3)
    for r in depths:
        assert not decomposition_check(alg, mu, r)


def test_graded_subspace_support_is_read_off_its_basis():
    # decomposition_check reads the support in place of scanning the
    # vectors: each record computes it from the basis it is given, and it
    # takes no part in equality, hashing or printing
    alg = build_algebra(get_root_datum("B", 3, "adjoint"))
    mu = minuscule_coweights(alg.rd)[0]
    for sub in list(centralizer_z(alg)) + [a_subspace(alg, r, mu) for r in range(1, alg.h)]:
        want = {i for v in sub.basis for i, c in enumerate(v) if c}
        assert sub.support == want
    zero, one = QQ(0), QQ(1)
    a = GradedSubspace(((one, zero, zero), (zero, zero, one)))
    b = GradedSubspace(((one, zero, zero), (zero, zero, zero)))
    assert a.support == {0, 2} and b.support == {0} and GradedSubspace(()).support == set()
    assert repr(a) == "GradedSubspace(basis=((Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)), " \
        "(Fraction(0, 1), Fraction(0, 1), Fraction(1, 1))))"
    assert a == GradedSubspace(a.basis) and hash(a) == hash(GradedSubspace(a.basis))


def _index_cases():
    """Every suite type in both forms over QQ, and GL_4 and GL_6 over F_7."""
    cases = [(s, r, f, QQ) for s, r in SUITE_TYPES for f in ("sc", "adjoint")]
    cases += [("GL", n, "gl", GF(7)) for n in (4, 6)]
    for series, rank, form, field in cases:
        yield build_algebra(get_root_datum(series, rank, form), field)


def test_heights_match_the_root_heights():
    # the index table against rd.height on rd.roots: positive roots, then
    # negative roots, then the Cartan at height 0
    for alg in _index_cases():
        rd = alg.rd
        want = [rd.height(a) for a in rd.roots] + [0] * rd.rank
        got = list(_heights(alg))
        assert got == want, (rd.series, rd.rank, rd.form)
        assert all(t > 0 for t in got[:alg.npos])
        assert all(t < 0 for t in got[alg.npos:2 * alg.npos])


def test_p_minus_project_keeps_the_negative_heights():
    # p_- against a projection built from rd.height, on seeded vectors
    # with about half their entries zero
    rng = random.Random(23)
    for alg in _index_cases():
        rd, zero = alg.rd, alg.field(0)
        negative = [i < 2 * alg.npos and rd.height(rd.roots[i]) < 0 for i in range(alg.dim)]
        for _ in range(5):
            v = [alg.field(rng.randrange(-3, 4)) if rng.random() < 0.5 else zero
                 for _ in range(alg.dim)]
            want = [c if neg else zero for c, neg in zip(v, negative)]
            assert p_minus_project(alg, v) == want, (rd.series, rd.rank, rd.form)


def _warm_checks(alg, mus):
    """Every decomposition, p_- and linear relevance verdict of alg."""
    for mu in mus:
        for r in range(1, alg.h):
            assert decomposition_check(alg, mu, r)
    for r in range(1, alg.h):
        assert p_minus_bijective(alg, r)
    for r in range(2, (alg.h + 1) // 2 + 1):
        assert relevance_linear_kernel(alg, r)


def test_repeated_decomposition_check_rebuilds_nothing(monkeypatch):
    # once the pieces are warm, a repeated decomposition, p_- or linear
    # relevance check reads them and the index table: no cache misses, and
    # no unit vector built through E
    from airycheck import chevalley

    rd = get_root_datum("B", 3, "adjoint")
    alg = build_algebra(rd)
    mus = minuscule_coweights(rd)
    caches = [chevalley._heights, height_piece, grading_piece, u_mu_piece,
              centralizer_z, a_subspace, u_mu_roots, principal_sl2, wP_representative]
    _warm_checks(alg, mus)
    misses = [c.cache_info().misses for c in caches]
    calls = Counter()
    E = ChevalleyAlgebra.E

    def counted(self, root):
        calls["E"] += 1
        return E(self, root)

    monkeypatch.setattr(ChevalleyAlgebra, "E", counted)
    _warm_checks(alg, mus)
    assert [c.cache_info().misses for c in caches] == misses
    assert not calls


def test_table_reads_match_the_dense_bracket_and_kappa():
    # [b_j, y] read off table[j] and kappa(w, b_j) read off kappa_rows[j]
    # against the dense bracket(e_j, y), -bracket(y, e_j) and kappa(w, e_j),
    # on seeded vectors with about half their entries zero
    rng = random.Random(29)
    cases = [(get_root_datum(s, r, f), QQ) for s, r in SUITE_TYPES for f in ("sc", "adjoint")]
    cases += [(get_root_datum("GL", 4, "gl"), GF(7))]
    for rd, field in cases:
        alg = build_algebra(rd, field)
        basis, zero = _basis(alg), field(0)

        def seeded():
            return [field(rng.randrange(-3, 4)) if rng.random() < 0.5 else zero
                    for _ in range(alg.dim)]

        x, w = seeded(), seeded()
        for j, e in enumerate(basis):
            assert _ad_basis(alg, j, x) == alg.bracket(e, x) == [-c for c in alg.bracket(x, e)], (rd, j)
            assert _kappa_basis(alg, w, j) == _kappa(alg, w, e) == _kappa(alg, e, w), (rd, j)


def test_u_mu_piece_trivial_mu():
    rd = get_root_datum("A", 2, "sc")
    alg = build_algebra(rd)
    mu = Coweight((0, 0))
    # for mu = 0, u_mu = n^- so the piece at r collects heights r-h (mod h)
    total = sum(len(u_mu_piece(alg, mu, r)) for r in range(1, alg.h))
    assert total == len(rd.pos_roots)


def test_wp_trivial_mu_identity():
    alg = build_algebra(get_root_datum("A", 2, "sc"))
    assert _dense_wP(alg, Coweight((0, 0))) == tuple(map(tuple, _basis(alg)))


def test_wp_conjugates_a_r():
    rd = get_root_datum("A", 2, "adjoint")
    alg = build_algebra(rd)
    mu = next(m for m in minuscule_coweights(rd) if any(m.coords))
    M = _dense_wP(alg, mu)
    for v, w in zip(a_subspace(alg, 2).basis, a_subspace(alg, 2, mu).basis):
        assert mat_vec(M, v) == list(w)
        assert any(w)


def test_relevance_linear():
    for series, rank in (("A", 3), ("B", 2), ("D", 4)):
        alg = build_algebra(get_root_datum(series, rank, "adjoint"))
        for r in range(2, (alg.h + 1) // 2 + 1):
            assert relevance_linear_kernel(alg, r)


def test_relevance_quadratic_gl2():
    alg = build_algebra(get_root_datum("GL", 2, "gl"), GF(5))
    sols = relevance_quadratic_bruteforce(alg)
    assert len(sols) == 1  # only e = 0


def test_relevance_quadratic_sp4():
    alg = build_algebra(get_root_datum("C", 2, "sc"), GF(5))
    sols = relevance_quadratic_bruteforce(alg)
    assert all(not any(c.v for c in s) for s in sols)
    assert len(sols) == 1


# (series, rank, form, p) of the quadratic brute force: the rigidity-kernel
# cases over F_5, B2 and A3 over F_5, G2 over F_7, and A4 and GL_5 over F_7,
# where the depth-3 linear kernel is nonzero
QUADRATIC_CASES = [("A", 4, "adjoint", 7), ("GL", 5, "gl", 7), ("GL", 2, "gl", 5),
                   ("GL", 4, "gl", 5), ("C", 2, "sc", 5), ("B", 2, "adjoint", 5),
                   ("G", 2, "adjoint", 7), ("A", 3, "adjoint", 5)]


@pytest.mark.parametrize("series,rank,form,p", QUADRATIC_CASES)
def test_quadratic_solutions_exactly_where_a_linear_kernel_is_nonzero(series, rank, form, p):
    # the quadratic equation against g(h+1-k) is L_k(e_k) plus terms in the
    # e_r with r < k, so it is triangular in the degree: a nonzero solution
    # exists exactly when some L_k, the relevance_linear_kernel map over
    # the same field, is not injective
    alg = build_algebra(get_root_datum(series, rank, form), GF(p))
    verdicts = [relevance_linear_kernel(alg, r) for r in range(2, (alg.h + 1) // 2 + 1)]
    nonzero = [s for s in relevance_quadratic_bruteforce(alg) if any(s)]
    assert bool(nonzero) == (not all(verdicts))
    if (series, rank) in (("A", 4), ("GL", 5)):
        assert verdicts == [True, False]  # r = 3 is not injective over F_7
        assert len(nonzero) == 6


def test_relevance_bijection_and_phi_z_outputs_pinned():
    # the full quadratic solution lists of QUADRATIC_CASES; the linear
    # relevance verdicts, the minuscule coweights and the bijection verdict
    # for every suite type and E6-E8 in both forms over QQ; and phi(Z) on
    # the character check's models and GL_6 over F_13
    from airycheck.cli import PHI_Z_MODELS
    from airycheck.loopmodel import GLnModel, phi_z_values
    from airycheck.rootdata import minuscule_bijection_check

    digest = hashlib.sha256()
    for series, rank, form, p in QUADRATIC_CASES:
        sols = relevance_quadratic_bruteforce(build_algebra(get_root_datum(series, rank, form), GF(p)))
        digest.update(repr((series, rank, form, p, sols)).encode())
    for series, rank in list(SUITE_TYPES) + [("E", 6), ("E", 7), ("E", 8)]:
        for form in ("sc", "adjoint"):
            rd = get_root_datum(series, rank, form)
            alg = build_algebra(rd, QQ)
            item = (series, rank, form, minuscule_coweights(rd), minuscule_bijection_check(rd),
                    [relevance_linear_kernel(alg, r) for r in range(2, (alg.h + 1) // 2 + 1)])
            digest.update(repr(item).encode())
    for n, p in PHI_Z_MODELS + ((6, 13),):
        digest.update(repr((n, p, phi_z_values(GLnModel(n, p)))).encode())
    assert digest.hexdigest() == "f569053b88c3d4f70d804c60e0ef9e98f65db3ce25e96d86c743c5c3058d053f"


def test_s1_graph_sl2():
    alg = build_algebra(get_root_datum("A", 1, "sc"), GF(5))
    graph = s1_graph(alg)
    assert graph.phi_s == [(-1,)]
    assert len(graph.lambda_names) == 1
    assert s1_graph_check(alg, graph, random.Random(1), samples=50)


def test_s1_graph_gl4():
    alg = build_algebra(get_root_datum("GL", 4, "gl"), GF(7))
    graph = s1_graph(alg)
    assert len(graph.phi_s) == len(graph.lambda_names) == 2
    assert s1_graph_check(alg, graph, random.Random(2), samples=50)


def test_s1_graph_d4_doubled_slot():
    # D4 has two exponents equal to h/2 = 3, so two slots at that depth
    alg = build_algebra(get_root_datum("D", 4, "adjoint"), GF(7))
    graph = s1_graph(alg)
    depth3 = [b for b in graph.phi_s if alg.rd.height(b) == 3 - alg.h]
    assert len(depth3) == 2
    assert s1_graph_check(alg, graph, random.Random(4), samples=25)


S1_CASES = [("A", 1, "sc", 5), ("GL", 2, "gl", 5), ("GL", 4, "gl", 7), ("GL", 6, "gl", 7),
            ("B", 2, "sc", 7), ("C", 3, "sc", 11), ("D", 4, "adjoint", 7), ("D", 6, "adjoint", 13)]


def test_s1_graph_outputs_pinned():
    # every field of the graph, each polynomial as its variables and its
    # sorted terms (as its repr and == see it); D4 and D6 have a doubled
    # exponent h/2
    def poly(f):
        return f.variables, sorted(f.terms.items())

    digest = hashlib.sha256()
    for series, rank, form, p in S1_CASES:
        g = s1_graph(build_algebra(get_root_datum(series, rank, form), GF(p)))
        items = [g.phi_s, g.var_names, g.lambda_names]
        items += [[(k, poly(f)) for k, f in m.items()] for m in (g.p_minus, g.lambda_exprs, g.graphs)]
        for item in items:
            digest.update(repr(item).encode())
    assert digest.hexdigest() == "ce77a345b4455c62176d9c0772555e20ddb5ee82ef094d2b184b178f1644e4a3"


def _check_draws(graph, p, seed, samples):
    """The state of Random(seed) after one randrange(p) per lambda name per
    sample, the draws of s1_graph_check."""
    rng = random.Random(seed)
    for _ in range(samples * len(graph.lambda_names)):
        rng.randrange(p)
    return rng.getstate()


@pytest.mark.parametrize("n", [4, 6])
def test_s1_graph_check_on_indices_rejects_a_changed_polynomial(n):
    # negative controls for the index evaluator: a graph polynomial with
    # its constant raised by 1, and a lambda-expression doubled.  A passing
    # check draws one randrange(p) per lambda name per sample, in order
    F = GF(7)
    alg = build_algebra(get_root_datum("GL", n, "gl"), F)
    graph = s1_graph(alg)
    fields = {k: getattr(graph, k) for k in S1Graph._fields}
    rng = random.Random(n)
    assert s1_graph_check(alg, graph, rng, samples=60)
    assert rng.getstate() == _check_draws(graph, 7, n, 60)
    for a, f in graph.graphs.items():
        bad = S1Graph(**{**fields, "graphs": {**graph.graphs, a: f + F(1)}})
        assert not s1_graph_check(alg, bad, random.Random(n), samples=60)
    for name, f in graph.lambda_exprs.items():
        bad = S1Graph(**{**fields, "lambda_exprs": {**graph.lambda_exprs, name: f * F(2)}})
        assert not s1_graph_check(alg, bad, random.Random(n), samples=60)


def test_s1_graph_needs_a_block_of_full_rank(monkeypatch):
    # negative controls on a doubled exponent (D4): with no block of slot
    # coefficients of full rank there is no Phi_S, and with a singular
    # linear block the change of variables cannot be inverted
    from airycheck import chevalley, linalg

    alg = build_algebra(get_root_datum("D", 4, "adjoint"), GF(7))
    with monkeypatch.context() as m:
        m.setattr(chevalley, "rank", lambda rows: 0)
        with pytest.raises(airycheck.VerificationError, match="no invertible coefficient block"):
            s1_graph(alg)
    with monkeypatch.context() as m:
        m.setattr(chevalley, "rref", lambda rows: (lambda M, piv: (M, piv[:-1]))(*linalg.rref(rows)))
        with pytest.raises(airycheck.VerificationError, match="singular linear block for l0"):
            s1_graph(alg)


def test_x_minus1_components():
    alg = build_algebra(get_root_datum("A", 2, "sc"))
    x = x_minus1(alg)
    assert x[alg.rd.root_index[alg.rd.theta]] == QQ(1)
    nz = [_heights(alg)[i] for i, c in enumerate(x) if c]
    assert sorted(nz) == [-1, -1, 2]


def test_build_algebra_cached_per_prime():
    rd = get_root_datum("GL", 3, "gl")
    assert GF(7) == GF(7) and hash(GF(7)) == hash(GF(7))
    assert GF(7) != GF(11)
    assert build_algebra(rd, GF(7)) is build_algebra(rd, GF(7))
    assert build_algebra(rd, GF(7)) is not build_algebra(rd, GF(11))


def test_cached_results_are_isolated():
    # a caller cannot change a cached result: each is built once per
    # algebra, a repeat call returns the same object, and that object is
    # made of tuples and frozen records
    alg = build_algebra(get_root_datum("A", 2, "adjoint"))
    mu = Coweight((1, 0))
    zs, M = centralizer_z(alg), wP_representative(alg, mu)
    sl2, x = principal_sl2(alg), x_minus1(alg)
    want = copy.deepcopy((zs, M, sl2, x))
    assert centralizer_z(alg) is zs and principal_sl2(alg) is sl2 and x_minus1(alg) is x
    with pytest.raises(TypeError):
        zs[1].basis[0][0] = QQ(5)
    with pytest.raises(AttributeError):
        zs[2].basis.append(alg.zero())
    with pytest.raises(AttributeError):
        zs[2].basis = ()
    with pytest.raises(TypeError):
        zs[0] = None
    with pytest.raises(TypeError):
        M[0][0] = QQ(7)
    with pytest.raises(AttributeError):
        M.pop()
    with pytest.raises(TypeError):
        sl2[0][0] = QQ(3)
    with pytest.raises(TypeError):
        x[0] = QQ(3)
    assert centralizer_z(alg) == want[0]
    assert wP_representative(alg, mu) == want[1]
    assert (principal_sl2(alg), x_minus1(alg)) == (want[2], want[3])


def test_a_subspace_and_u_mu_roots_cached(monkeypatch):
    # a_r^mu and the u_mu split are built once per (algebra, r, mu) and
    # (root datum, mu); later calls neither rerun rref nor recheck w_P
    from airycheck import chevalley, rootdata

    alg = build_algebra(get_root_datum("A", 3, "adjoint"))
    mu = Coweight((0, 1, 0))
    want = {r: a_subspace(alg, r, mu) for r in (1, 2, 3)}
    want[0] = a_subspace(alg, 2)
    want, split = copy.deepcopy((want, u_mu_roots(alg.rd, mu)))
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(chevalley, "rref", counted("rref", chevalley.rref))
    monkeypatch.setattr(rootdata, "weyl_wP", counted("weyl_wP", rootdata.weyl_wP))
    got = {r: a_subspace(alg, r, mu) for r in (1, 2, 3)}
    got[0] = a_subspace(alg, 2)
    assert got == want and u_mu_roots(alg.rd, mu) == split
    assert not calls
    # the caches hand out the same immutable values on every call
    assert all(a_subspace(alg, r, mu) is got[r] for r in (1, 2, 3))
    assert u_mu_roots(alg.rd, mu) is u_mu_roots(alg.rd, mu)
    with pytest.raises(TypeError):
        got[2].basis[0][0] = QQ(5)
    with pytest.raises(AttributeError):
        got[3].basis.append(alg.zero())
    u, u_minus = u_mu_roots(alg.rd, mu)
    with pytest.raises(AttributeError):
        u.pop()
    with pytest.raises(AttributeError):
        u_minus.append((9, 9, 9))
    assert a_subspace(alg, 2, mu) == want[2] and a_subspace(alg, 3, mu) == want[3]
    assert u_mu_roots(alg.rd, mu) == split


_CORRUPT_WORD = """
from airycheck import VerificationError, chevalley
from airycheck.chevalley import build_algebra, wP_representative
from airycheck.rootdata import Coweight, get_root_datum, weyl_w0

assert not __debug__, "this check must run under python -O"
alg = build_algebra(get_root_datum("A", 2, "adjoint"))
chevalley.weyl_wP = lambda rd, mu: weyl_w0(rd)  # w_0 sends -Delta to Delta
try:
    wP_representative(alg, Coweight((1, 0)))
except VerificationError as exc:
    print("raised:", exc)
else:
    print("accepted")
"""


def _run_optimized(script):
    src = os.path.dirname(os.path.dirname(airycheck.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_wp_checks_survive_optimize():
    # negative control: a Weyl element that does not permute -Delta and
    # theta has no lift fixing X_{-1}, and the refusal must run under -O
    out = _run_optimized(_CORRUPT_WORD)
    assert out.startswith("raised:") and "does not permute" in out, out


_CORRUPT_CARTAN = """
from airycheck import VerificationError, chevalley
from airycheck.chevalley import build_algebra, wP_representative
from airycheck.rootdata import Coweight, get_root_datum

assert not __debug__, "this check must run under python -O"
alg = build_algebra(get_root_datum("A", 2, "adjoint"))
word = chevalley.wP_reduced_word
chevalley.wP_reduced_word = lambda rd, mu: word(rd, mu)[:-1]  # one letter short
try:
    wP_representative(alg, Coweight((1, 0)))
except VerificationError as exc:
    print("raised:", exc)
else:
    print("accepted")
"""


def test_wp_cartan_check_survives_optimize():
    # negative control: the root block is read off w_P's matrix, so a word
    # one letter short reaches only the Cartan block, and only the lift's
    # Cartan-block check can see it; it must run under -O
    out = _run_optimized(_CORRUPT_CARTAN)
    assert out.startswith("raised:") and "coroot" in out, out


_CORRUPT_MATRIX = """
from airycheck import VerificationError, chevalley
from airycheck.chevalley import build_algebra, wP_representative
from airycheck.rootdata import Coweight, WeylElement, get_root_datum

assert not __debug__, "this check must run under python -O"
alg = build_algebra(get_root_datum("A", 2, "adjoint"))
chevalley.weyl_wP = lambda rd, mu: WeylElement(((2, 0), (0, 1)), ())
try:
    wP_representative(alg, Coweight((1, 0)))
except VerificationError as exc:
    print("raised:", exc)
else:
    print("accepted")
"""


def test_wp_refuses_a_matrix_that_leaves_the_roots(monkeypatch):
    # negative control: a matrix that sends alpha_1 to 2 alpha_1 is no Weyl
    # element; the root image must refuse it by name, not fail by KeyError,
    # in process and under -O
    from airycheck import VerificationError, chevalley
    from airycheck.rootdata import WeylElement

    alg = build_algebra(get_root_datum("A", 2, "adjoint"))
    monkeypatch.setattr(chevalley, "weyl_wP", lambda rd, mu: WeylElement(((2, 0), (0, 1)), ()))
    with pytest.raises(VerificationError, match=re.escape("root (1, 0) to (2, 0)")):
        wP_representative.__wrapped__(alg, Coweight((1, 0)))
    out = _run_optimized(_CORRUPT_MATRIX)
    assert out.startswith("raised:") and "(1, 0) to (2, 0), outside" in out, out


def _lift_cases():
    """Every suite type in both forms over QQ, D5 in both forms, GL_3 and
    GL_5 over QQ and F_7, GL_2, GL_4 and GL_6 over F_7, E6 and E7 in both
    forms and E8 adjoint over QQ."""
    cases = [(s, r, f, QQ) for s, r in SUITE_TYPES + [("D", 5)] for f in ("sc", "adjoint")]
    cases += [("GL", n, "gl", F) for n in (3, 5) for F in (QQ, GF(7))]
    cases += [("GL", n, "gl", GF(7)) for n in (2, 4, 6)]
    cases += [("E", r, "sc", QQ) for r in (6, 7)]
    cases += [("E", r, "adjoint", QQ) for r in (6, 7, 8)]
    for series, rank, form, field in cases:
        yield build_algebra(get_root_datum(series, rank, form), field)


def test_wp_lift_matches_the_unreduced_word_oracle():
    # the lift read off w_P and X_{-1} against the product of the exp(ad)
    # series reflection lifts along the concatenated word, torus-corrected
    # on field elements: the same entries, each column's rows ascending
    for alg in _lift_cases():
        for mu in minuscule_coweights(alg.rd):
            got = wP_representative(alg, mu)
            assert all(list(col) == sorted(col) for col in got)
            want = tuple(tuple(sorted(col)) for col in wp_lift(alg, mu))
            assert got == want, (alg.rd.series, alg.rd.rank, alg.rd.form, mu)


def _int_lift(alg, mu):
    """(w_P, the lift as lists of (row, int) columns) over QQ."""
    cols = [[(r, int(c)) for r, c in col] for col in wP_representative(alg, mu)]
    return weyl_wP(alg.rd, mu), cols


def _b3_lift():
    alg = build_algebra(get_root_datum("B", 3, "adjoint"))
    mu = next(m for m in minuscule_coweights(alg.rd) if any(m.coords))
    w, cols = _int_lift(alg, mu)
    _check_lift(alg, w, cols)  # the lift itself passes
    return alg, w, cols


def test_lift_check_sees_a_root_column_off_w_alpha():
    alg, w, cols = _b3_lift()
    a = alg.rd.root_index[alg.rd.theta]
    (row, c), = cols[a]
    for bad in [((row, 2 * c),), ((row, c), (alg.cartan_index(0), 1)), (((row + 1) % alg.npos, c),)]:
        broken = list(cols)
        broken[a] = bad
        with pytest.raises(airycheck.VerificationError, match="does not send E_"):
            _check_lift(alg, w, broken)


def test_lift_check_sees_a_sign_off_the_structure_constants():
    # flipping eps(a) alone breaks eps(a) eps(-a) = 1; flipping eps(a) and
    # eps(-a) together keeps it, and a pair (a, +-alpha_i) sees it
    alg, w, cols = _b3_lift()
    rd = alg.rd
    a = rd.root_index[rd.theta]

    def flipped(indices):
        out = list(cols)
        for i in indices:
            (row, c), = out[i]
            out[i] = ((row, -c),)
        return out

    with pytest.raises(airycheck.VerificationError, match="signs of"):
        _check_lift(alg, w, flipped([a]))
    with pytest.raises(airycheck.VerificationError, match="no automorphism"):
        _check_lift(alg, w, flipped([a, rd.neg[a]]))


def test_lift_check_sees_a_wrong_cartan_block():
    alg, w, cols = _b3_lift()
    k = alg.cartan_index(0)
    broken = list(cols)
    broken[k] = tuple((r, 3 * c) for r, c in cols[k])
    with pytest.raises(airycheck.VerificationError, match="coroot"):
        _check_lift(alg, w, broken)
    # GL_n: one vector added to every Cartan column leaves each
    # h_{alpha_i} = b_i - b_{i+1} in place; only the centre sees it
    alg = build_algebra(get_root_datum("GL", 3, "gl"))
    mu = Coweight((1, 0, 0))
    w, cols = _int_lift(alg, mu)
    _check_lift(alg, w, cols)
    first = alg.cartan_index(0)
    for j in range(first, alg.dim):
        got = dict(cols[j])
        got[first] = got.get(first, 0) + 1
        cols[j] = sorted((r, c) for r, c in got.items() if c)
    with pytest.raises(airycheck.VerificationError, match=r"coroot \(1, 1, 1\)"):
        _check_lift(alg, w, cols)


def test_verification_error_is_an_assertion_error():
    assert issubclass(airycheck.VerificationError, AssertionError)


def test_e6_centralizer_and_decomposition():
    rd = get_root_datum("E", 6, "adjoint")
    alg = build_algebra(rd)
    mult = Counter(exponents(rd))
    zs = centralizer_z(alg)
    for r in range(1, alg.h):
        assert zs[r].dim == mult[r]
    mus = minuscule_coweights(rd)
    assert len(mus) == 3
    for mu in mus:
        for r in range(1, alg.h):
            assert decomposition_check(alg, mu, r)
