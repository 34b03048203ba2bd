import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import airycheck
from matrix_oracle import mat_mul
from airycheck.cli import SUITE_TYPES
from airycheck.rootdata import (
    Coweight,
    _weyl_from_word,
    alpha_mu,
    check_wP_heights,
    coxeter_number,
    dim_bunJ_defect,
    exponents,
    fundamental_coweight,
    get_root_datum,
    minuscule_bijection_check,
    minuscule_coweights,
    stab_dimension,
    swan_identity_check,
    u_mu_roots,
    weyl_w0,
    weyl_wP,
    weyl_wP0,
    wP_reduced_word,
)

ALL_TYPES = (
    [("A", r) for r in range(1, 7)]
    + [("B", r) for r in (2, 3, 4)]
    + [("C", r) for r in (2, 3, 4)]
    + [("D", 4), ("G", 2), ("F", 4)]
)


@pytest.mark.parametrize("series,rank,form", [(s, r, "adjoint") for s, r in ALL_TYPES]
                         + [("GL", n, "gl") for n in (2, 3, 5)])
def test_root_layout_is_set_once_and_rebuilt_on_unpickling(series, rank, form):
    rd = get_root_datum(series, rank, form)
    assert rd.roots is rd.roots
    npos = len(rd.pos_roots)
    assert rd.roots[:npos] == rd.pos_roots
    for i, a in enumerate(rd.roots):
        assert rd.root_index[a] == i
        assert rd.roots[rd.neg[i]] == tuple(-c for c in a)
    assert [[int(j == i) for j in range(rd.n)] for i in range(rd.n)] == list(
        map(list, rd.simple_roots))
    copy = pickle.loads(pickle.dumps(rd))
    assert copy == rd and copy is not rd
    assert (copy.roots, copy.root_index, copy.neg, copy.simple_roots) == (
        rd.roots, rd.root_index, rd.neg, rd.simple_roots)


def test_a1_basics():
    rd = get_root_datum("A", 1, "sc")
    assert rd.num_roots == 2
    assert coxeter_number(rd) == 2
    assert exponents(rd) == [1]


def test_g2_basics():
    rd = get_root_datum("G", 2, "adjoint")
    assert rd.num_roots == 12
    assert coxeter_number(rd) == 6
    assert exponents(rd) == [1, 5]


def test_odd_coxeter_a4():
    assert coxeter_number(get_root_datum("A", 4, "sc")) == 5
    assert coxeter_number(get_root_datum("D", 4, "sc")) == 6


@pytest.mark.parametrize(
    "series,rank,exps",
    [("A", 2, [1, 2]), ("A", 3, [1, 2, 3]), ("B", 2, [1, 3])],
)
def test_exponents(series, rank, exps):
    assert exponents(get_root_datum(series, rank, "sc")) == exps


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_root_datum_invariants(series, rank):
    rd = get_root_datum(series, rank, "adjoint")
    h = coxeter_number(rd)
    assert rd.num_roots == rd.n * h
    assert rd.height(rd.theta) == h - 1
    exps = exponents(rd)
    assert all(exps[i] + exps[rd.n - 1 - i] == h for i in range(rd.n))
    assert sum(exps) == rd.num_roots // 2


@pytest.mark.parametrize("series,rank", ALL_TYPES + [("E", 8)])
def test_pairings_and_coroots(series, rank):
    # the int pairing table against <root, alpha-check_i> = sum_j a_ij root_j,
    # and the coroots against 2 d_j beta_j / (beta, beta) in Fractions
    rd = get_root_datum(series, rank, "sc")
    n = rd.n
    assert len(rd.pairings) == rd.num_roots
    for root, t in zip(rd.roots, rd.pairings):
        assert t == tuple(sum(rd.cartan[i][j] * root[j] for j in range(n)) for i in range(n))
    for beta, cr in zip(rd.pos_roots, rd.coroots):
        norm = sum(beta[i] * beta[j] * rd.d[j] * rd.cartan[j][i]
                   for i in range(n) for j in range(n))
        assert cr == tuple(Fraction(2) * rd.d[j] * beta[j] / norm for j in range(n))


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_weyl_matrices_are_products_of_reflections(series, rank):
    rd = get_root_datum(series, rank, "adjoint")
    n = rd.n

    def reflection(i):  # s_i on simple-root coordinates
        return [[int(a == b) - (a == i) * rd.cartan[i][b] for b in range(n)] for a in range(n)]

    for mu in minuscule_coweights(rd):
        w = weyl_wP(rd, mu)
        m = [[int(a == b) for b in range(n)] for a in range(n)]
        for i in w.word:
            m = mat_mul(m, reflection(i))
        assert w.matrix == tuple(map(tuple, m))
        # w_P = w_{P,0} w_0: its word is theirs concatenated, its matrix
        # their product
        wp0, w0 = weyl_wP0(rd, mu), weyl_w0(rd)
        assert w.word == wp0.word + w0.word
        assert w.matrix == tuple(map(tuple, mat_mul(wp0.matrix, w0.matrix)))
        for a in rd.roots:
            assert w.apply_root(a) == tuple(x for (x,) in mat_mul(w.matrix, [[c] for c in a]))


def test_weyl_wp_is_the_word_walk():
    # w_P multiplies the cached matrices of w_{P,0} and w_0; the reference
    # walks their concatenated word one reflection at a time
    cases = [(s, r, f) for s, r in SUITE_TYPES for f in ("sc", "adjoint")]
    cases += [("GL", n, "gl") for n in range(2, 7)] + [("E", r, "adjoint") for r in (6, 7, 8)]
    for series, rank, form in cases:
        rd = get_root_datum(series, rank, form)
        for mu in minuscule_coweights(rd):
            walked = _weyl_from_word(rd, weyl_wP0(rd, mu).word + weyl_w0(rd).word)
            w = weyl_wP(rd, mu)
            assert (w.matrix, w.word) == (walked.matrix, walked.word), (series, rank, form, mu)


REDUCED_WORD_CASES = (
    [(s, r, f) for s, r in ALL_TYPES for f in ("sc", "adjoint")]
    + [("GL", n, "gl") for n in (2, 4, 6)]
    + [("E", r, "adjoint") for r in (6, 7, 8)]
)


@pytest.mark.parametrize("series,rank,form", REDUCED_WORD_CASES)
def test_reduced_word_rebuilds_w_p(series, rank, form):
    # the word read off w_P's matrix multiplies back to that matrix, and
    # its length is the number of positive roots w_P sends to negative ones
    rd = get_root_datum(series, rank, form)
    n = rd.n

    def reflection(i):  # s_i on simple-root coordinates
        return [[int(a == b) - (a == i) * rd.cartan[i][b] for b in range(n)] for a in range(n)]

    for mu in minuscule_coweights(rd):
        w, word = weyl_wP(rd, mu), wP_reduced_word(rd, mu)
        m = [[int(a == b) for b in range(n)] for a in range(n)]
        for i in word:
            m = mat_mul(m, reflection(i))
        assert tuple(map(tuple, m)) == w.matrix, (series, rank, form, mu)
        inversions = [a for a in rd.pos_roots if rd.height(w.apply_root(a)) < 0]
        assert len(word) == len(inversions) <= len(w.word), (series, rank, form, mu)


def test_reduced_word_of_a2():
    # w_P for mu = (1, 0) has the concatenated word (1, 0, 1, 0) and the
    # reduced word (0, 1); for mu = 0 it is w_0 w_0 = 1, whose reduced word
    # is empty, in E8 too, where the concatenation has 240 letters
    rd = get_root_datum("A", 2, "adjoint")
    assert weyl_wP(rd, Coweight((1, 0))).word == (1, 0, 1, 0)
    assert wP_reduced_word(rd, Coweight((1, 0))) == (0, 1)
    assert wP_reduced_word(rd, Coweight((0, 0))) == ()
    assert len(weyl_wP(get_root_datum("E", 8, "adjoint"), Coweight((0,) * 8)).word) == 240
    assert wP_reduced_word(get_root_datum("E", 8, "adjoint"), Coweight((0,) * 8)) == ()


def test_minuscule_sl2_vs_pgl2():
    sl2 = get_root_datum("A", 1, "sc")
    assert [m.coords for m in minuscule_coweights(sl2)] == [(0,)]
    pgl2 = get_root_datum("A", 1, "adjoint")
    assert {m.coords for m in minuscule_coweights(pgl2)} == {(0,), (1,)}


def test_minuscule_gl_window():
    # the n minuscule coweights 1^k 0^(n-k) of degree k = 0..n-1, in that
    # order; each is minuscule and dominant
    for n in (2, 3, 4):
        rd = get_root_datum("GL", n, "gl")
        mus = minuscule_coweights(rd)
        assert isinstance(mus, tuple)
        assert [m.coords for m in mus] == [(1,) * k + (0,) * (n - k) for k in range(n)]
        assert all(rd.is_minuscule(m) and rd.is_dominant(m) for m in mus)
        assert minuscule_coweights(rd) is mus


def test_minuscule_bijection():
    # counts over the full coweight lattice, so the adjoint-form data;
    # they match the centers of SL_3, G_2, Sp_4
    sl3 = get_root_datum("A", 2, "adjoint")
    assert minuscule_bijection_check(sl3)
    assert len(minuscule_coweights(sl3)) == 3
    g2 = get_root_datum("G", 2, "sc")
    assert minuscule_bijection_check(g2)
    assert len(minuscule_coweights(g2)) == 1
    sp4 = get_root_datum("C", 2, "adjoint")
    assert minuscule_bijection_check(sp4)
    assert len(minuscule_coweights(sp4)) == 2


def test_alpha_mu():
    rd = get_root_datum("A", 3, "sc")
    assert alpha_mu(rd, Coweight((0, 0, 0))) is None
    assert alpha_mu(rd, fundamental_coweight(rd, 1)) == 1
    pgl2 = get_root_datum("A", 1, "adjoint")
    assert alpha_mu(pgl2, Coweight((1,))) == 0


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def test_weyl_wp_trivial_mu():
    for series, rank in (("A", 2), ("B", 2), ("D", 4)):
        rd = get_root_datum(series, rank, "adjoint")
        assert weyl_wP(rd, Coweight((0,) * rank)).matrix == _identity(rank)


def test_weyl_wp_pgl2():
    rd = get_root_datum("A", 1, "adjoint")
    mu = Coweight((1,))
    assert weyl_wP0(rd, mu).matrix == _identity(1)
    assert weyl_wP(rd, mu).matrix == weyl_w0(rd).matrix


def test_wp0_theta_is_alpha_mu():
    rd = get_root_datum("A", 3, "sc")
    mu = fundamental_coweight(rd, 0)
    assert weyl_wP0(rd, mu).apply_root(rd.theta) == (1, 0, 0)


def test_wp_heights():
    rd = get_root_datum("A", 3, "sc")
    assert check_wP_heights(rd, fundamental_coweight(rd, 0))
    d4 = get_root_datum("D", 4, "adjoint")
    for mu in minuscule_coweights(d4):
        assert check_wP_heights(d4, mu)


def test_u_mu_roots():
    rd = get_root_datum("A", 2, "sc")
    u, u_minus = u_mu_roots(rd, Coweight((0, 0)))
    assert set(u) == set(rd.pos_roots)
    assert set(u_minus) == {tuple(-c for c in a) for a in rd.pos_roots}

    pgl2 = get_root_datum("A", 1, "adjoint")
    u, u_minus = u_mu_roots(pgl2, Coweight((1,)))
    assert set(u) == {(-1,)} and set(u_minus) == {(1,)}

    sl3 = get_root_datum("A", 2, "sc")
    u, _ = u_mu_roots(sl3, fundamental_coweight(sl3, 0))
    assert set(u) == {(0, 1), (-1, 0), (-1, -1)}


def test_stab_dimension_values():
    rd = get_root_datum("A", 2, "sc")
    assert stab_dimension(rd, Coweight((0, 0))) == rd.dim_b
    sl2 = get_root_datum("A", 1, "sc")
    assert stab_dimension(sl2, Coweight((2,))) == 3  # mu = alpha-check
    sl4 = get_root_datum("A", 3, "sc")
    assert stab_dimension(sl4, fundamental_coweight(sl4, 1)) == 9 == sl4.dim_b


def test_stab_dichotomy_small_box():
    for series, rank in (("A", 2), ("C", 2)):
        rd = get_root_datum(series, rank, "adjoint")
        coords = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
        for c in coords:
            mu = Coweight(c)
            d = stab_dimension(rd, mu)
            assert d >= rd.dim_b
            assert (d == rd.dim_b) == (rd.is_dominant(mu) and rd.is_minuscule(mu))


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_defect_and_swan(series, rank):
    rd = get_root_datum(series, rank, "adjoint")
    assert dim_bunJ_defect(rd) == 0
    assert swan_identity_check(rd)


def test_invalid_type():
    with pytest.raises(ValueError):
        get_root_datum("Z", 1, "sc")
    with pytest.raises(ValueError):
        get_root_datum("G", 3, "sc")


_IDENTITY_WP = """
from airycheck import chevalley, cli, rootdata
from airycheck.rootdata import WeylElement

assert not __debug__, "this check must run under python -O"
rd = cli._suite_datum("A", 3)
one = WeylElement(tuple(tuple(int(i == j) for j in range(rd.n)) for i in range(rd.n)), ())
weyl_wP = rootdata.weyl_wP


def identity_on_a3(datum, mu):  # w_P of this root datum replaced by the identity
    return one if datum == rd else weyl_wP(datum, mu)


rootdata.weyl_wP = chevalley.weyl_wP = identity_on_a3
params, witness = cli.check_weyl_appendix()
print("failed" if witness else "passed", witness and witness[0])
"""


def test_weyl_appendix_check_fails_under_optimize():
    # the identity permutes each height class and its lift fixes X_{-1}, so
    # only the w_P Phi+ = Phi(u_mu) check in u_mu_roots can see it
    src = os.path.dirname(os.path.dirname(airycheck.__file__))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _IDENTITY_WP],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("failed"), out.stdout
    assert "w_P Phi+ != Phi(u_mu)" in out.stdout, out.stdout
