import hashlib
import os
import random
import subprocess
import sys

import pytest

import airycheck
import factor_oracle
from matrix_oracle import mat_mul
from test_chevalley import _run_optimized
from airycheck import cli, loopmodel
from airycheck.chevalley import (
    a_subspace,
    build_algebra,
    centralizer_z,
    height_piece,
    principal_sl2,
    u_mu_piece,
)
from airycheck.loopmodel import (
    GLnModel,
    all_lines,
    draw_factorization,
    factorize_I1,
    filtration_basis,
    odd_parahoric_check,
    phi_eval,
    phi_generic_check,
    round_trip_mismatch,
    stab_affine_roots,
)
from airycheck.rootdata import Coweight, get_root_datum, minuscule_coweights


def test_affine_lines_a2():
    rd = get_root_datum("A", 2, "sc")
    alg = build_algebra(rd)
    # depth-1 lines inside Lie I(1)/Lie I(2): the simple roots at level 0
    # plus -theta at level 1
    lines = [l for l in filtration_basis(alg, 1) if loopmodel._line_depth(rd, l) < 2]
    assert len(lines) == 3
    assert set(lines) == {((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)}


def _filtration_dim(alg, r, r_hi):
    rd = alg.rd
    return sum(rd.rank if root is None else 1 for root, power in filtration_basis(alg, r)
               if loopmodel._line_depth(rd, (root, power)) < r_hi)


def test_filtration_dims():
    rd = get_root_datum("A", 2, "sc")
    alg = build_algebra(rd)
    h = alg.h
    # Lie I(1)/Lie I(1 + h/2 rounded up): one line per depth in range
    npos = len(rd.pos_roots)
    k = (h + 1) // 2
    dims = [_filtration_dim(alg, r, r + 1) for r in range(1, h)]
    assert all(d >= 1 for d in dims)
    assert _filtration_dim(alg, 0, 1) == rd.rank  # only the Cartan sits at depth 0
    total = _filtration_dim(alg, 1, 1 + h)
    assert total == rd.num_roots + rd.rank  # one full cyclic period


def test_line_depths():
    rd = get_root_datum("A", 2, "sc")
    assert loopmodel._line_depth(rd, ((1, 1), 0)) == 2
    assert loopmodel._line_depth(rd, ((-1, -1), 1)) == 1
    assert loopmodel._line_depth(rd, (None, 2)) == 6
    assert len(all_lines(rd)) == (rd.num_roots + 1) * (3 + 2)


@pytest.mark.parametrize("series,rank", [("A", 2), ("C", 2), ("D", 4), ("G", 2)])
def test_phi_generic(series, rank):
    alg = build_algebra(get_root_datum(series, rank, "adjoint"))
    assert phi_generic_check(alg)


def test_weyl_appendix_fails_on_a_degenerate_phi(monkeypatch):
    # with one coefficient of N^- zeroed, phi vanishes on that affine simple
    # line; only the phi sub-check reads phi, and it fails on every type
    def degenerate_sl2(alg):
        nminus, h, nplus = principal_sl2(alg)
        i = next(i for i, c in enumerate(nminus) if c)
        return nminus[:i] + (alg.field(0),) + nminus[i + 1:], h, nplus

    monkeypatch.setattr(loopmodel, "principal_sl2", degenerate_sl2)
    params, witness = cli.check_weyl_appendix()
    assert {w["what"] for w in witness} == {"phi generic"}
    assert [w["type"] for w in witness] == params["phi_generic"]
    assert len(witness) == len(cli.SUITE_TYPES)


def test_weyl_appendix_fails_on_a_shifted_parahoric_count(monkeypatch):
    # graded pieces read one height too low no longer count the lines
    # between the parahoric and Iwahori filtrations of A2, A4, A6
    monkeypatch.setattr(loopmodel, "height_piece", lambda alg, r: height_piece(alg, r - 1))
    params, witness = cli.check_weyl_appendix()
    assert {w["what"] for w in witness} == {"odd parahoric"}
    assert [w["type"] for w in witness] == params["odd_parahoric"] == ["A2", "A4", "A6"]


def test_phi_values():
    alg = build_algebra(get_root_datum("A", 2, "sc"))
    zero = [None] * (alg.h + 2)
    # phi pairs t^1-level against N^-, t^2-level against E_theta
    Y = list(zero)
    Y[1] = alg.E((1, 0))
    v1 = phi_eval(alg, Y)
    assert v1
    Y = list(zero)
    Y[1] = alg.E((1, 1))  # theta at level 1 has depth h+2-... pairs to zero
    assert not phi_eval(alg, Y)
    Y = list(zero)
    Y[2] = alg.E((-1, -1))
    assert phi_eval(alg, Y)


def test_stab_affine_roots_trivial_mu():
    alg = build_algebra(get_root_datum("A", 2, "sc"))
    lines = stab_affine_roots(alg, Coweight((0, 0)))
    assert lines == {(a, 0) for a in alg.rd.pos_roots}


def test_stab_affine_roots_pgl2():
    alg = build_algebra(get_root_datum("A", 1, "adjoint"))
    lines = stab_affine_roots(alg, Coweight((1,)))
    assert lines == {((-1,), 1)}


def test_stab_affine_roots_minuscule_suite():
    for series, rank in (("A", 3), ("C", 2), ("D", 4)):
        rd = get_root_datum(series, rank, "adjoint")
        alg = build_algebra(rd)
        for mu in minuscule_coweights(rd):
            lines = stab_affine_roots(alg, mu)
            assert len(lines) == len(rd.pos_roots)


def test_odd_parahoric():
    assert odd_parahoric_check(build_algebra(get_root_datum("A", 2, "sc")))
    assert odd_parahoric_check(build_algebra(get_root_datum("A", 4, "sc")))
    with pytest.raises(ValueError):
        odd_parahoric_check(build_algebra(get_root_datum("A", 3, "sc")))


# ---------------------------------------------------------------------------
# GL_n matrix model.

def _off_identity(model, A):
    """The entry list (t-power, row, col, value) of A - 1."""
    p = model.p
    return [
        (i, j, k, (x - (i == 0 and j == k)) % p)
        for i, blk in enumerate(A) for j, row in enumerate(blk) for k, x in enumerate(row)
        if (x - (i == 0 and j == k)) % p
    ]


def _one_plus_series(model, entries):
    """1 + the series with these (t-power, row, col, value) entries."""
    out = model.identity_series()
    for i, j, k, c in entries:
        out[i][j][k] = (out[i][j][k] + c) % model.p
    return out


def _copy(A):
    return [[list(row) for row in blk] for blk in A]


def _packing(model):
    return loopmodel._packing(model.n, model.p)


def _rows(model, A):
    """The packed rows of A, a series of N or fewer blocks."""
    return loopmodel._pack_rows(_packing(model), _padded(model, A))


def _series(model, rows, blocks):
    """The first `blocks` blocks of the series with packed rows `rows`."""
    return loopmodel._unpack_rows(_packing(model), rows)[:blocks]


def _cols(model, A):
    """The packed columns of A: column k holds entry (m, j, k) at slot
    (m n + j) n + k, as factorize_I1 holds u, a and s."""
    pk, n = _packing(model), model.n
    whole = int.from_bytes(
        pk.series.pack(*[x % model.p for blk in A for row in blk for x in row]), "little")
    slot = (1 << pk.width) - 1
    return [whole & sum(slot << pk.width * q for q in range(k, model.N * n * n, n))
            for k in range(n)]


def _solved(model, entries, A):
    """(1 + Z)^{-1} A by _solve_one_plus_rows, on the packed rows of A."""
    rows = _rows(model, A)
    loopmodel._solve_one_plus_rows(_packing(model), entries, rows, len(A))
    return _series(model, rows, len(A))


def _one_plus_applied(model, entries, A):
    """(1 + Z) A by _one_plus_rows, on the packed rows of A."""
    rows = _rows(model, A)
    loopmodel._one_plus_rows(_packing(model), entries, rows, len(A))
    return _series(model, rows, len(A))


def test_model_mul_inv():
    # g = 1 + Z in I(1) times its inverse, which _solve_one_plus_rows applies to 1
    model = GLnModel(3, 7)
    rng = random.Random(0)
    one = model.identity_series()
    for _ in range(20):
        g = model.random_I1(rng)
        assert model.in_filtration(g, 1)
        assert model.eq(model.mul(g, _solved(model, _off_identity(model, g), one)), one)


def _depth(model, A):
    """Filtration depth of A - 1, None for the identity: the minimum of
    i * h + c - r over the entries (i, r, c) of A - 1 that are nonzero mod p,
    the reference that in_filtration is tested against."""
    p, h = model.p, model.h
    depths = [
        i * h + c - r
        for i, blk in enumerate(A) for r, row in enumerate(blk) for c, x in enumerate(row)
        if (x - (i == 0 and r == c)) % p
    ]
    return min(depths, default=None)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_gl_depths_are_the_entry_depths_of_the_reference(n):
    # the one GL_n entry table against _depth's formula i h + c - r, in
    # (t-power, row, col) order
    want = {(i, r, c): i * n + c - r for i in range(n + 2) for r in range(n) for c in range(n)}
    depths = loopmodel._gl_depths(n)
    assert depths == want and list(depths) == list(want)


def test_model_depth():
    model = GLnModel(2, 5)
    g = model.identity_series()
    assert _depth(model, g) is None
    g[1][0][0] = 1  # diagonal at t^1: depth h = 2
    assert _depth(model, g) == 2
    g[0][0][1] = 3  # entry above diagonal at t^0: depth 1
    assert _depth(model, g) == 1


KERNEL_CASES = [(n, p) for n in (2, 3, 4) for p in (5, 7, 11)]


def _random_series(model, rng, lo=0, hi=None):
    hi = model.p if hi is None else hi
    return [
        [[rng.randrange(lo, hi) for _ in range(model.n)] for _ in range(model.n)]
        for _ in range(model.N)
    ]


def _naive_mul(model, A, B):
    """sum_{i+j=k} A_i B_j with FqElement blocks and the reference mat_mul."""
    F, n = model.field, model.n
    out = [[[F(0)] * n for _ in range(n)] for _ in range(model.N)]
    for i in range(model.N):
        for j in range(model.N - i):
            prod = mat_mul(
                [[F(x) for x in row] for row in A[i]], [[F(x) for x in row] for row in B[j]]
            )
            for r in range(n):
                for c in range(n):
                    out[i + j][r][c] = out[i + j][r][c] + prod[r][c]
    return [[[x.v for x in row] for row in blk] for blk in out]


def _is_reduced(model, A):
    return all(
        type(x) is int and 0 <= x < model.p for blk in A for row in blk for x in row
    )


@pytest.mark.parametrize("n,p", KERNEL_CASES)
def test_mul_matches_field_convolution(n, p):
    model = GLnModel(n, p)
    rng = random.Random(10 * n + p)
    for _ in range(8):
        A, B = _random_series(model, rng), _random_series(model, rng)
        for k in rng.sample(range(model.N), 2):  # zero blocks are skipped
            A[k] = [[0] * n for _ in range(n)]
        assert model.mul(A, B) == _naive_mul(model, A, B)
    # a run of leading zero blocks, on either side
    A = model.zero_series()
    A[2] = _random_series(model, rng)[2]
    B = _random_series(model, rng)
    assert model.mul(A, B) == _naive_mul(model, A, B)
    assert model.mul(B, A) == _naive_mul(model, B, A)
    assert model.mul(model.zero_series(), B) == model.zero_series()


@pytest.mark.parametrize("n,p", KERNEL_CASES)
def test_mul_with_zero_rows_multiples_of_p_and_negative_entries(n, p):
    # a row of A that is all zero is skipped, one of nonzero multiples of p
    # is not zero as a list but is mod p, and negative entries reduce
    model = GLnModel(n, p)
    rng = random.Random(400 + 10 * n + p)
    for _ in range(8):
        A = _random_series(model, rng, -2 * p, p)
        B = _random_series(model, rng, -2 * p, 2 * p)
        for blk in A:
            for r in range(n):
                kind = rng.randrange(4)
                if kind == 0:
                    blk[r] = [0] * n
                elif kind == 1:
                    blk[r] = [rng.choice((p, -2 * p, 0)) for _ in range(n)]
                    blk[r][rng.randrange(n)] = p
        A[rng.randrange(model.N)][rng.randrange(n)] = [0] * n  # at least one zero row
        assert model.mul(A, B) == _naive_mul(model, A, B)
        assert model.mul(B, A) == _naive_mul(model, B, A)
    multiples = [[[rng.choice((p, -2 * p)) for _ in range(n)] for _ in range(n)]
                 for _ in range(model.N)]
    assert model.mul(multiples, _random_series(model, rng)) == model.zero_series()


@pytest.mark.parametrize("n,p", KERNEL_CASES)
def test_times_one_plus_on_entry_dicts(n, p):
    # A (1 + Z) on the packed columns of A agrees with the dense product, for
    # Z with several entries, some of whose target columns others read:
    # every update reads the columns of the old A; the columns come back
    # reduced, each holding only its own slots
    model = GLnModel(n, p)
    rng = random.Random(600 + 10 * n + p)
    chain = [(0, j, j + 1, rng.randrange(1, p)) for j in range(n - 1)]  # col j+1 gains col j
    chain += [(1, n - 1, 0, rng.randrange(1, p)), (model.N - 1, 0, 0, 1)]
    cases = [chain] + [_random_positive_depth(model, rng, d) for d in (0.1, 0.3, 1.0)]
    pk = _packing(model)
    for Z in cases:
        for A in (model.identity_series(), model.random_I1(rng), _random_series(model, rng)):
            D = _cols(model, A)
            got = loopmodel._times_one_plus_cols(pk, D, Z)
            dense = loopmodel._unpack_cols(pk, D)
            assert got is D and _is_reduced(model, dense) and D == _cols(model, dense)
            assert dense == model.mul(A, _one_plus_series(model, Z))
    # an entry that cancels leaves the identity: (1 - c E_01)(1 + c E_01) = 1
    c = rng.randrange(1, p)
    A = model.identity_series()
    A[0][0][1] = p - c
    D = _cols(model, A)
    one = _cols(model, model.identity_series())
    assert loopmodel._times_one_plus_cols(pk, D, [(0, 0, 1, c)]) == one
    assert loopmodel._unpack_cols(pk, D) == model.identity_series()


@pytest.mark.parametrize("n,p", KERNEL_CASES)
def test_mul_associative(n, p):
    model = GLnModel(n, p)
    rng = random.Random(100 + 10 * n + p)
    for _ in range(5):
        A, B, C = (_random_series(model, rng) for _ in range(3))
        assert model.mul(model.mul(A, B), C) == model.mul(A, model.mul(B, C))


def _random_positive_depth(model, rng, density):
    """An entry list Z of positive depth: each entry (i, j, k) with
    i h + k - j >= 1 present with probability `density`."""
    n, p = model.n, model.p
    return [
        (i, j, k, rng.randrange(1, p))
        for i in range(model.N) for j in range(n) for k in range(n)
        if i * n + k - j >= 1 and rng.random() < density
    ]


def _padded(model, A):
    """A, cut to its first blocks, with zero blocks up to N."""
    return [[list(row) for row in blk] for blk in A] + model.zero_series()[len(A):]


def _check_two_sided(model, entries, rng):
    """_solve_one_plus_rows undoes _one_plus_rows and the other way round, on a
    full and on a 2-block series, and agrees with the product by 1 + Z: on
    the 2-block series, blocks 0 and 1 of the product by the zero-padded X."""
    one_plus = _one_plus_series(model, entries)
    for blocks in (model.N, 2):
        A = _random_series(model, rng)[:blocks]
        X = _solved(model, entries, A)
        assert _one_plus_applied(model, entries, X) == A
        assert _solved(model, entries, _one_plus_applied(model, entries, A)) == A
        assert model.mul(one_plus, _padded(model, X))[:blocks] == A
    inv = _solved(model, entries, model.identity_series())
    assert model.mul(one_plus, inv) == model.mul(inv, one_plus) == model.identity_series()


@pytest.mark.parametrize("n,p", KERNEL_CASES)
def test_inv_two_sided(n, p):
    # (1 + Z)^{-1} as _solve_one_plus_rows applies it, for dense and sparse Z of
    # positive depth, and for Z with one block only, at t^0, t^1 or t^(N-1)
    model = GLnModel(n, p)
    rng = random.Random(200 + 10 * n + p)
    cases = [_random_positive_depth(model, rng, density) for density in (1.0, 0.5, 0.2)]
    for k in (0, 1, model.N - 1):
        cases.append([e for e in _random_positive_depth(model, rng, 1.0) if e[0] == k])
    for entries in cases:
        _check_two_sided(model, entries, rng)


@pytest.mark.parametrize("n,p", [(4, 7), (5, 11)])
def test_inv_two_sided_on_s_factors(n, p):
    # the S-factors 1 + Z of factorize_I1, Z read off a sample by z_lift
    model = GLnModel(n, p)
    rng = random.Random(n * p)
    maps = loopmodel._factor_bases((n, p), (0,) * n)
    for reads, _, _, _, z_lift in maps.values():
        for _ in range(3):
            x = [rng.randrange(p) for _ in reads]
            _check_two_sided(model, loopmodel._entries(z_lift, x, p), rng)


@pytest.mark.parametrize("n,p", KERNEL_CASES)
def test_mul_blocks_is_a_prefix_of_the_product(n, p):
    # blocks 0..k-1 of A B read only blocks 0..k-1 of A and of B
    model = GLnModel(n, p)
    rng = random.Random(500 + 10 * n + p)
    A, B = _random_series(model, rng), _random_series(model, rng)
    A[0] = A[1] = [[0] * n for _ in range(n)]  # leading zero blocks
    prod = model.mul(A, B)
    for blocks in range(1, model.N + 1):
        cut_a, cut_b = _padded(model, A[:blocks]), _padded(model, B[:blocks])
        assert model.mul(cut_a, B)[:blocks] == prod[:blocks]
        assert model.mul(A, cut_b)[:blocks] == prod[:blocks]
        assert model.mul(cut_a, cut_b)[:blocks] == prod[:blocks]


@pytest.mark.parametrize("n,p", KERNEL_CASES)
def test_mul_of_dense_top_residues(n, p):
    # every entry p - 1: each 64-bit slot takes its largest sum
    model = GLnModel(n, p)
    top = [[[p - 1] * n for _ in range(n)] for _ in range(model.N)]
    assert model.mul(top, top) == _naive_mul(model, top, top)
    shifted = [[[x - 2 * p for x in row] for row in blk] for blk in top]  # -p - 1
    assert model.mul(shifted, top) == model.mul(top, shifted) == _naive_mul(model, top, top)


def test_model_rejects_a_prime_whose_slots_overflow(monkeypatch):
    # 2b + p.bit_length() <= 64, b the bits of N n (p-1)^2, checked before
    # GF(p) builds a table.  At n = 8, 80 (p-1)^2 has b = 27 bits up to
    # p = 1023 (10 bits); from p = 1024 on p has 11 bits, and b = 26 would
    # need p <= 916, so 1023 is the largest p accepted
    def build(p):
        raise RuntimeError("a field table was built")

    monkeypatch.setattr(loopmodel, "GF", build)
    with pytest.raises(ValueError, match="64-bit slots"):
        GLnModel(2, 2 ** 61 - 1)
    for p in (1024, 1031, 2 ** 20):
        with pytest.raises(ValueError, match="64-bit slots"):
            GLnModel(8, p)
    with pytest.raises(RuntimeError, match="table"):
        GLnModel(8, 1023)


def test_largest_accepted_prime_multiplies_its_top_residues():
    # at the bound every slot of top * top takes its largest sum, 80 * 1020^2
    n, p = 8, 1021  # the largest prime below 1024
    model = GLnModel(n, p)
    top = [[[p - 1] * n for _ in range(n)] for _ in range(model.N)]
    assert model.mul(top, top) == _naive_mul(model, top, top)


@pytest.mark.parametrize("n", range(2, 9))
def test_packed_slots_reduce_exactly_at_every_width_edge(n, monkeypatch):
    # every p that GLnModel(n, p) accepts has a factorize_I1 slot width; at
    # the largest such p, and on both sides of each change of width, slots
    # up to their bound p (p - 1) reduce exactly
    def build(p):
        raise RuntimeError("accepted")

    def accepted(p):
        try:
            GLnModel(n, p)
        except ValueError:
            return False
        except RuntimeError:
            return True

    def first_wider(width):  # the least p whose slots are wider than `width`
        lo, hi = 2, top
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if loopmodel._packing(n, mid).width <= width else (lo, mid)
        return lo

    monkeypatch.setattr(loopmodel, "GF", build)
    top = max(p for p in range(2, 1 << 12) if accepted(p))
    edges = {top} | {q for width in (16, 32) for q in (first_wider(width) - 1, first_wider(width))}
    assert [loopmodel._packing(n, p).width for p in sorted(edges)] == [16, 32, 32, 64, 64]
    rng = random.Random(n)
    for p in sorted(edges):
        pk = loopmodel._packing(n, p)
        M, s, low = pk.reduce
        size = pk.series.size // (pk.width // 8)
        values = [0, 1, p - 1, p, p * (p - 1)]
        values += [rng.randrange(p * p - p + 1) for _ in range(size - len(values))]
        v = int.from_bytes(pk.series.pack(*values), "little")
        got = pk.series.unpack((v - p * ((v * M >> s) & low)).to_bytes(pk.series.size, "little"))
        assert list(got) == [x % p for x in values], p


_GUARD_UNDER_O = """
from airycheck.loopmodel import GLnModel

assert not __debug__, "this check must run under python -O"
try:
    GLnModel(8, 1024)
except ValueError as exc:
    print("raised", exc)
"""


def test_slot_guard_raises_under_optimize():
    out = _run_optimized(_GUARD_UNDER_O)
    assert out.startswith("raised GL_8 series products over F_1024 overflow"), out


@pytest.mark.parametrize("n,p", KERNEL_CASES)
def test_residues_of_every_slot_value(n, p):
    # every value 0..N n (p-1)^2 that a slot of a product can hold, packed
    # N n^2 to an int as in mul, comes back as its residue mod p
    model = GLnModel(n, p)
    slots = model._slots
    k = model.N * n * n
    values = list(range(model.N * n * (p - 1) ** 2 + 1))
    values += [0] * (-len(values) % k)
    for i in range(0, len(values), k):
        chunk = values[i:i + k]
        acc = int.from_bytes(slots.pack(*chunk), "little")
        got = slots.unpack(model._residues(acc).to_bytes(slots.size, "little"))
        assert list(got) == [v % p for v in chunk]


@pytest.mark.parametrize("n,p", KERNEL_CASES)
def test_eq_reduces_entries_outside_the_residues(n, p):
    # eq compares mod p: negative entries and entries >= p, on either side
    # and in either order, against the reduced series
    model = GLnModel(n, p)
    rng = random.Random(900 + 10 * n + p)
    A = _random_series(model, rng)
    shift = lambda S, lo, hi: [[[x + p * rng.randrange(lo, hi) for x in row] for row in blk]
                               for blk in S]
    # every entry negative, every entry >= p, and a mix with residues
    for B in (shift(A, -3, 0), shift(A, 1, 4), shift(A, -2, 3)):
        assert model.eq(A, B) and model.eq(B, A) and model.eq(B, B)
        C = _copy(B)
        C[rng.randrange(model.N)][rng.randrange(n)][rng.randrange(n)] += 1
        assert not model.eq(A, C) and not model.eq(C, B)
    neg = [[[-x for x in row] for row in blk] for blk in A]
    assert model.eq(neg, [[[(-x) % p for x in row] for row in blk] for blk in A])


@pytest.mark.parametrize("n,p", KERNEL_CASES)
def test_kernel_returns_residues(n, p):
    # any ints in, residues in [0, p) out, and the same values as reduced input
    model = GLnModel(n, p)
    rng = random.Random(300 + 10 * n + p)
    A = _random_series(model, rng, -3 * p, 3 * p)
    B = _random_series(model, rng, -3 * p, 3 * p)
    red = lambda S: [[[x % p for x in row] for row in blk] for blk in S]
    prod = model.mul(A, B)
    assert _is_reduced(model, prod)
    assert prod == model.mul(red(A), red(B)) == _naive_mul(model, A, B)
    assert model.eq(A, red(A))
    g = model.random_I1(rng)
    shift = lambda S: [[[x + p * rng.randrange(-2, 3) for x in row] for row in blk] for blk in S]
    assert _depth(model, shift(g)) == _depth(model, g) >= 1
    assert _depth(model, shift(model.identity_series())) is None
    Y = model.zero_series()
    Y[1][0][n - 1] = -1 + 2 * p
    assert _is_reduced(model, model.exp_series(Y))
    assert _is_reduced(model, model.random_I1(rng))
    assert _is_reduced(model, model._x_tilde)


@pytest.mark.parametrize("n,p", KERNEL_CASES)
def test_inv_rejects_singular_constant_block(n, p):
    # _solve_one_plus_rows inverts 1 + Z only for Z of positive depth; a t^0
    # entry on or below the diagonal raises before the series is touched
    model = GLnModel(n, p)
    g = model.random_I1(random.Random(n * p))
    Z = _off_identity(model, g)
    A = _rows(model, model.random_I1(random.Random(n * p + 1)))
    before = list(A)
    # -1 at t^0 (n-1, n-1): the last row of the t^0 block of 1 + Z is 0 mod p
    for bad in ((0, n - 1, n - 1, p - 1), (0, n - 1, 0, 1)):
        with pytest.raises(ValueError, match=rf"t\^0 entry \({bad[1]}, {bad[2]}\)"):
            loopmodel._solve_one_plus_rows(_packing(model), Z + [bad], A, model.N)
        assert A == before


_SOLVE_UNDER_O = """
from airycheck import loopmodel
from airycheck.loopmodel import GLnModel

assert not __debug__, "this check must run under python -O"
model = GLnModel(3, 7)
pk = loopmodel._packing(3, 7)
try:
    rows = loopmodel._pack_rows(pk, model.identity_series())
    loopmodel._solve_one_plus_rows(pk, [(0, 1, 1, 6)], rows, model.N)
except ValueError as exc:
    print("raised", exc)
"""


def test_solve_one_plus_rejects_a_t0_entry_under_optimize():
    src = os.path.dirname(os.path.dirname(airycheck.__file__))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _SOLVE_UNDER_O],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised t^0 entry (1, 1)"), out.stdout


def test_exp_series_terminates():
    model = GLnModel(2, 5)
    Y = model.zero_series()
    Y[1][0][1] = 2
    g = model.exp_series(Y)
    assert g[0] == [[model.field(1), model.field(0)], [model.field(0), model.field(1)]]
    assert g[1][0][1] == model.field(2)


def _raise(*args, **kwargs):
    raise AssertionError("a dense series product was formed")


@pytest.mark.parametrize("n,p", [(3, 7), (4, 7), (6, 11)])
def test_exp_pair_is_exp_of_y_and_of_minus_y(n, p, monkeypatch):
    # one sparse power chain for both exponentials, no dense product, and
    # the same ValueError as exp_series where exp needs 1/p!
    model = GLnModel(n, p)
    rng = random.Random(n * p)
    longest = 0
    for d in range(1, 2 * model.h):  # Y has entries of depth >= d only
        Y = model.zero_series()
        for i, blk in enumerate(Y):
            for j, row in enumerate(blk):
                for k in range(n):
                    if i * model.h + k - j >= d and rng.random() < 0.3:
                        row[k] = rng.randrange(-p, 2 * p)
        minus = [[[-x for x in row] for row in blk] for blk in Y]
        entries = [(i, j, k, x) for i, blk in enumerate(Y) for j, row in enumerate(blk)
                   for k, x in enumerate(row) if x]
        try:
            expected = model.exp_series(Y), model.exp_series(minus)
        except ValueError:
            with pytest.raises(ValueError, match="1/p!"):
                loopmodel._exp_pair(model, entries)
            continue
        with monkeypatch.context() as m:
            m.setattr(GLnModel, "mul", _raise)
            pair = loopmodel._exp_pair(model, entries)
            longest = max(longest, len(loopmodel._sparse_exp_terms(model, entries)))
        for e, want in zip(pair, expected):
            assert len({c[:3] for c in e}) == len(e)
            assert all(0 < c < p for *_, c in e)
            assert _one_plus_series(model, e) == want
    assert longest >= 3


def test_factorize_i1_forms_no_series_product(monkeypatch):
    outs = []
    with monkeypatch.context() as m:
        m.setattr(GLnModel, "mul", _raise)
        for n in (2, 3, 4):
            model = GLnModel(n, 7)
            rng = random.Random(n)
            for mu in minuscule_coweights(model.rd):
                for _ in range(3):
                    g = model.random_I1(rng)
                    outs.append((model, g, factorize_I1(model, g, mu)))
    for model, g, (u, a, s, res) in outs:
        assert model.eq(model.mul(model.mul(model.mul(u, a), s), res), g)


@pytest.mark.parametrize("fault,failures", [("S-solve by 1 + Z", 82), ("A-inverse by exp(Y)", 63)])
def test_factorization_check_sees_a_wrong_inverse(fault, failures, monkeypatch):
    # undoing a factor on the remainder by the factor itself, instead of its
    # inverse, leaves the round trip with wrong coordinates or residuals
    if fault.startswith("S"):
        monkeypatch.setattr(loopmodel, "_solve_one_plus_rows", loopmodel._one_plus_rows)
    else:
        exp_pair = loopmodel._exp_pair
        monkeypatch.setattr(loopmodel, "_exp_pair", lambda model, Y: (exp_pair(model, Y)[0],) * 2)
    params, witness = cli.check_factorization(samples=10)
    assert len(witness) == failures


def test_factorize_identity():
    model = GLnModel(2, 7)
    mu = Coweight((0, 0))
    u, a, s, res = factorize_I1(model, model.identity_series(), mu)
    one = model.identity_series()
    for part in (u, a, s, res):
        assert model.eq(part, one)


@pytest.mark.parametrize("n,p", [(2, 7), (3, 7), (4, 11)])
def test_factorize_random(n, p):
    model = GLnModel(n, p)
    rng = random.Random(100 * n + p)
    half = (model.h + 1) // 2
    rd = model.rd
    for mu in minuscule_coweights(rd):
        for _ in range(10):
            g = model.random_I1(rng)
            u, a, s, res = factorize_I1(model, g, mu)
            recon = model.mul(model.mul(model.mul(u, a), s), res)
            assert model.eq(recon, g)
            assert model.in_filtration(res, 1 + half)
            assert model.stabilizes_x_tilde(_off_identity(model, s))


def test_factorize_rejects_outside_I1():
    model = GLnModel(2, 7)
    g = model.identity_series()
    g[0][1][0] = 1  # below the diagonal at t^0: depth -1
    with pytest.raises(ValueError):
        factorize_I1(model, g, Coweight((0, 0)))


_IDENTITY_EXP = """
from airycheck import cli
from airycheck.loopmodel import GLnModel

assert not __debug__, "this check must run under python -O"
GLnModel.exp_series = lambda self, Y: self.identity_series()  # drops every A-factor
params, witness = cli.check_factorization(samples=5)
print("failed" if witness else "passed", witness and witness[0])
"""


def test_factorization_check_fails_under_optimize():
    # the drawn g and the products the round trip compares with lose their
    # A-factors while the drawn a-coordinates stay, so the coordinates read
    # back from factorize_I1 (which does not call exp_series) do not match
    src = os.path.dirname(os.path.dirname(airycheck.__file__))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _IDENTITY_EXP],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("failed"), out.stdout


@pytest.mark.parametrize("n,p", KERNEL_CASES)
def test_in_filtration_agrees_with_depth(n, p):
    model = GLnModel(n, p)
    rng = random.Random(7 * n + p)
    N = model.N
    positions = [(i, j, k) for i in range(N) for j in range(n) for k in range(n)]
    depth_of = lambda pos: pos[0] * n + pos[2] - pos[1]
    for _ in range(40):
        g = model.identity_series()
        lowest = rng.randrange(-(n - 1), N * n)
        for pos in positions:
            if depth_of(pos) >= lowest and rng.random() < 0.3:
                i, j, k = pos
                g[i][j][k] += rng.randrange(1, p) + p * rng.randrange(-1, 2)
        if rng.random() < 0.3:  # unreduced entries that are still 1 and 0 mod p
            g[0][0][0] += p
            g[N - 1][n - 1][0] -= p
        d = _depth(model, g)
        for r in range(-n, N * n + 2):
            assert model.in_filtration(g, r) == (d is None or d >= r)


@pytest.mark.parametrize("n,p", KERNEL_CASES)
def test_stabilizes_x_tilde_matches_series_products(n, p):
    model = GLnModel(n, p)
    X = model._x_tilde
    rng = random.Random(n * p + 1)
    zs = centralizer_z(model.alg)
    samples = [model.random_I1(rng) for _ in range(10)]
    for r in range(1, n):  # S-factors 1 + c lift(z_r), which must commute
        for b in zs[r].basis:
            c = rng.randrange(1, p)
            sr = model.graded_lift([c * x for x in b], r)
            for j in range(n):
                sr[0][j][j] += 1
            samples.append(sr)
    seen = set()
    for g in samples:
        want = model.eq(model.mul(g, X), model.mul(X, g))
        assert model.stabilizes_x_tilde(_off_identity(model, g)) == want
        seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_x_tilde_is_e_theta_plus_t_n_minus(n):
    # t^2 X-tilde = E_theta + t N^-: E_{0,n-1} at t^0 and the subdiagonal
    # sum_i E_{i+1,i} at t^1, written out here
    model = GLnModel(n, 7)
    want = model.zero_series()
    want[0][0][n - 1] = 1
    for i in range(n - 1):
        want[1][i + 1][i] = 1
    assert model._x_tilde == want


def test_graded_lift_refuses_a_cartan_coordinate():
    model = GLnModel(3, 7)
    v = model.alg.zero()
    v[model.alg.cartan_index(1)] = model.field(2)
    with pytest.raises(ValueError, match="Cartan"):
        model.graded_lift(v, 3)


def test_graded_lift_refuses_a_root_with_no_line_of_depth_r():
    # e_0 - e_1 has height 1, so its lines have depth 1 + 3 i only
    model = GLnModel(3, 7)
    v = model.alg.E((1, 0))
    assert model.graded_lift(v, 4)[1][0][1] == 1
    with pytest.raises(ValueError, match="no line of depth 2"):
        model.graded_lift(v, 2)
    with pytest.raises(ValueError, match="no line of depth 16"):
        model.graded_lift(v, 16)  # t^5 is past the truncation


@pytest.mark.parametrize("n", [2, 3, 4])
def test_block_coords_reads_back_the_root_placement(n):
    # each root line lifted to t^1 is read back from block 1 alone, and the
    # diagonal of a block gives the Cartan coordinates
    model = GLnModel(n, 7)
    alg = model.alg
    for root in alg.rd.roots:
        lift = model.graded_lift(alg.E(root), alg.rd.height(root) + n)
        assert [model.block_coords(blk) == alg.E(root) for blk in lift] == [
            i == 1 for i in range(model.N)]
    blk = [[j + 1 if j == k else 0 for k in range(n)] for j in range(n)]
    want = alg.zero()
    for j in range(n):
        want[alg.cartan_index(j)] = model.field(j + 1)
    assert model.block_coords(blk) == want


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_i1_draws_follow_the_filtration_lines(n):
    # random_I1 draws one coefficient per line of Lie I(1), in
    # filtration_basis order: the diagonal for a Cartan line
    model = GLnModel(n, 7)
    want = []
    for a, power in filtration_basis(model.alg, 1):
        if a is None:
            want.append((power, [(j, j) for j in range(n)]))
        else:
            support = [k for k, c in enumerate(a) if c]
            i, j = support[0], support[-1] + 1
            want.append((power, [(i, j) if a[i] > 0 else (j, i)]))
    assert model._i1_draws == want


def _round_trip_case(n, mu, seed):
    model = GLnModel(n, 7)
    coords, prods, residual, g = draw_factorization(model, mu, random.Random(seed))
    return model, coords, prods, residual, factorize_I1(model, g, mu)


@pytest.mark.parametrize("n", [3, 4])
def test_factorization_round_trip_sees_one_corrupted_coordinate(n):
    mu = Coweight((1,) + (0,) * (n - 1))
    model, coords, prods, residual, found = _round_trip_case(n, mu, 5)
    assert round_trip_mismatch(model, coords, prods, residual, found) is None
    alg = model.alg
    corrupted = 0
    for r in range(1, len(coords) + 1):
        units = [[alg.field(int(i == j)) for i in range(alg.dim)] for j in u_mu_piece(alg, mu, r)]
        bases = (units, a_subspace(alg, r, mu).basis, centralizer_z(alg)[r].basis)
        for part, (name, basis) in enumerate(zip("uas", bases)):
            for b in basis:  # one coordinate, moved by 1
                bad = [list(vecs) for vecs in coords]
                bad[r - 1][part] = [x + y for x, y in zip(bad[r - 1][part], b)]
                what = round_trip_mismatch(model, bad, prods, residual, found)
                assert what == f"{name}-coordinates at depth {r}"
                corrupted += 1
    assert corrupted >= 4
    residual[-1][0][0] = (residual[-1][0][0] + 1) % model.p
    assert round_trip_mismatch(model, coords, prods, residual, found) == "residual"


# factorize_I1's own kernels, which its round-trip oracle must not call
FACTORIZE_KERNELS = ("_times_one_plus_cols", "_one_plus_rows", "_solve_one_plus_rows",
                     "_factor_bases", "_exp_pair", "_sparse_exp_terms", "_entries", "_packing",
                     "_filtration_masks", "_pack_rows", "_unpack_rows", "_unpack_cols")


@pytest.mark.parametrize("n", [3, 4])
def test_round_trip_oracle_runs_without_factorize_kernels(n, monkeypatch):
    mu = Coweight((1,) + (0,) * (n - 1))
    model, coords, prods, residual, found = _round_trip_case(n, mu, 5)

    def kernel(*args, **kwargs):
        raise AssertionError("the round-trip oracle called a factorize_I1 kernel")

    for name in FACTORIZE_KERNELS:
        monkeypatch.setattr(loopmodel, name, kernel)
    drawn = draw_factorization(model, mu, random.Random(5))
    assert repr(drawn[:3]) == repr((coords, prods, residual))
    assert round_trip_mismatch(model, *drawn[:3], found) is None
    with pytest.raises(AssertionError, match="factorize_I1 kernel"):
        factorize_I1(model, drawn[3], mu)


def test_factorization_round_trip_sees_a_changed_factor():
    mu = Coweight((1, 0, 0, 0))
    model, coords, prods, residual, found = _round_trip_case(4, mu, 6)
    u, a, s, res = found
    deeper = [[list(row) for row in blk] for blk in a]
    deeper[-1][0][1] = (deeper[-1][0][1] + 1) % model.p  # below every coordinate
    assert round_trip_mismatch(model, coords, prods, residual, (u, deeper, s, res)) \
        == "a beyond depth 2"
    shallow = [[list(row) for row in blk] for blk in s]
    shallow[0][1][0] = 1  # depth -1: s is no longer in I(1)
    assert round_trip_mismatch(model, coords, prods, residual, (u, a, shallow, res)) \
        == "s-coordinates at depth 1"


def test_factorize_i1_rank_defect_gl5_f7():
    # p = 7 < 2h - 1 = 9: z + a^mu + u_mu is not all of g_3 for GL_5, and the
    # precomputed consistency rows must see it; the raising samples are
    # those of the solve-per-sample code
    model = GLnModel(5, 7)
    rng = random.Random(57)
    raised = ""
    for mu in minuscule_coweights(model.rd):
        for _ in range(6):
            g = model.random_I1(rng)
            try:
                factorize_I1(model, g, mu)
                raised += "0"
            except airycheck.VerificationError as exc:
                assert str(exc) == "depth-3 part is not in z + a^mu + u_mu"
                raised += "1"
    assert raised == "111110111111110111011101011001"


def _factorized(factorize, model, g, mu):
    """The repr of factorize's (u, a, s, residual), or the type and message
    of what it raises."""
    try:
        return repr(factorize(model, g, mu))
    except (ValueError, airycheck.VerificationError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _agree_with_the_list_reference(model, samples):
    """The packed factorize_I1 and the list one of factor_oracle give the
    same output on every (g, mu); returns the outputs."""
    outs = []
    for g, mu in samples:
        got = _factorized(factorize_I1, model, g, mu)
        assert got == _factorized(factor_oracle.factorize_I1, model, g, mu), (model.n, model.p)
        outs.append(got)
    return outs


@pytest.mark.parametrize("n,p", [(n, p) for n in range(2, 9) for p in (5, 7, 11) if p > n])
def test_packed_factorize_i1_matches_the_list_reference(n, p):
    # seeded samples of every minuscule mu, their entries also shifted by
    # multiples of p, and an element outside I(1)
    model = GLnModel(n, p)
    rng = random.Random(1000 * n + p)
    samples = []
    for mu in minuscule_coweights(model.rd):
        for _ in range(3):
            g = model.random_I1(rng)
            samples.append((g, mu))
            shifted = [[[x + p * rng.randrange(-2, 3) for x in row] for row in blk] for blk in g]
            samples.append((shifted, mu))
    outside = model.identity_series()
    outside[0][n - 1][0] = 1  # depth 1 - n
    samples.append((outside, mu))
    outs = _agree_with_the_list_reference(model, samples)
    assert outs[-1] == "ValueError: element is not in I(1)"


def test_packed_factorize_i1_matches_the_list_reference_where_it_raises():
    # the GL_5 / F_7 samples of test_factorize_i1_rank_defect_gl5_f7
    model = GLnModel(5, 7)
    rng = random.Random(57)
    samples = [(model.random_I1(rng), mu) for mu in minuscule_coweights(model.rd) for _ in range(6)]
    outs = _agree_with_the_list_reference(model, samples)
    raised = "".join(str(int(out == "VerificationError: depth-3 part is not in z + a^mu + u_mu"))
                     for out in outs)
    assert raised == "111110111111110111011101011001"


@pytest.mark.parametrize("n", [2, 8])
def test_packed_factorize_i1_matches_the_list_reference_at_the_slot_edge(n):
    # p = 1021, the largest prime GLnModel(8, p) accepts: 64-bit slots; the
    # samples include entries at p - 1 wherever I(1) allows them
    model = GLnModel(n, 1021)
    assert loopmodel._packing(n, 1021).width == 64
    rng = random.Random(n)
    samples = []
    for mu in minuscule_coweights(model.rd)[:4]:
        samples += [(model.random_I1(rng), mu) for _ in range(2)]
        top = model.random_I1(rng)
        for power, entries in model._i1_draws:
            for j, k in entries:
                top[power][j][k] = 1020
        samples.append((top, mu))
    _agree_with_the_list_reference(model, samples)


def _mask_test(model, rows, r):
    """factorize_I1's test of packed reduced rows for I(r)."""
    masks = loopmodel._filtration_masks(model.n, model.p, r)
    return not any(row & m != v for row, (m, v) in zip(rows, masks))


@pytest.mark.parametrize("n,p", KERNEL_CASES + [(8, 1021)])
def test_filtration_masks_agree_with_in_filtration(n, p):
    # on series in I(r), and on each of them with one entry of depth < r
    # changed, as full rows and as rows cut to the blocks 0 and 1 that
    # factorize_I1 tests, for r = 1 .. 1 + ceil(h/2)
    model = GLnModel(n, p)
    rng = random.Random(n * p + 2)
    pk = loopmodel._packing(n, p)
    depths = loopmodel._gl_depths(n)
    seen = set()
    for r in range(1, (n + 1) // 2 + 2):
        ones, zeros = loopmodel._shallow_positions(n, r)
        for _ in range(3):
            g = model.identity_series()
            for (i, j, k), d in depths.items():
                if d >= r:
                    g[i][j][k] = rng.randrange(p)
            bad = [(0, j, j, rng.randrange(2, p + 1) % p) for j in ones]
            bad += [(i, j, k, rng.randrange(1, p)) for i, j, k in zeros]
            for change in [None] + bad:
                A = _copy(g)
                if change:
                    i, j, k, v = change
                    A[i][j][k] = v
                want = model.in_filtration(A, r)
                rows = _rows(model, A)
                assert _mask_test(model, rows, r) == want
                assert _mask_test(model, [row & pk.masks[2] for row in rows], r) == want
                seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("n,digest", [
    (5, "685243a3860ffe5d613153e69ac85b7da7efc9b0a4f9b06f5dc69baad91d77c1"),
    (6, "1dcc83d77f836c26ade3fee2828d1c259530a7c243380ede18b66276d330848f"),
])
def test_factorize_i1_outputs_pinned_p11(n, digest):
    # SHA-256 of the (u, a, s, residual) tuples of the solve-per-sample code
    model = GLnModel(n, 11)
    rng = random.Random(100 * n + 11)
    outs = [factorize_I1(model, model.random_I1(rng), mu)
            for mu in minuscule_coweights(model.rd) for _ in range(3)]
    assert hashlib.sha256(repr(outs).encode()).hexdigest() == digest


def test_factorize_i1_outputs_pinned_p7():
    # SHA-256 over the (u, a, s, residual) reprs, or the error texts, of the
    # loop workload's grid (GL_2-GL_4 over F_7, every minuscule mu
    # 1^k 0^(n-k)) and of GL_5 over F_7, where p < 2h - 1 and most samples raise;
    # the digest is that of the code that formed inverse series
    outs = []
    for n in (2, 3, 4, 5):
        model = GLnModel(n, 7)
        rng = random.Random(100 * n + 7)
        for mu in minuscule_coweights(model.rd):
            for _ in range(3):
                try:
                    outs.append(repr(factorize_I1(model, model.random_I1(rng), mu)))
                except airycheck.VerificationError as exc:
                    outs.append(str(exc))
    assert sum(out.startswith("depth-3 part") for out in outs) == 12
    assert hashlib.sha256("\n".join(outs).encode()).hexdigest() == \
        "f504f7272b3f6226ff5486b847bc9afe927e9699ec2b5cc60f5f1928884c0026"


def test_factorize_i1_sample_builds_no_field_element(monkeypatch):
    from airycheck import arith, loopmodel

    model = GLnModel(4, 7)
    mu = Coweight((1, 1, 0, 0))
    rng = random.Random(8)
    factorize_I1(model, model.random_I1(rng), mu)  # builds the depth-r maps
    made = []
    fq = arith._fq
    monkeypatch.setattr(arith, "_fq", lambda field, v: made.append(v) or fq(field, v))
    monkeypatch.setattr(loopmodel, "_eliminate", None)
    for _ in range(20):
        factorize_I1(model, model.random_I1(rng), mu)
    assert made == []
    assert not hasattr(loopmodel, "solve")


def test_factorize_i1_sees_an_s_factor_off_x_tilde(monkeypatch):
    from airycheck import loopmodel

    model = GLnModel(4, 7)
    mu = Coweight((0, 0, 0, 0))
    maps = dict(loopmodel._factor_bases((4, 7), tuple(mu.coords)))
    reads, consistency, u_lines, a_lift, z_lift = maps[1]
    i, j, k, row = z_lift[0]  # Z is no longer a multiple of E_1
    maps[1] = (reads, consistency, u_lines, a_lift, [(i, j, k, [2 * y for y in row])] + z_lift[1:])
    monkeypatch.setattr(loopmodel, "_factor_bases", lambda key, mu: maps)
    g = model.random_I1(random.Random(3))
    with pytest.raises(airycheck.VerificationError, match="depth-1 S-factor does not fix X-tilde"):
        factorize_I1(model, g, mu)


def test_factorize_i1_sees_a_shallow_entry_in_block_1(monkeypatch):
    # before step 2 the remainder is computed in blocks 0 and 1 only; an
    # S-solve shifted by t E_{n-1,0} puts a depth-1 entry in block 1
    model = GLnModel(4, 7)
    mu = Coweight((1, 0, 0, 0))
    g = model.random_I1(random.Random(1))  # its step 1 has an S-factor
    factorize_I1(model, g, mu)
    solve = loopmodel._solve_one_plus_rows
    calls = []

    def off_by_one(pk, entries, rows, blocks):
        solve(pk, entries, rows, blocks)
        calls.append(entries)
        loopmodel._one_plus_rows(pk, [(1, model.n - 1, 0, 1)], rows, blocks)

    monkeypatch.setattr(loopmodel, "_solve_one_plus_rows", off_by_one)
    with pytest.raises(airycheck.VerificationError, match=r"remainder before step 2 is not in I\(2\)"):
        factorize_I1(model, g, mu)
    assert len(calls) == 1  # the step-1 S-factor


# ---------------------------------------------------------------------------
# One depth: every reader of the affine-line depth, pinned.

def _pair(line):
    """(root, t-power) of an affine line, whether it is stored as that pair
    or as a record with those two fields."""
    return line if isinstance(line, tuple) else (line.root, line.power)


def _depth_readers_outputs():
    """The outputs of every function that reads the depth of an affine line
    or of a GL_n entry, as one list of reprs."""
    from airycheck.loopmodel import z_element

    outs = []
    for n in range(2, 7):
        model = GLnModel(n, 7)
        for r in range(3 * n + 3):
            outs.append(repr((n, r, loopmodel._gl_lines_at(n, r), loopmodel._shallow_positions(n, r))))
        outs.append(repr(model._i1_draws))
        outs.append(repr([z_element(model, r) for r in range(1, n + 2)]))
        rng = random.Random(n)
        for mu in minuscule_coweights(model.rd):
            _, _, residual, g = draw_factorization(model, mu, rng)
            outs.append(repr((residual, g)))
    for series, rank in cli.SUITE_TYPES:
        rd = cli._suite_datum(series, rank)
        alg = build_algebra(rd)
        outs.append(repr([_pair(line) for line in filtration_basis(alg, 1)]))
        outs.append(repr(phi_generic_check(alg)))
        try:
            outs.append(repr(odd_parahoric_check(alg)))
        except ValueError as exc:
            outs.append(str(exc))
        for mu in minuscule_coweights(rd):
            outs.append(repr(sorted(map(_pair, stab_affine_roots(alg, mu)))))
    return outs


def test_depth_readers_outputs_pinned():
    # SHA-256 over the GL_n entry tables (_gl_lines_at and _shallow_positions
    # at r = 0..3n+2, _i1_draws), z_element, draw_factorization's residual
    # and g for GL_2-GL_6 over F_7, and the Lie-side lines over the suite
    digest = hashlib.sha256("\n".join(_depth_readers_outputs()).encode()).hexdigest()
    assert digest == "126580614829d7560477293a686bf2204d7ad3d5d6496731f8e83ec1099dd800"
