import copy
import random
from fractions import Fraction

import pytest

from airycheck.arith import GF, FqField
from airycheck.linalg import (
    det,
    nullspace,
    rank,
    rref,
    solve,
)
from matrix_oracle import det as oracle_det
from matrix_oracle import mat_mul, mat_vec
from matrix_oracle import rref as oracle_rref

FIELDS = ["QQ", 2, 5, 7, 11]


def test_mat_mul_identity():
    F = GF(7)
    I = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    A = [[F(i * 3 + j) for j in range(3)] for i in range(3)]
    assert mat_mul(A, I) == A
    assert mat_mul(I, A) == A
    assert mat_vec(I, [F(1), F(2), F(3)]) == [F(1), F(2), F(3)]


def test_rref_rank():
    F = GF(5)
    rows = [[F(1), F(2)], [F(2), F(4)], [F(0), F(1)]]
    assert rank(rows) == 2
    red, pivots = rref(rows)
    assert len(pivots) == 2


def test_nullspace():
    F = GF(7)
    # x + 2y = 0 has a one-dimensional kernel
    rows = [[F(1), F(2)]]
    ker = nullspace(rows, F(1))
    assert len(ker) == 1
    x, y = ker[0]
    assert x + F(2) * y == F(0)
    assert any((x, y))


def test_solve_and_inverse():
    q = Fraction
    A = [[q(2), q(1)], [q(1), q(1)]]
    b = [q(3), q(2)]
    x = solve(A, b)
    assert [sum(a * v for a, v in zip(row, x)) for row in A] == b
    # inconsistent system
    assert solve([[q(1)], [q(2)]], [q(1), q(3)]) is None


def test_solve_random_invertible():
    F = GF(11)
    rng = random.Random(2)
    for _ in range(50):
        A = [[F(rng.randrange(11)) for _ in range(3)] for _ in range(3)]
        if rank(A) < 3:
            continue
        b = [F(rng.randrange(11)) for _ in range(3)]
        x = solve(A, b)
        assert [sum(a * v for a, v in zip(row, x)) for row in A] == b


# ---------------------------------------------------------------------------
# The int kernel against the element-generic oracle.

def _field(name):
    """(one, a draw of one seeded entry) for QQ or GF(p); over QQ the
    entries are non-integral and negative Fractions as well as zeros."""
    if name == "QQ":
        return Fraction(1), lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    F = GF(name)
    return F(1), lambda rng: F(rng.randrange(name))


def _shapes(name, seed):
    """(shape, matrix) pairs of seeded matrices over one field."""
    one, entry = _field(name)
    zero = one - one
    rng = random.Random(seed)

    def rand(m, n):
        return [[entry(rng) for _ in range(n)] for _ in range(m)]

    base = rand(4, 6)
    with_zeros = [list(row) for row in base]
    with_zeros.insert(2, [zero] * 6)
    for row in with_zeros:
        row[3] = zero
    return [
        ("square", rand(5, 5)),
        ("tall", rand(8, 3)),
        ("wide", rand(3, 9)),
        ("single entry", rand(1, 1)),
        ("zero row and column", with_zeros),
        ("duplicate rows", [base[0], base[1], list(base[0]), base[2], list(base[1])]),
        ("rank deficient", mat_mul(rand(6, 2), rand(2, 7))),
        ("rank deficient tall", mat_mul(rand(9, 3), rand(3, 4))),
        ("zero matrix", [[zero] * 4 for _ in range(3)]),
        ("no columns", [[], []]),
        ("empty", []),
    ]


def _cases(name):
    """(seed, shape, matrix) of the seeded matrices over one field."""
    return [(seed, shape, rows) for seed in (0, 1, 2) for shape, rows in _shapes(name, seed)]


def _kernel_from(red, pivots, ncols, one):
    """The nullspace basis read off a reduced matrix, one vector per free
    column."""
    zero = one - one
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


@pytest.mark.parametrize("name", FIELDS)
def test_rref_and_rank_match_oracle(name):
    for seed, shape, rows in _cases(name):
        before = copy.deepcopy(rows)
        red, pivots = rref(rows)
        want_red, want_pivots = oracle_rref(rows)
        assert (pivots, red) == (want_pivots, want_red), (shape, seed)
        assert rank(rows) == len(want_pivots), (shape, seed)
        assert rows == before, (shape, seed)  # inputs are not mutated


@pytest.mark.parametrize("name", FIELDS)
def test_nullspace_matches_oracle(name):
    one, _ = _field(name)
    zero = one - one
    for seed, shape, rows in _cases(name):
        before = copy.deepcopy(rows)
        ker = nullspace(rows, one)
        assert rows == before, (shape, seed)
        if not rows:
            assert ker == []
            continue
        assert ker == _kernel_from(*oracle_rref(rows), len(rows[0]), one), (shape, seed)
        for v in ker:
            assert mat_vec(rows, v) == [zero] * len(rows), (shape, seed)


@pytest.mark.parametrize("name", FIELDS)
def test_nullspace_reads_int_rows_in_the_field_of_one(name):
    # integral kernels pass rows of plain ints: read as residues over F_p,
    # negative entries and entries of p and more too, and as rationals over Q
    one, _ = _field(name)
    rng = random.Random(31)

    def element(x):
        return Fraction(x) if name == "QQ" else GF(name)(x % name)

    for m, n in ((3, 5), (5, 3), (4, 4), (1, 6), (2, 2)):
        ints = [[rng.randint(-15, 15) if rng.random() < 0.6 else 0 for _ in range(n)]
                for _ in range(m)]
        ints += [list(ints[0]), [0] * n]  # a repeated row and a zero row
        assert nullspace(ints, one) == nullspace([list(map(element, row)) for row in ints], one), (m, n)


@pytest.mark.parametrize("name", FIELDS)
def test_solve_matches_oracle(name):
    one, entry = _field(name)
    zero = one - one
    for seed, shape, rows in _cases(name):
        if not rows:
            assert solve(rows, []) == []
            continue
        rng = random.Random(seed)
        ncols = len(rows[0])
        # a consistent right side A x0
        x0 = [entry(rng) for _ in range(ncols)]
        b = mat_vec(rows, x0) if ncols else [zero] * len(rows)
        before = copy.deepcopy((rows, b))
        x = solve(rows, b)
        assert (rows, b) == before, (shape, seed)
        red, pivots = oracle_rref([list(row) + [bi] for row, bi in zip(rows, b)])
        want = [zero] * ncols
        for r, pc in enumerate(pivots):
            want[pc] = red[r][ncols]
        assert x == want, (shape, seed)
        if ncols:
            assert mat_vec(rows, x) == b, (shape, seed)


@pytest.mark.parametrize("name", FIELDS)
def test_inconsistent_solve_returns_none(name):
    one, entry = _field(name)
    rng = random.Random(7)
    row = [entry(rng) for _ in range(4)]
    while not any(row):
        row = [entry(rng) for _ in range(4)]
    # two equal rows with different right sides
    A = [row, list(row), [one - one] * 4]
    b = [one, one - one, one - one]
    assert solve(A, b) is None
    # a zero row with a nonzero right side
    assert solve([[one - one] * 3], [one]) is None


def test_extension_field_is_refused():
    F = FqField(3, 2)
    rows = [[F.from_index(1), F.from_index(4)], [F.from_index(5), F.from_index(2)]]
    for call in (lambda: rref(rows), lambda: rank(rows),
                 lambda: nullspace(rows, F(1)), lambda: solve(rows, [F(1), F(0)])):
        with pytest.raises(ValueError):
            call()


def test_plain_ints_are_read_as_rationals():
    rows = [[2, 4, 1], [1, 2, Fraction(1, 2)], [0, 3, -1]]
    assert rref(rows) == oracle_rref([[Fraction(x) for x in row] for row in rows])
    assert solve([[2, 1], [1, 1]], [Fraction(3), Fraction(2)]) == [1, 1]


def test_rank_over_q_does_no_fraction_arithmetic(monkeypatch):
    cases = [rows for _, _, rows in _cases("QQ")]
    want = [len(oracle_rref(rows)[1]) for rows in cases]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in rank")

    for op in ("__mul__", "__sub__", "__truediv__"):
        monkeypatch.setattr(Fraction, op, refuse)
    assert [rank(rows) for rows in cases] == want


# ---------------------------------------------------------------------------
# The fraction-free determinant against the oracle.

def _det_cases(seed):
    """(shape, matrix) pairs of seeded square int matrices."""
    rng = random.Random(seed)

    def rand(m, n, lo=-9, hi=9):
        return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]

    dup = rand(4, 4)
    dup[3] = list(dup[1])
    zero_col = rand(4, 4)
    for row in zero_col:
        row[2] = 0
    # an upper triangular matrix with its rows reversed: a zero pivot at
    # every step but the last
    upper = [[0] * i + [rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(4 - i)]
             for i in range(5)]
    return [
        ("random", rand(5, 5)),
        ("nonnegative", rand(3, 3, 0, 20)),
        ("negative entries", rand(4, 4, -20, -1)),
        ("duplicate row", dup),
        ("zero column", zero_col),
        ("row swaps", upper[::-1]),
        ("rank deficient", mat_mul(rand(4, 2), rand(2, 4))),
        ("1x1", rand(1, 1)),
        ("1x1 zero", [[0]]),
        ("0x0", []),
    ]


def test_det_matches_oracle():
    for seed in (0, 1, 2):
        for shape, rows in _det_cases(seed):
            before = copy.deepcopy(rows)
            got = det(rows)
            assert got == oracle_det(rows), (shape, seed)
            assert type(got) is int, (shape, seed)
            assert rows == before, (shape, seed)  # inputs are not mutated
    assert det([[0, 2, 1], [3, 1, 4], [1, 5, 9]]) == -32  # needs a row swap
    assert det([[1, 2], [2, 4]]) == 0
    assert det([]) == 1


def test_det_of_every_cartan_matrix():
    # |det C| is the index of the root lattice in the weight lattice
    from airycheck.rootdata import cartan_matrix

    want = [(("A", n), n + 1) for n in range(1, 9)]
    want += [((s, n), 2) for s in "BC" for n in range(2, 8)]
    want += [(("D", n), 4) for n in range(4, 9)]
    want += [(("E", 6), 3), (("E", 7), 2), (("E", 8), 1), (("F", 4), 1), (("G", 2), 1)]
    assert [(t, det(cartan_matrix(*t))) for t, _ in want] == want
