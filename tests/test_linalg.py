import random
from fractions import Fraction

from airycheck.arith import GF
from airycheck.linalg import (
    nullspace,
    rank,
    rref,
    solve,
)
from matrix_oracle import mat_mul, mat_vec


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
