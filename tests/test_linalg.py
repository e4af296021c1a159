import random
from fractions import Fraction

from btpgl import linalg


def test_det_inv_roundtrip():
    a = [[Fraction(2), Fraction(1)], [Fraction(7), Fraction(4)]]
    assert linalg.det(a) == 1
    assert linalg.matmul(a, linalg.inv(a)) == linalg.identity(2)


def test_int_det_matches_rational_det():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(2, 5)
        a = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        assert linalg.int_det(a) == linalg.det(a)


def test_nullspace_annihilates():
    a = [[1, 2, 3], [2, 4, 6]]
    basis = linalg.nullspace(a)
    assert len(basis) == 2
    for v in basis:
        assert all(x == 0 for x in linalg.matvec(a, v))


def test_solve_columns():
    cols = [[1, 0, 1], [0, 1, 1]]
    assert linalg.solve_columns(cols, [2, 3, 5]) == [2, 3]
    assert linalg.solve_columns(cols, [1, 0, 0]) is None


def test_echelon_and_nullspace_mod_p():
    rows = [[1, 2, 0], [0, 1, 1]]
    ech, pivots = linalg.echelon_mod_p(rows, 3)
    assert pivots == [0, 1]


def test_intersect_mod_p():
    a = [[1, 0, 0], [0, 1, 0]]
    b = [[0, 1, 0], [0, 0, 1]]
    inter = linalg.intersect_mod_p(a, b, 5)
    assert inter == [[0, 1, 0]]
    assert linalg.intersect_mod_p([[1, 0]], [[0, 1]], 2) == []
