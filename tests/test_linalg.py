import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from btpgl import linalg

from helpers import (
    fraction_det,
    fraction_inv,
    fraction_nullspace,
    fraction_rank,
    fraction_solve_columns,
    matvec,
)


def test_det_inv_roundtrip():
    a = [[Fraction(2), Fraction(1)], [Fraction(7), Fraction(4)]]
    assert linalg.det(a) == 1
    assert linalg.matmul(a, linalg.inv(a)) == linalg.identity(2)


def test_matmul_keeps_integer_products_integral():
    # integer transitions in the building are multiplied with it
    ab = linalg.matmul([[1, 2], [0, 3]], [[4, 0], [5, 6]])
    assert ab == [[14, 12], [15, 18]]
    assert all(type(x) is int for row in ab for x in row)
    half = linalg.matmul([[Fraction(1, 2), 0], [0, 0]], [[2, 1], [0, 1]])
    assert half == [[1, Fraction(1, 2)], [0, 0]]


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
        assert all(x == 0 for x in matvec(a, v))


def solve_column(cols, target):
    """:func:`linalg.solve` for one right-hand side, in the shape of
    :func:`fraction_solve_columns`: the coefficients of target in the given
    columns, or None."""
    n = len(target)
    x = linalg.solve([[c[i] for c in cols] for i in range(n)], [[t] for t in target])
    return None if x is None else [row[0] for row in x]


def test_solve_columns():
    cols = [[1, 0, 1], [0, 1, 1]]
    assert solve_column(cols, [2, 3, 5]) == [2, 3]
    assert solve_column(cols, [1, 0, 0]) is None


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


def _span_mod_p(rows, p, n):
    return {
        tuple(sum(c * r[i] for c, r in zip(coeffs, rows)) % p for i in range(n))
        for coeffs in product(range(p), repeat=len(rows))
    }


def test_intersect_mod_p_matches_enumerated_spans():
    # one echelon: the output spans the enumerated intersection and is
    # already its reduced echelon form
    rng = random.Random(11)
    for _ in range(300):
        p = rng.choice([2, 3])
        n = rng.randrange(1, 5)
        a, b = (
            [[rng.randrange(-p, 2 * p) for _ in range(n)] for _ in range(rng.randrange(0, n + 1))]
            for _ in range(2)
        )
        if a and b and rng.random() < 0.5:
            b.append([x + 2 * y for x, y in zip(a[0], a[-1])])
        inter = linalg.intersect_mod_p(a, b, p)
        assert _span_mod_p(inter, p, n) == _span_mod_p(a, p, n) & _span_mod_p(b, p, n)
        assert linalg.echelon_mod_p(inter, p)[0] == inter


def same(x, y) -> bool:
    """Equal values of the same types, list by list."""
    if isinstance(x, list):
        return isinstance(y, list) and len(x) == len(y) and all(map(same, x, y))
    return type(x) is type(y) and x == y


def entries(p):
    """Zero, ints up to p^40 and Fractions whose denominators are coprime to
    p or divisible by it."""
    big = st.integers(-(p**40), p**40)
    denominator = st.builds(lambda k, u: p**k * u, st.integers(0, 40), st.integers(1, 12))
    return st.one_of(st.just(0), st.integers(-9, 9), big, st.builds(Fraction, big, denominator))


@st.composite
def matrices(draw, square=False):
    """Matrices of 0..5 rows, often with the last row a combination of the
    first two, and sometimes a product L R of rank 0..min(rows, cols) whose
    columns may be zero or multiples of earlier ones, so singular and
    rank-deficient inputs and skipped pivot columns come up."""
    p = draw(st.sampled_from((2, 3, 5)))
    nrows = draw(st.integers(0, 5))
    ncols = nrows if square else draw(st.integers(0, 5))
    e = entries(p)
    if draw(st.integers(0, 2)) == 0:
        k = draw(st.integers(0, min(nrows, ncols)))
        cols = []
        for _ in range(ncols):
            kind = draw(st.sampled_from(("zero", "dependent", "free") if cols else ("zero", "free")))
            if kind == "zero":
                cols.append([0] * k)
            elif kind == "dependent":
                x = draw(st.integers(-3, 3))
                cols.append([x * v for v in draw(st.sampled_from(cols))])
            else:
                cols.append([draw(e) for _ in range(k)])
        left = [[draw(e) for _ in range(k)] for _ in range(nrows)]
        return [[sum((x * y for x, y in zip(row, col)), 0) for col in cols] for row in left]
    a = [[draw(e) for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 2 and draw(st.booleans()):
        x, y = draw(st.integers(-3, 3)), draw(e)
        a[-1] = [x * u + y * v for u, v in zip(a[0], a[1])]
    return a


def inverse_or_singular(inverse, a):
    try:
        return inverse(a)
    except ValueError:
        return "singular"


@settings(deadline=None, max_examples=150)
@given(matrices())
def test_rank_and_nullspace_match_fraction_elimination(a):
    assert same(linalg.rank(a), fraction_rank(a))
    assert same(linalg.nullspace(a), fraction_nullspace(a))


@settings(deadline=None, max_examples=150)
@given(matrices(square=True))
def test_det_and_inv_match_fraction_elimination(a):
    assert same(linalg.det(a), fraction_det(a))
    assert same(inverse_or_singular(linalg.inv, a), inverse_or_singular(fraction_inv, a))


def test_empty_and_singular_inputs_match_fraction_elimination():
    assert same(linalg.det([]), fraction_det([])) and linalg.det([]) == 1
    assert same(linalg.inv([]), fraction_inv([]))
    assert same(linalg.nullspace([]), fraction_nullspace([]))
    assert same(linalg.nullspace([[0, 0, 0]]), fraction_nullspace([[0, 0, 0]]))
    with pytest.raises(ValueError):
        linalg.inv([[2, 4], [Fraction(1, 3), Fraction(2, 3)]])


@settings(deadline=None, max_examples=150)
@given(matrices(), st.data())
def test_solve_columns_matches_fraction_elimination(a, data):
    cols = linalg.transpose(a)
    if not a or not cols:
        return
    e = entries(3)
    # a target in the span of the columns, and one that usually lies outside
    inside = matvec(a, [data.draw(e) for _ in cols])
    outside = [data.draw(e) for _ in a]
    for target in (inside, outside):
        assert same(solve_column(cols, target), fraction_solve_columns(cols, target))


def test_solve_columns_inconsistent_target_with_large_entries():
    p40 = 3**40
    cols = [[p40, 0, 1], [0, Fraction(1, p40), 1]]
    target = [p40, 0, 0]
    assert solve_column(cols, target) is None
    assert fraction_solve_columns(cols, target) is None
    target = [2 * p40, Fraction(3, p40), 5]
    assert same(solve_column(cols, target), [Fraction(2), Fraction(3)])


@st.composite
def systems(draw):
    """(B, A): B of n rows and r <= n columns, square half the time and
    often with a dependent last column; A of n rows and 0..3 columns, each
    in B's span or drawn freely, so that it usually lies outside."""
    e = entries(draw(st.sampled_from((2, 3, 5))))
    n = draw(st.integers(1, 5))
    r = n if draw(st.booleans()) else draw(st.integers(0, n))
    b_cols = [[draw(e) for _ in range(n)] for _ in range(r)]
    if r >= 2 and draw(st.booleans()):
        x = draw(st.integers(-3, 3))
        b_cols[-1] = [x * u + v for u, v in zip(b_cols[0], b_cols[1])]
    a_cols = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            coeffs = [draw(e) for _ in b_cols]
            a_cols.append([sum((c * v[i] for c, v in zip(coeffs, b_cols)), Fraction(0)) for i in range(n)])
        else:
            a_cols.append([draw(e) for _ in range(n)])
    return tuple([[c[i] for c in cols] for i in range(n)] for cols in (b_cols, a_cols))


@settings(deadline=None, max_examples=200)
@given(systems())
def test_solve_matches_the_fraction_oracles(system):
    b, a = system
    n, r, k = len(b), len(b[0]), len(a[0])
    x = linalg.solve(b, a)
    b_cols = linalg.transpose(b)
    oracle = [fraction_solve_columns(b_cols, [row[j] for row in a]) for j in range(k)]
    if fraction_rank(b) < r or None in oracle:
        assert x is None
    else:
        assert len(x) == r and all(len(row) == k for row in x)
        assert all(same([row[j] for row in x], oracle[j]) for j in range(k))
    if r == n:
        b_inv = inverse_or_singular(fraction_inv, b)
        expected = None if b_inv == "singular" else linalg.matmul(b_inv, a)
        assert same(x, expected and [[Fraction(v) for v in row] for row in expected])


def test_solve_edge_shapes():
    b = [[1, 0], [0, 3], [1, 1]]
    assert linalg.solve(b, [[], [], []]) == [[], []]
    assert linalg.solve([], []) == []
    assert linalg.solve([[], []], [[0], [0]]) == []
    assert linalg.solve([[], []], [[0], [1]]) is None
    # one column inside the span and one outside: no solution
    assert linalg.solve(b, [[1, 1], [3, 0], [2, 0]]) is None
    assert linalg.solve(b, [[1], [3], [2]]) == [[1], [1]]
    with pytest.raises(ValueError):
        linalg.solve(b, [[1], [3]])
