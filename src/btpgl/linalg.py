"""Small exact linear-algebra helpers.

Rational routines take list-of-rows matrices of ints or Fractions and return
Fractions, except :func:`matmul`: its sums start from int 0, so integer inputs
give ints and an entry with no nonzero product stays int 0.  The others share
one integer kernel, :func:`_int_rref`: each row is scaled by the lcm of its
denominators, and a fraction-free Gauss-Jordan elimination with Bareiss
division leaves every pivot entry equal to the last pivot d, so that the rows
over d are the reduced row echelon form, and sign * d is the determinant of
the scaled rows.  Fractions are built only from its final entries.  The
reduced form and the solution of a uniquely solvable system do not depend on
how the rows were scaled, so the outputs equal those of an elimination in
Fractions.  :func:`solve` is the one solver: every change of basis B^{-1} A,
the inverse included, is one elimination of [B | A].  Mod-p routines work on
list-of-rows matrices of ints and return canonical reduced echelon data.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod


def identity(n: int):
    zero, one = Fraction(0), Fraction(1)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def copy_matrix(a):
    return [[Fraction(x) for x in row] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def matmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        arow = a[i]
        orow = out[i]
        for t in range(k):
            x = arow[t]
            if x:
                brow = b[t]
                for j in range(m):
                    orow[j] += x * brow[j]
    return out


def _scaled_row(row):
    """(s, s * row as ints) with s the lcm of the row's denominators."""
    s = 1
    for x in row:
        s = lcm(s, x.denominator)
    return s, [x.numerator * (s // x.denominator) for x in row]


def _int_rref(rows, ncols):
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Pivots on the first nonzero entry of each of the first `ncols` columns
    and replaces every other row by (a * row - b * pivot_row) / d: a the
    pivot, b the row's entry in its column, d the previous pivot (a row
    with b = 0 is kept when a = d, which the update would not change).
    Returns the pivot columns, the sign of the row permutation and the last
    pivot.

    Every division is exact.  After k steps let P be the input rows now in
    the first k places, in that order, and C their pivot columns, so that
    D_k = det P_C is the k-th pivot (D_0 = 1).  Row i < k is then row i of
    adj(P_C) P, whose entry in column j is det P_C with its i-th column
    replaced by column j of P (Cramer); row i >= k is D_k times the Schur
    complement row, whose entry in column j is the (k+1)-minor on the rows
    of P and input row i and the columns C and j (Sylvester's identity).
    Both are minors of the input, so integers.  The update carries the
    step-k values to the step-(k+1) ones as an identity of rationals: with
    s the new pivot row over D_k and a = D_{k+1}, a row R_i = row_i / D_k of
    the reduced form becomes R_i - R_i[c] s / s[c], and a times it is
    (a * row_i - b * pivot_row) / D_k; below the pivot this is Bareiss's
    update (Math. Comp. 22, 1968).  So every quotient is an integer minor.
    At the end every pivot entry is d and the other entries of the pivot
    columns are 0: the reduced row echelon entry of row i in column c is
    rows[i][c] / d, and a square matrix of full rank has determinant
    sign * d.
    """
    nrows = len(rows)
    pivots = []
    sign = d = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        prow = rows[r]
        a = prow[c]
        for i in range(nrows):
            b = rows[i][c]
            if i != r and (b or a != d):
                rows[i] = [(a * x - b * y) // d for x, y in zip(rows[i], prow)]
        d = a
        pivots.append(c)
    return pivots, sign, d


def int_det(a) -> int:
    """Exact determinant of an integer matrix, by :func:`_int_rref`."""
    rows = [[int(x) for x in row] for row in a]
    pivots, sign, d = _int_rref(rows, len(rows))
    return sign * d if len(pivots) == len(rows) else 0


def det(a) -> Fraction:
    if not a:
        return Fraction(1)
    scales, rows = zip(*map(_scaled_row, a))
    pivots, sign, d = _int_rref(list(rows), len(a))
    return Fraction(sign * d, prod(scales)) if len(pivots) == len(a) else Fraction(0)


def solve(b, a):
    """X with B X = A, for B n x r and A n x k given as n rows each, or None
    when B's columns are dependent or a column of A lies outside their span.

    Scaling a row of [B | A] keeps the system, so each is scaled to integers
    and one elimination runs on B's columns.  With independent columns it
    leaves d times their identity over the first r rows and zeros below
    them: X is the right half above over d, and A's columns lie in B's span
    iff the right half below is zero.
    """
    r = len(b[0]) if b else 0
    aug = [_scaled_row([*brow, *arow])[1] for brow, arow in zip(b, a, strict=True)]
    pivots, _, d = _int_rref(aug, r)
    if len(pivots) < r or any(any(row[r:]) for row in aug[r:]):
        return None
    return [[Fraction(x, d) for x in row[r:]] for row in aug[:r]]


def inv(a):
    n = len(a)
    x = solve(a, [[int(i == j) for j in range(n)] for i in range(n)])
    if x is None:
        raise ValueError("matrix is singular")
    return x


def rank(a) -> int:
    rows = [_scaled_row(row)[1] for row in a]
    return len(_int_rref(rows, len(rows[0]) if rows else 0)[0])


def nullspace(a, cols=None):
    """Basis of the right kernel of a (rows x cols), as length-cols vectors.
    With no rows the kernel is K^cols, so cols must then be given."""
    rows = [_scaled_row(row)[1] for row in a]
    cols = len(rows[0]) if rows else cols or 0
    pivots, _, d = _int_rref(rows, cols)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            v[pc] = Fraction(-row[fc], d)
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# mod-p routines (ints in [0, p))


def echelon_mod_p(rows, p):
    """Reduced row echelon form mod p.  Returns (nonzero rows, pivot columns)."""
    a = [[x % p for x in row] for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        f = pow(a[r][c], -1, p)
        a[r] = [x * f % p for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                g = a[i][c]
                a[i] = [(x - g * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a[:r], pivots


def kernel_mod_p(rows, pivots, n, p):
    """Basis of the right kernel in F_p^n of reduced echelon rows with these
    pivots: for each free column f, e_f minus the rows' column f at their pivots."""
    at = dict(zip(pivots, rows))
    return [[-at[i][f] % p if i in at else int(i == f) for i in range(n)] for f in range(n) if f not in at]


def intersect_mod_p(a_rows, b_rows, p):
    """Reduced row echelon basis of span(a) intersected with span(b) over F_p.

    Zassenhaus block trick.  In the reduced echelon form of [a | a ; b | 0],
    the rows with zero left half (pivot at or past n) span the intersection
    on their right halves, which are already in reduced echelon form.
    """
    if not a_rows or not b_rows:
        return []
    n = len(a_rows[0])
    block = [list(r) + list(r) for r in a_rows]
    block += [list(r) + [0] * n for r in b_rows]
    ech, pivots = echelon_mod_p(block, p)
    return [row[n:] for row, c in zip(ech, pivots) if c >= n]
