"""Small exact linear-algebra helpers.

Rational routines work on list-of-rows matrices of Fractions (ints are fine
on input).  Pivoting is by first nonzero entry; exact arithmetic makes
magnitude pivoting pointless.  Mod-p routines work on list-of-rows matrices
of ints and return canonical reduced echelon data.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = "list[list[Fraction]]"


def identity(n: int):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def copy_matrix(a):
    return [[Fraction(x) for x in row] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def matmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * m for _ in range(n)]
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


def matvec(a, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def columns_to_rows(cols):
    """Matrix whose j-th column is cols[j]."""
    return [list(r) for r in zip(*cols)]


def rows_to_columns(rows):
    return [list(c) for c in zip(*rows)]


def det(a) -> Fraction:
    a = copy_matrix(a)
    n = len(a)
    d = Fraction(1)
    for t in range(n):
        piv = None
        for i in range(t, n):
            if a[i][t]:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != t:
            a[t], a[piv] = a[piv], a[t]
            d = -d
        d *= a[t][t]
        inv_p = 1 / a[t][t]
        for i in range(t + 1, n):
            if a[i][t]:
                f = a[i][t] * inv_p
                for j in range(t, n):
                    a[i][j] -= f * a[t][j]
    return d


def int_det(a) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    a = [[int(x) for x in row] for row in a]
    n = len(a)
    sign = 1
    prev = 1
    for t in range(n - 1):
        if a[t][t] == 0:
            piv = None
            for i in range(t + 1, n):
                if a[i][t]:
                    piv = i
                    break
            if piv is None:
                return 0
            a[t], a[piv] = a[piv], a[t]
            sign = -sign
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = a[t][t]
    return sign * a[n - 1][n - 1]


def inv(a):
    n = len(a)
    a = copy_matrix(a)
    out = identity(n)
    for t in range(n):
        piv = None
        for i in range(t, n):
            if a[i][t]:
                piv = i
                break
        if piv is None:
            raise ValueError("matrix is singular")
        if piv != t:
            a[t], a[piv] = a[piv], a[t]
            out[t], out[piv] = out[piv], out[t]
        f = 1 / a[t][t]
        a[t] = [x * f for x in a[t]]
        out[t] = [x * f for x in out[t]]
        for i in range(n):
            if i != t and a[i][t]:
                g = a[i][t]
                a[i] = [x - g * y for x, y in zip(a[i], a[t])]
                out[i] = [x - g * y for x, y in zip(out[i], out[t])]
    return out


def rank(a) -> int:
    a = copy_matrix(a)
    rows, cols = len(a), len(a[0]) if a else 0
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        f = 1 / a[r][c]
        a[r] = [x * f for x in a[r]]
        for i in range(r + 1, rows):
            if a[i][c]:
                g = a[i][c]
                a[i] = [x - g * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return r


def nullspace(a):
    """Basis of the right kernel of a (rows x cols), as length-cols vectors."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    a = copy_matrix(a)
    pivots = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        f = 1 / a[r][c]
        a[r] = [x * f for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                g = a[i][c]
                a[i] = [x - g * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][fc]
        basis.append(v)
    return basis


def solve_columns(cols, target):
    """Coefficients x with sum x_j * cols[j] = target, or None if inconsistent.

    Assumes the columns are linearly independent, so the solution is unique
    when it exists.
    """
    if not cols:
        return [] if all(t == 0 for t in target) else None
    n = len(cols[0])
    r = len(cols)
    aug = [[Fraction(cols[j][i]) for j in range(r)] + [Fraction(target[i])] for i in range(n)]
    row = 0
    piv_rows = []
    for c in range(r):
        piv = None
        for i in range(row, n):
            if aug[i][c]:
                piv = i
                break
        if piv is None:
            return None
        aug[row], aug[piv] = aug[piv], aug[row]
        f = 1 / aug[row][c]
        aug[row] = [x * f for x in aug[row]]
        for i in range(n):
            if i != row and aug[i][c]:
                g = aug[i][c]
                aug[i] = [x - g * y for x, y in zip(aug[i], aug[row])]
        piv_rows.append(row)
        row += 1
    for i in range(row, n):
        if aug[i][r]:
            return None
    return [aug[i][r] for i in range(r)]


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


def rank_mod_p(rows, p) -> int:
    return len(echelon_mod_p(rows, p)[0])


def intersect_mod_p(a_rows, b_rows, p):
    """Basis of span(a) intersected with span(b) over F_p (Zassenhaus block trick)."""
    if not a_rows or not b_rows:
        return []
    n = len(a_rows[0])
    block = [list(r) + list(r) for r in a_rows]
    block += [list(r) + [0] * n for r in b_rows]
    ech, _ = echelon_mod_p(block, p)
    out = []
    for row in ech:
        if all(x == 0 for x in row[:n]) and any(row[n:]):
            out.append(row[n:])
    return echelon_mod_p(out, p)[0] if out else []
