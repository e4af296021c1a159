"""Lattices over the p-adic valuation ring.

Bases of full-rank lattices in K^n, valuation-pivoted triangularization,
invariant-factor exponents of lattice pairs, split submodules, saturation of
K-spans, direct-sum complements, and the dual-form transform under a
unimodular automorphism.

The public constructors check their input: a basis's determinant is
nonzero; a submodule's entries are p-integral, its columns K-independent
(read from the echelon mod p it keeps, with a K-rank only when that echelon
lacks a pivot) and its given forms valid; a form's coefficients are
integral with a unit among them.  Values the library builds itself are
valid by construction, so they take private constructors that check nothing:

* ``LatticeBasis._trusted``: the standard basis and each node of a BFS
  ball, reference * H with H triangular with a p-power diagonal
  (:func:`btpgl.building.bfs_ball`), are nonsingular.
* ``SplitSubmodule._trusted``: the kernel of a primitive form, with that form
  as its forms (the proof is in :func:`btpgl.cycles.hyperplane_kernel`); a
  saturation, whose columns are the first r columns of the unimodular
  C^{-1} of :func:`_eliminate`; a complement, whose columns are some of an
  already checked module's; and a partial intersection L_j of a cycle
  configuration, the columns of L0 followed by those of S_j, the
  saturation of X_j, block j of the inverse of the cycles' stacked forms
  completed by the unit rows at L0's pivots J mod p.  X_j vanishes on J,
  the forms of the other cycles kill it, and R^n = L0 + R^{not J},
  so every element of L_j is one of L0 plus one of S_j: the columns are a
  basis of the saturated L_j (the proof is in
  :attr:`btpgl.cycles.CycleAnalysis.complements`).
* ``DualForm._trusted``: a split module's :meth:`SplitSubmodule.forms`
  are integral and independent mod p, so none is 0 mod p: each has a unit.

All operations are pure functions on immutable values and are therefore
thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import (
    NonIntegralEntry,
    NotSplitInside,
    NotUnimodular,
    SingularTransition,
)
from .padic import PAdicContext


def _to_fraction_vector(v, n: int):
    vec = tuple(x if isinstance(x, Fraction) else Fraction(x) for x in v)
    if len(vec) != n:
        raise ValueError(f"expected vector of length {n}, got {len(vec)}")
    return vec


class LatticeBasis:
    """An ordered basis of a full-rank lattice in K^n.

    Basis vectors are stored column-wise in the standard coordinates of K^n;
    the basis matrix must have nonzero determinant.  Instances are immutable.
    """

    __slots__ = ("ctx", "dim", "columns", "_rows")

    def __init__(self, ctx: PAdicContext, columns):
        self._set(ctx, tuple(_to_fraction_vector(c, len(columns)) for c in columns))
        if linalg.det(self._rows) == 0:
            raise ValueError("columns do not span K^n")

    def _set(self, ctx: PAdicContext, cols: tuple) -> None:
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "dim", len(cols))
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "_rows", [list(row) for row in zip(*cols)])

    @classmethod
    def _trusted(cls, ctx: PAdicContext, columns: tuple) -> "LatticeBasis":
        """A basis from columns that are tuples of Fractions and known to
        span K^n, built without the determinant check."""
        basis = cls.__new__(cls)
        basis._set(ctx, columns)
        return basis

    def __setattr__(self, name, value):
        raise AttributeError("LatticeBasis is immutable")

    @classmethod
    def standard(cls, ctx: PAdicContext, n: int) -> "LatticeBasis":
        zero, one = Fraction(0), Fraction(1)
        return cls._trusted(ctx, tuple(tuple(one if i == j else zero for i in range(n)) for j in range(n)))

    @classmethod
    def from_rows(cls, ctx: PAdicContext, rows) -> "LatticeBasis":
        return cls(ctx, linalg.transpose(rows))

    def rows(self):
        """Basis matrix as list of rows (entry [i][j] = i-th coordinate of vector j)."""
        return self._rows

    def scale(self, scalar) -> "LatticeBasis":
        s = Fraction(scalar)
        if s == 0:
            raise ValueError("cannot scale a lattice by zero")
        return LatticeBasis(self.ctx, [[s * x for x in col] for col in self.columns])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LatticeBasis)
            and self.ctx.p == other.ctx.p
            and self.columns == other.columns
        )

    def __hash__(self) -> int:
        return hash((self.ctx.p, self.columns))

    def __repr__(self) -> str:
        return f"LatticeBasis(p={self.ctx.p}, columns={self.columns!r})"


class SplitSubmodule:
    """A submodule of a lattice given by integral coordinates in its basis.

    The coordinate vectors must be K-linearly independent and p-integral;
    whether the submodule is actually split is tested by :func:`is_split`.
    The constructor computes and keeps their echelon mod p, which proves
    them independent when it has a pivot per column; it takes a K-rank only
    when it has fewer, which is a legal submodule that is not split.
    Rank 0 (no columns) is a legal value.  The forms vanishing on it may be
    given too, and are checked as :meth:`forms` describes them.
    """

    __slots__ = ("ambient", "columns", "_forms", "_echelon")

    def __init__(self, ambient: LatticeBasis, columns, forms=None):
        n, ctx = ambient.dim, ambient.ctx
        cols = tuple(_to_fraction_vector(c, n) for c in columns)
        if forms is not None:
            forms = tuple(_to_fraction_vector(f, n) for f in forms)
        for v in cols + (forms or ()):
            for x in v:
                if not ctx.is_integral(x):
                    raise NonIntegralEntry(f"entry {x} is not {ctx.p}-integral")
        self._set(ambient, cols, forms)
        # a K-relation between integral columns, scaled to least valuation 0,
        # is a nonzero relation mod p: independent mod p is independent over K
        if len(self.echelon()[1]) < len(cols) and linalg.rank(linalg.transpose(cols)) != len(cols):
            raise ValueError("coordinate columns are K-linearly dependent")
        if forms is not None:
            pivots = linalg.echelon_mod_p([list(map(ctx.residue, f)) for f in forms], ctx.p)[1]
            if len(forms) != n - len(cols) or len(pivots) < len(forms):
                raise ValueError(f"need {n - len(cols)} forms independent mod p")
            if forms and any(map(any, linalg.matmul(cols, linalg.transpose(forms)))):
                raise ValueError("a form does not vanish on the submodule")

    def _set(self, ambient: LatticeBasis, cols: tuple, forms) -> None:
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "_forms", forms)
        object.__setattr__(self, "_echelon", None)

    @classmethod
    def _trusted(cls, ambient: LatticeBasis, columns: tuple, forms=None) -> "SplitSubmodule":
        """A submodule built without any check, for columns (and forms, when
        given) that are tuples of Fractions and split by construction; the
        module docstring lists the callers and their proofs."""
        sub = cls.__new__(cls)
        sub._set(ambient, columns, forms)
        return sub

    def __setattr__(self, name, value):
        raise AttributeError("SplitSubmodule is immutable")

    @property
    def rank(self) -> int:
        return len(self.columns)

    def echelon(self):
        """Reduced row echelon form of the coordinate columns mod p, as
        (rows, pivot positions); computed on first use, by the public
        constructor's column check, and kept."""
        if self._echelon is None:
            ctx = self.ambient.ctx
            ech = linalg.echelon_mod_p([list(map(ctx.residue, c)) for c in self.columns], ctx.p)
            object.__setattr__(self, "_echelon", (tuple(map(tuple, ech[0])), tuple(ech[1])))
        return self._echelon

    def forms(self):
        """An R-basis of the integral forms vanishing on the submodule, as
        coefficient vectors against the dual of the ambient basis: the n - rank
        given ones (integral, independent mod p, each vanishing on every
        column), else pivoted on the unit minor.  ValueError if not split.

        With C the columns as rows and J the pivots of their echelon mod p,
        row operations turn C_J, the columns J of C, into the identity mod p,
        so det C_J is a unit.  For i not in J, e_i - sum_s (C_J^{-1} C_i)_s
        e_{J_s} is thus integral and vanishes on N: the nullspace vector of C
        at free position i once the positions J are eliminated first.  An
        integral form f vanishing on N, minus these vectors' combination with
        coefficients f_i (i not in J), vanishes on N and off J, so it is 0:
        they span every such form.
        """
        pivots = self.echelon()[1]
        if len(pivots) != self.rank:
            raise ValueError("submodule is not split, so its forms have no unit minor")
        if self._forms is None:
            n = self.ambient.dim
            order = pivots + tuple(i for i in range(n) if i not in pivots)
            null = linalg.nullspace([[c[i] for i in order] for c in self.columns], n)
            back = sorted(range(n), key=order.__getitem__)
            object.__setattr__(self, "_forms", tuple(tuple(v[k] for k in back) for v in null))
        return self._forms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SplitSubmodule)
            and self.ambient == other.ambient
            and self.columns == other.columns
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.columns))

    def __repr__(self) -> str:
        return f"SplitSubmodule(rank={self.rank}, columns={self.columns!r})"


@dataclass(frozen=True)
class DualForm:
    """A primitive linear form, as coefficients against the dual of the ambient basis.

    All coefficients lie in the valuation ring and at least one is a unit, so
    the form cuts out a hyperplane of the ambient lattice's projective model.
    """

    ambient: LatticeBasis
    coefficients: tuple

    def __post_init__(self):
        coeffs = _to_fraction_vector(self.coefficients, self.ambient.dim)
        object.__setattr__(self, "coefficients", coeffs)
        ctx = self.ambient.ctx
        has_unit = False
        for a in coeffs:
            if not ctx.is_integral(a):
                raise NonIntegralEntry(f"coefficient {a} is not {ctx.p}-integral")
            if ctx.is_unit(a):
                has_unit = True
        if not has_unit:
            raise ValueError("form is not primitive: no unit coefficient")

    @classmethod
    def _trusted(cls, ambient: LatticeBasis, coefficients: tuple) -> "DualForm":
        """A form of a tuple of Fractions, built without the checks."""
        form = cls.__new__(cls)
        object.__setattr__(form, "ambient", ambient)
        object.__setattr__(form, "coefficients", coefficients)
        return form


@dataclass(frozen=True)
class TriangularizationResult:
    """Outcome of valuation-pivoted triangularization: B = C * A * D.

    C is unimodular over the valuation ring, D is a permutation matrix, and B
    is upper triangular with non-decreasing diagonal valuations, each diagonal
    entry dividing everything to its right in the same row.
    """

    C: tuple
    D: tuple
    B: tuple


def _freeze(rows) -> tuple:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _eliminate(ctx: PAdicContext, b, p_cols=None):
    """Valuation-pivoted elimination of an n x m matrix, in place.

    Step t moves an entry of least valuation in the working submatrix
    b[t:][t:] to the pivot position (first such entry in row-major order)
    and clears the column below it with multipliers from the valuation ring.
    Stops when the working submatrix is zero or empty.  Returns the column
    order and the pivot valuations, which are the diagonal valuations of the
    result.

    When given, p_cols, the columns of the n x n identity, receives the
    inverse of each row operation, applied on the right: a row swap swaps two
    of its columns, and subtracting m times row t from row i adds m times
    column i to column t.  It ends as C^{-1}, where C is the product of the
    row operations, so C * b_in = b_out.  Besides swaps, step s changes only
    column s, so at step t every column i > t is still a unit vector
    e_{perm[i]}, perm the row swaps so far, and adding m times it to column
    t, itself e_{perm[t]} before step t, writes m once, at perm[i].  The multipliers lie in the valuation ring, so
    C^{-1} is unimodular.  As b_in = C^{-1} * b_out and b_out is zero below
    its r pivot rows, the first r columns of C^{-1} span the columns of b_in
    over K; being part of a basis of R^n, they span the saturation of that
    K-span.
    """
    n = len(b)
    colorder = list(range(len(b[0]) if b else 0))
    perm = list(range(n))
    vals = []
    for t in range(n):
        best = None
        for i in range(t, n):
            row = b[i]
            for j in range(t, len(row)):
                if row[j]:
                    v = ctx.val(row[j])
                    if best is None or v < best[0]:
                        best = (v, i, j)
        if best is None:
            break
        v, bi, bj = best
        vals.append(v)
        if bj != t:
            for row in b:
                row[t], row[bj] = row[bj], row[t]
            colorder[t], colorder[bj] = colorder[bj], colorder[t]
        if bi != t:
            b[t], b[bi] = b[bi], b[t]
            if p_cols is not None:
                p_cols[t], p_cols[bi] = p_cols[bi], p_cols[t]
                perm[t], perm[bi] = perm[bi], perm[t]
        piv = b[t][t]
        for i in range(t + 1, n):
            if b[i][t]:
                m = b[i][t] / piv
                b[i] = [x - m * y for x, y in zip(b[i], b[t])]
                if p_cols is not None:
                    p_cols[t][perm[i]] = m
    return colorder, vals


def triangularize(ctx: PAdicContext, a) -> TriangularizationResult:
    """Reduce an integral square matrix to upper-triangular form.

    Repeatedly moves an entry of minimal valuation in the working submatrix
    to the pivot position (column permutations collected in D, row swaps and
    eliminations collected in C) and clears the column below it with
    multipliers from the valuation ring.  Ties are broken by smallest
    (row, column) index, so the output is deterministic.
    """
    n = len(a)
    b = linalg.copy_matrix(a)
    for row in b:
        for x in row:
            if not ctx.is_integral(x):
                raise NonIntegralEntry(f"entry {x} is not {ctx.p}-integral")
    p_cols = linalg.identity(n)
    colorder, _ = _eliminate(ctx, b, p_cols)
    c = linalg.inv(linalg.transpose(p_cols))
    d = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        d[colorder[j]][j] = Fraction(1)
    return TriangularizationResult(C=_freeze(c), D=_freeze(d), B=_freeze(b))


def invariant_exponents(ambient: LatticeBasis, other: LatticeBasis) -> tuple:
    """Exponents (k_1 <= ... <= k_n) with ambient = sum of p^{k_i} R w_i
    for a suitable basis w_i of the other lattice.

    Computed as the elementary-divisor exponents of the transition matrix
    other^{-1} * ambient: the diagonal valuations after valuation-pivoted
    elimination.  Their sum equals the valuation of its determinant.  No
    distance runs this: :func:`btpgl.building.dist` reads the two extreme
    exponents in closed form, and the full list is the tests' oracle for it.
    """
    if ambient.ctx.p != other.ctx.p or ambient.dim != other.dim:
        raise ValueError("lattices live in different spaces")
    t = linalg.solve(other.rows(), ambient.rows())
    exps = _eliminate(ambient.ctx, t)[1]
    if len(exps) < len(t):
        raise SingularTransition("matrix is singular over K")
    return tuple(sorted(exps))


def is_split(sub: SplitSubmodule) -> bool:
    """True iff the mod-p reduction of the coordinate matrix has full rank.

    Equivalently, the ambient lattice modulo the submodule is torsion free.
    """
    return len(sub.echelon()[1]) == sub.rank


def saturate_coords(ambient: LatticeBasis, kvectors) -> SplitSubmodule:
    """Saturation (K-span intersected with the lattice) of vectors given in
    ambient coordinates.  Always returns a split submodule.

    One nonzero vector v saturates to v / v_i, i its first entry of least
    valuation, bit for bit the first column of C^{-1} that :func:`_eliminate`
    gives for v as an n x 1 matrix: its one step swaps rows 0 and i, so that
    column is e_i, then writes m = v_j / v_i at j for each other nonzero v_j.
    """
    ctx = ambient.ctx
    n = ambient.dim
    vecs = [_to_fraction_vector(v, n) for v in kvectors]
    vecs = [v for v in vecs if any(v)]
    if not vecs:
        return SplitSubmodule._trusted(ambient, ())
    if len(vecs) == 1:
        vals = [ctx.val(x) for x in vecs[0]]
        pivot = vecs[0][vals.index(min(vals))]
        return SplitSubmodule._trusted(ambient, (tuple(x / pivot for x in vecs[0]),))
    u = [[v[i] for v in vecs] for i in range(n)]
    p_cols = linalg.identity(n)
    r = len(_eliminate(ctx, u, p_cols)[1])
    return SplitSubmodule._trusted(ambient, tuple(tuple(c) for c in p_cols[:r]))


def intersect_spans(ambient: LatticeBasis, submodules) -> SplitSubmodule:
    """Saturation in the lattice of the intersection of the K-spans: the
    kernel of the forms vanishing on each span (:meth:`SplitSubmodule.forms`),
    stacked.  The kernel is read off the reduced echelon form of the stacked
    rows, which only the K-spans fix, so neither the order of the submodules
    nor their bases matter.  Each must be split; rank 0 gives an empty one.
    """
    subs = list(submodules)
    if not subs:
        raise ValueError("need at least one submodule")
    n = ambient.dim
    forms = []
    for s in subs:
        if s.ambient != ambient:
            raise ValueError("submodules must share the ambient lattice")
        forms.extend(s.forms())
    return saturate_coords(ambient, linalg.nullspace(forms, n))


def _coordinates(dst: SplitSubmodule, src: SplitSubmodule):
    """Coordinates of src's columns in dst's basis, one column each, or None
    when a column lies outside dst's K-span."""
    b, a = ([[c[i] for c in s.columns] for i in range(dst.ambient.dim)] for s in (dst, src))
    return linalg.solve(b, a)


def complete_to_complement(outer: SplitSubmodule, inner: SplitSubmodule) -> SplitSubmodule:
    """Direct-sum complement of a split inner submodule inside an outer one.

    The complement is the outer basis vectors e_j, in index order, that a
    greedy extension of the inner module's reduced span W would add: e_j
    joins iff it is not in W + span(e_i : i < j) (a skipped e_i is already
    in the span), iff no w in W has its last nonzero entry at j.  Reversed,
    last nonzero entries are first ones, and the first nonzero positions in
    a subspace are the pivots of its reduced echelon form; so the complement
    is the non-pivot positions of the reversed coordinate rows.  The inner
    module is split inside the outer one iff the pivots number its rank.
    """
    if outer.ambient != inner.ambient:
        raise ValueError("submodules must share the ambient lattice")
    ctx = outer.ambient.ctx
    x = _coordinates(outer, inner)
    if x is None:
        raise NotSplitInside("inner submodule does not lie in the outer span")
    if not all(ctx.is_integral(e) for row in x for e in row):
        raise NotSplitInside("inner submodule is not contained in the outer module")
    coords = [[ctx.residue(e) for e in reversed(col)] for col in zip(*x)]
    pivots = linalg.echelon_mod_p(coords, ctx.p)[1]
    if len(pivots) != inner.rank:
        raise NotSplitInside("inner submodule is not split inside the outer one")
    kept = [c for i, c in enumerate(reversed(outer.columns)) if i not in pivots]
    return SplitSubmodule._trusted(outer.ambient, tuple(reversed(kept)))


def same_submodule(a: SplitSubmodule, b: SplitSubmodule) -> bool:
    """True iff the two submodules are equal as R-modules."""
    if a.ambient != b.ambient or a.rank != b.rank:
        return False
    ctx = a.ambient.ctx
    for src, dst in ((a, b), (b, a)):
        x = _coordinates(dst, src)
        if x is None or not all(ctx.is_integral(e) for row in x for e in row):
            return False
    return True


def transform_dual_form(b_rows, form: DualForm) -> DualForm:
    """Equation of the image hyperplane under the lattice automorphism B.

    If the form cuts out H, the result cuts out B(H); its coefficient vector
    is transpose(B)^{-1} applied to the old one.  B must be unimodular over
    the valuation ring.
    """
    ctx = form.ambient.ctx
    n = form.ambient.dim
    rows = linalg.copy_matrix(b_rows)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"expected a {n}x{n} matrix")
    for row in rows:
        for x in row:
            if not ctx.is_integral(x):
                raise NotUnimodular(f"entry {x} is not {ctx.p}-integral")
    d = linalg.det(rows)
    if d == 0 or ctx.val(d) != 0:
        raise NotUnimodular(f"determinant {d} is not a unit")
    coeffs = linalg.solve(linalg.transpose(rows), [[a] for a in form.coefficients])
    return DualForm(form.ambient, tuple(row[0] for row in coeffs))
