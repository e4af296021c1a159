"""Shared test helpers: independent oracles and randomized constructions."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import lcm

from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

from btpgl import building, linalg
from btpgl.building import class_key, neighbor_count
from btpgl.cycles import CycleConfiguration, VertexFamily
from btpgl.lattices import DualForm, LatticeBasis, SplitSubmodule, invariant_exponents
from btpgl.padic import PAdicContext, int_val


def sympy_invariant_exponents(rows, p):
    """Elementary-divisor p-exponents via sympy's Smith form over ZZ.

    Independent of the library's valuation-pivoted elimination.  Rational
    entries are cleared to integers first and the scaling shift subtracted.
    Returns (sorted finite exponents, number of zero divisors).
    """
    fr = [[Fraction(x) for x in row] for row in rows]
    n = len(fr)
    denom = lcm(*(x.denominator for row in fr for x in row))
    m = Matrix(n, n, lambda i, j: int(fr[i][j] * denom))
    snf = smith_normal_form(m, domain=ZZ)
    shift = int_val(denom, p)
    finite = []
    zeros = 0
    for i in range(n):
        d = int(snf[i, i])
        if d == 0:
            zeros += 1
        else:
            finite.append(int_val(d, p) - shift)
    return sorted(finite), zeros


def smith_dist(l1: LatticeBasis, l2: LatticeBasis) -> int:
    """Distance between two lattice classes as the spread of all their
    invariant exponents, by the valuation-pivoted elimination: the oracle
    for the closed forms of :func:`btpgl.building.dist` and of the family
    distance."""
    exps = invariant_exponents(l1, l2)
    return exps[-1] - exps[0]


def random_unimodular(rng: random.Random, n: int, p: int, steps: int = 6):
    """Random integer matrix, unimodular over the valuation ring.  At n = 1
    it is a unit: every step is a scaling."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n)
        while j == i and n > 1:
            j = rng.randrange(n)
        op = rng.randrange(3) if n > 1 else 2
        if op == 0:
            c = rng.randrange(-2, 3)
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        elif op == 1:
            m[i], m[j] = m[j], m[i]
        else:
            u = rng.randrange(1, 2 * p)
            while u % p == 0:
                u = rng.randrange(1, 2 * p)
            if rng.random() < 0.5:
                u = -u
            m[i] = [u * x for x in m[i]]
    return m


def diagonal(ctx, entries) -> LatticeBasis:
    """The lattice with basis entries[j] * e_j."""
    n = len(entries)
    return LatticeBasis(ctx, [[entries[j] if i == j else 0 for i in range(n)] for j in range(n)])


def random_lattice(rng: random.Random, ctx, n: int, spread: int) -> LatticeBasis:
    """Random lattice at the given invariant-exponent spread from the standard one."""
    exps = [0, spread] + [rng.randrange(0, spread + 1) for _ in range(n - 2)]
    rng.shuffle(exps)
    diag = [[Fraction(ctx.p) ** exps[i] if i == j else 0 for j in range(n)] for i in range(n)]
    u = random_unimodular(rng, n, ctx.p)
    rows = linalg.matmul(u, diag)
    shift = rng.randrange(-2, 3)
    scale = Fraction(ctx.p) ** shift
    return LatticeBasis.from_rows(ctx, [[scale * x for x in row] for row in rows])


def right_multiply(lattice: LatticeBasis, u_rows) -> LatticeBasis:
    """New basis with matrix lattice * U; spans the same lattice iff U is unimodular."""
    return LatticeBasis.from_rows(lattice.ctx, linalg.matmul(lattice.rows(), u_rows))


def class_equal(l1: LatticeBasis, l2: LatticeBasis) -> bool:
    """True iff the lattices differ by a scalar of K^x: the oracle for equal
    class keys and distance 0.

    Criterion: with m the minimal entry valuation of the transition matrix T,
    the determinant valuation equals n*m, i.e. p^{-m} T is unimodular.
    """
    if l1.ctx.p != l2.ctx.p or l1.dim != l2.dim:
        raise ValueError("lattices live in different spaces")
    ctx = l1.ctx
    t = linalg.matmul(linalg.inv(l1.rows()), l2.rows())
    m = min(ctx.val(x) for row in t for x in row if x)
    return ctx.val(linalg.det(t)) == l1.dim * m


def evaluate_coords(form: DualForm, coords) -> Fraction:
    """Value of the form on a vector given in ambient coordinates."""
    return sum((a * Fraction(c) for a, c in zip(form.coefficients, coords)), Fraction(0))


def apply_automorphism(cfg: CycleConfiguration, u_rows) -> CycleConfiguration:
    """Image configuration under the lattice automorphism with matrix U."""
    subs = [
        SplitSubmodule(cfg.ambient, [linalg.matvec(u_rows, list(c)) for c in s.columns])
        for s in cfg.submodules
    ]
    return CycleConfiguration(cfg.ambient, subs)


def rebase(cfg: CycleConfiguration, u_rows) -> CycleConfiguration:
    """Same configuration expressed in the basis M*U of the same lattice."""
    amb2 = right_multiply(cfg.ambient, u_rows)
    uinv = linalg.inv(u_rows)
    subs = [
        SplitSubmodule(amb2, [linalg.matvec(uinv, list(c)) for c in s.columns])
        for s in cfg.submodules
    ]
    return CycleConfiguration(amb2, subs)


class MinorValuationProfile:
    """Valuations of the minors of the fixed transition matrix T0, organized
    so that the distance from {M} to any scaled family member is a handful of
    integer operations.

    Scaling generator j by p^{k_j} multiplies each minor with row set I by
    p^{-sum of k over I}, and the extreme invariant-factor exponents are
    partial minima of minor valuations, so only row subsets of sizes 1, n-1
    and n matter.
    """

    def __init__(self, ctx, t0_rows, row_block):
        n = len(t0_rows)
        self.n = n
        nblocks = max(row_block) + 1
        masks_by_size = [[] for _ in range(n + 1)]
        for mask in range(1, 1 << n):
            masks_by_size[mask.bit_count()].append(mask)
        dets = {}
        for i in range(n):
            for j in range(n):
                dets[(1 << i, 1 << j)] = Fraction(t0_rows[i][j])
        for size in range(2, n + 1):
            for rmask in masks_by_size[size]:
                r = rmask.bit_length() - 1
                rrest = rmask ^ (1 << r)
                row = t0_rows[r]
                for cmask in masks_by_size[size]:
                    cols = [c for c in range(n) if cmask >> c & 1]
                    acc = Fraction(0)
                    sign = 1 if (size - 1) % 2 == 0 else -1
                    for idx, c in enumerate(cols):
                        a = row[c]
                        if a:
                            sub = dets[(rrest, cmask ^ (1 << c))]
                            if sub:
                                acc += sign * a * sub if idx % 2 == 0 else -sign * a * sub
                    dets[(rmask, cmask)] = acc

        def mask_counts(mask):
            counts = [0] * nblocks
            for i in range(n):
                if mask >> i & 1:
                    counts[row_block[i]] += 1
            return tuple(counts)

        def row_entries(size):
            entries = []
            for rmask in masks_by_size[size]:
                vals = [
                    ctx.val(dets[(rmask, cmask)])
                    for cmask in masks_by_size[size]
                    if dets[(rmask, cmask)]
                ]
                if vals:
                    entries.append((min(vals), mask_counts(rmask)))
            return entries

        self.singles = row_entries(1)
        self.co_singles = row_entries(n - 1) if n > 1 else []
        full = (1 << n) - 1
        self.total_val = ctx.val(dets[(full, full)])
        self.block_sizes = mask_counts(full)

    def distance(self, kvec) -> int:
        """max - min of the invariant exponents of the row-scaled transition."""
        m1 = min(v - sum(c * k for c, k in zip(counts, kvec)) for v, counts in self.singles)
        if self.n == 1:
            mn1 = 0
        else:
            mn1 = min(v - sum(c * k for c, k in zip(counts, kvec)) for v, counts in self.co_singles)
        mn = self.total_val - sum(c * k for c, k in zip(self.block_sizes, kvec))
        return (mn - mn1) - m1


def family_profile(lattice: LatticeBasis, family: VertexFamily) -> MinorValuationProfile:
    ambient = family.ambient
    cols = family.concatenated_columns()
    t0 = linalg.inv(linalg.transpose(cols))
    if lattice != ambient:
        rel = linalg.matmul(linalg.inv(ambient.rows()), lattice.rows())
        t0 = linalg.matmul(t0, rel)
    row_block = []
    for b, g in enumerate(family.generators):
        row_block.extend([b] * g.rank)
    return MinorValuationProfile(ambient.ctx, t0, row_block)


def _tuples_with_spread(nfree: int, spread: int):
    """All integer tuples of length nfree+1 ending in 0 whose max - min,
    including the trailing 0, equals the given spread."""
    if spread == 0:
        yield (0,) * (nfree + 1)
        return
    for lo in range(-spread, 1):
        hi = lo + spread
        for tup in product(range(lo, hi + 1), repeat=nfree):
            vals = tup + (0,)
            if min(vals) == lo and max(vals) == hi:
                yield vals


def scan_distance_to_family(lattice: LatticeBasis, family: VertexFamily) -> int:
    """Family distance by bounded search: the oracle for the closed form.

    With B0 the distance to the all-zero member, the distance between the
    all-zero member and any scaled member equals the exponent spread, so the
    triangle inequality confines every minimizer to spreads at most 2*B0.
    Candidates are scanned in order of increasing spread with the last
    exponent pinned to 0 (homothety), stopping once no remaining spread can
    beat the best value found.
    """
    profile = family_profile(lattice, family)
    m = len(family.generators)
    b0 = profile.distance((0,) * m)
    if b0 == 0:
        return 0
    best = b0
    for spread in range(1, 2 * b0 + 1):
        if spread - b0 > best:
            break
        for kvec in _tuples_with_spread(m - 1, spread):
            d = profile.distance(kvec)
            if d < best:
                best = d
                if best == 0:
                    return 0
    return best


def exact_column_hnf(rows, p):
    """Column Hermite form over Z_(p) of a nonsingular matrix with p-integral
    entries, in exact rational arithmetic: the oracle for the mod-p^N form of
    the class keys.

    Column operations over Z_(p) make the matrix upper triangular with
    diagonal p^{e_i}, then reduce each entry above the diagonal to the
    integer in [0, p^{e_row}) congruent to it.
    """
    n = len(rows)
    val = PAdicContext(p).val
    cols = [[Fraction(rows[i][j]) for i in range(n)] for j in range(n)]
    tri = [None] * n
    diag_exp = [0] * n
    active = list(range(n))
    for i in range(n - 1, -1, -1):
        j0 = min((j for j in active if cols[j][i]), key=lambda j: val(cols[j][i]))
        e = val(cols[j0][i])
        unit = cols[j0][i] / p**e
        pivot = [x / unit for x in cols[j0]]
        active.remove(j0)
        for j in active:
            c = cols[j][i] / pivot[i]
            cols[j] = [a - c * b for a, b in zip(cols[j], pivot)]
        tri[i] = pivot
        diag_exp[i] = e
    for j in range(1, n):
        for i in range(j - 1, -1, -1):
            pe = p ** diag_exp[i]
            x = tri[j][i]
            r = x.numerator * pow(x.denominator, -1, pe) % pe
            c = (x - r) / pe
            tri[j] = [a - c * b for a, b in zip(tri[j], tri[i])]
    assert all(x.denominator == 1 for col in tri for x in col)
    return tuple(tuple(int(tri[j][i]) for j in range(n)) for i in range(n))


def count_eliminations(monkeypatch):
    """Count the integer eliminations from now on, under "eliminations":
    each solve, inverse, rank and nullspace is one linalg._int_rref, each
    determinant one linalg._bareiss."""
    counts = {"eliminations": 0}
    for name in ("_int_rref", "_bareiss"):

        def counted(*args, _real=getattr(linalg, name)):
            counts["eliminations"] += 1
            return _real(*args)

        monkeypatch.setattr(linalg, name, counted)
    return counts


def member_lattice(family: VertexFamily, exponents) -> LatticeBasis:
    """The family member with generator j scaled by p^{k_j}, built column by
    column: the oracle for the block-scaled transitions the library reads
    members from."""
    if len(exponents) != len(family.generators):
        raise ValueError("need one exponent per generator")
    p, rows = family.ambient.ctx.p, family.ambient.rows()
    cols = [
        [Fraction(p) ** k * x for x in linalg.matvec(rows, list(c))]
        for g, k in zip(family.generators, exponents)
        for c in g.columns
    ]
    return LatticeBasis(family.ambient.ctx, cols)


def member_window_keys(reference: LatticeBasis, family: VertexFamily):
    """Class keys of the family members in the exactness window, one member
    lattice and one class key each: the oracle for the block-scaled keys of
    :func:`btpgl.cycles.family_window_keys`."""
    m = len(family.generators)
    b0 = smith_dist(reference, member_lattice(family, (0,) * m))
    return {
        class_key(reference, member_lattice(family, kvec))
        for spread in range(2 * b0 + 1)
        for kvec in _tuples_with_spread(m - 1, spread)
    }


def _rref_representatives(n: int, k: int, p: int):
    """One reduced-row-echelon basis per k-dimensional subspace of F_p^n,
    pivoted on each vector's first nonzero coordinate."""
    for pivots in combinations(range(n), k):
        free = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, n)
            if j not in pivots
        ]
        for assignment in product(range(p), repeat=len(free)):
            rows = [[0] * n for _ in range(k)]
            for i, pc in enumerate(pivots):
                rows[i][pc] = 1
            for (i, j), value in zip(free, assignment):
                rows[i][j] = value
            yield rows, pivots


@lru_cache(maxsize=32)
def _neighbor_transform_list(n: int, p: int):
    """Dense integer basis-change matrices (as rows): right-multiplying a
    lattice basis by each of them yields one representative per adjacent
    class.  Columns are the lifted echelon basis of a subspace of L/pL
    followed by p times a completion.  The oracle for the triangular basis
    changes of :func:`btpgl.building._triangular_transforms`."""
    out = []
    for k in range(1, n):
        for rows, pivots in _rref_representatives(n, k, p):
            cols = [list(r) for r in rows]
            cols += [[p if i == j else 0 for i in range(n)] for j in range(n) if j not in pivots]
            out.append(linalg.transpose(cols))
    return tuple(out)


def _expand(p: int, t, transforms):
    """(key, normalized integer transition) of each neighbour of the class of
    the integer transition t, in transform order: a dense product, a
    determinant and the modular Hermite form per neighbour, the oracle for
    :func:`btpgl.building._neighbor_keys`."""
    for w in transforms:
        nt = building._normalize_p_power(linalg.matmul(t, w), p)[0]
        yield building._key_from_integer_rows(p, nt), nt


def dense_neighbor_keys(p: int, t):
    """Keys of the neighbours of the class of the integer transition t,
    from the dense echelon list."""
    return [key for key, _ in _expand(p, t, _neighbor_transform_list(len(t), p))]


def one_sided_bfs_dist(reference: LatticeBasis, start: LatticeBasis, targets, radius_cap: int):
    """Breadth-first distance searched from the start class only, layer by
    layer until a target key appears, over the dense echelon list: the
    oracle for the search from both ends in :func:`btpgl.building.bfs_dist`."""
    p = reference.ctx.p
    targets = set(targets)
    t0 = building._integer_transition(reference, start)
    start_key = building._key_from_integer_rows(p, t0)
    if start_key in targets:
        return 0
    transforms = _neighbor_transform_list(reference.dim, p)
    seen = {start_key}
    frontier = [t0]
    depth = 0
    while frontier and depth < radius_cap:
        depth += 1
        nxt = []
        for t in frontier:
            for key, nt in _expand(p, t, transforms):
                if key in targets:
                    return depth
                if key not in seen:
                    seen.add(key)
                    nxt.append(nt)
        frontier = nxt
    return None


# ---------------------------------------------------------------------------
# Gauss-Jordan elimination in Fractions: the oracles for the integer kernel of
# btpgl.linalg, which must return the same values of the same type.


def fraction_det(a) -> Fraction:
    a = linalg.copy_matrix(a)
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


def fraction_inv(a):
    n = len(a)
    a = linalg.copy_matrix(a)
    out = linalg.identity(n)
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


def fraction_rank(a) -> int:
    a = linalg.copy_matrix(a)
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


def fraction_nullspace(a):
    """Basis of the right kernel of a (rows x cols), as length-cols vectors."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    a = linalg.copy_matrix(a)
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


def fraction_solve_columns(cols, target):
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


def fraction_span_fold(ambient: LatticeBasis, submodules):
    """K-basis of the intersection of the spans, folded in pairs with
    Fraction nullspaces: an oracle for :func:`btpgl.lattices.intersect_spans`,
    which takes the kernel of the stacked forms instead."""
    subs = list(submodules)
    cur = [list(c) for c in subs[0].columns]
    n = ambient.dim
    for sub in subs[1:]:
        nxt = [list(c) for c in sub.columns]
        if not cur or not nxt:
            return []
        r1 = len(cur)
        rows = [[cur[j][i] for j in range(r1)] + [-nxt[j][i] for j in range(len(nxt))] for i in range(n)]
        null = fraction_nullspace(rows)
        cur = [
            [sum((vec[j] * cur[j][i] for j in range(r1)), Fraction(0)) for i in range(n)]
            for vec in null
        ]
    return cur


def greedy_complement(outer: SplitSubmodule, inner: SplitSubmodule):
    """Indices j of the outer basis vectors that extend the inner module's
    reduced span, added greedily in index order with an incremental echelon
    basis over F_p, or None when the inner module is not split inside the
    outer one.  The oracle for the pivot reading in
    :func:`btpgl.lattices.complete_to_complement`."""
    ctx = outer.ambient.ctx
    p, s = ctx.p, outer.rank
    rows, pivots = [], []

    def add(vec) -> bool:
        v = [x % p for x in vec]
        for row, piv in zip(rows, pivots):
            if v[piv]:
                f = v[piv]
                v = [(x - f * y) % p for x, y in zip(v, row)]
        for j in range(s):
            if v[j]:
                f = pow(v[j], -1, p)
                rows.append([x * f % p for x in v])
                pivots.append(j)
                return True
        return False

    for col in inner.columns:
        x = fraction_solve_columns([list(c) for c in outer.columns], list(col))
        if x is None or not all(ctx.is_integral(e) for e in x):
            return None
        add([ctx.residue(e) for e in x])
    if len(rows) != inner.rank:
        return None
    return [j for j in range(s) if add([1 if i == j else 0 for i in range(s)])]


def echeloned_special_fold(cfg: CycleConfiguration):
    """The common F_p-intersection of the cycles' reductions, folded with a
    reduced echelon form of each reduction taken first: the oracle for the
    raw fold in :func:`btpgl.cycles.analyze`."""
    p = cfg.ambient.ctx.p
    special = None
    for s in cfg.submodules:
        reduced = [[x.numerator * pow(x.denominator, -1, p) % p for x in c] for c in s.columns]
        rows = linalg.echelon_mod_p(reduced, p)[0]
        special = rows if special is None else linalg.intersect_mod_p(special, rows, p)
    return tuple(tuple(r) for r in special)


def search_key_bound(n, p, radius, ntargets):
    """1 + t + deg * sum_{s<r} max_{a+b=s} min(D(a), t*D(b)): the class keys a
    search from both ends can compute, D(0) = 1, D(k) = deg*(deg-1)^(k-1)."""
    deg = neighbor_count(n, p)

    def layer(k):
        return 1 if k == 0 else deg * (deg - 1) ** (k - 1)

    steps = (max(min(layer(a), ntargets * layer(s - a)) for a in range(s + 1)) for s in range(radius))
    return 1 + ntargets + deg * sum(steps)
