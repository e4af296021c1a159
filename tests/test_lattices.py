import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from btpgl import cycles, linalg
from btpgl.errors import NonIntegralEntry, NotSplitInside, NotUnimodular
from btpgl.lattices import (
    DualForm,
    LatticeBasis,
    SplitSubmodule,
    _eliminate,
    complete_to_complement,
    intersect_spans,
    invariant_exponents,
    is_split,
    same_submodule,
    saturate_coords,
    transform_dual_form,
    triangularize,
)
from btpgl.padic import INFINITY, PAdicContext

from helpers import (
    diagonal,
    evaluate_coords,
    fraction_span_fold,
    greedy_complement,
    matvec,
    random_lattice,
    random_unimodular,
    right_multiply,
    sympy_invariant_exponents,
)

ctx2 = PAdicContext(2)
ctx3 = PAdicContext(3)
ctx5 = PAdicContext(5)


def diag_vals(ctx, res):
    return [ctx.val(res.B[i][i]) for i in range(len(res.B))]


def assert_valid_triangularization(ctx, a, res):
    n = len(a)
    recomposed = linalg.matmul(linalg.matmul(list(map(list, res.C)), a), list(map(list, res.D)))
    assert [list(r) for r in res.B] == recomposed
    # C unimodular over the valuation ring
    assert ctx.val(linalg.det(res.C)) == 0
    assert all(ctx.is_integral(x) for row in res.C for x in row)
    # D is a permutation matrix
    for row in res.D:
        assert sorted(row) == [0] * (n - 1) + [1]
    for col in zip(*res.D):
        assert sorted(col) == [0] * (n - 1) + [1]
    # B upper triangular with the divisibility pattern
    for i in range(n):
        for j in range(i):
            assert res.B[i][j] == 0
        for j in range(i, n):
            assert ctx.val(res.B[i][i]) <= ctx.val(res.B[i][j])
    dv = diag_vals(ctx, res)
    assert all(dv[i] <= dv[i + 1] for i in range(n - 1))


def test_triangularize_identity():
    res = triangularize(ctx2, linalg.identity(3))
    assert res.B == res.C == res.D == tuple(tuple(r) for r in linalg.identity(3))


def test_triangularize_unit_pivot_first():
    a = [[2, 1], [1, 1]]
    res = triangularize(ctx2, a)
    assert_valid_triangularization(ctx2, a, res)
    assert diag_vals(ctx2, res) == [0, 0]
    assert ctx2.val(linalg.det(res.B)) == ctx2.val(linalg.det(a)) == 0


def test_triangularize_worked_example():
    a = [[3, 3], [3, 12]]
    res = triangularize(ctx3, a)
    assert_valid_triangularization(ctx3, a, res)
    # elementary-divisor exponents of this matrix are (1, 2)
    assert sorted(diag_vals(ctx3, res)) == [1, 2]
    assert ctx3.val(linalg.det(res.B)) == 3


def test_triangularize_rejects_non_integral():
    with pytest.raises(NonIntegralEntry):
        triangularize(ctx2, [[Fraction(1, 2), 0], [0, 1]])


def test_triangularize_singular_matrix():
    a = [[2, 4], [1, 2]]
    res = triangularize(ctx2, a)
    assert_valid_triangularization(ctx2, a, res)
    assert diag_vals(ctx2, res)[-1] is INFINITY


@pytest.mark.parametrize("p", [2, 3, 5])
def test_triangularize_matches_smith_oracle(p):
    ctx = PAdicContext(p)
    rng = random.Random(p * 17)
    for _ in range(40):
        n = rng.randrange(2, 5)
        a = [[rng.randrange(-20, 21) for _ in range(n)] for _ in range(n)]
        res = triangularize(ctx, a)
        assert_valid_triangularization(ctx, a, res)
        dv = diag_vals(ctx, res)
        finite = sorted(v for v in dv if v is not INFINITY)
        zeros = sum(1 for v in dv if v is INFINITY)
        assert (finite, zeros) == sympy_invariant_exponents(a, p)


def test_invariant_exponents_examples():
    std = LatticeBasis.standard(ctx2, 2)
    assert invariant_exponents(std, std) == (0, 0)
    halved = diagonal(ctx2, [1, Fraction(1, 2)])
    assert invariant_exponents(std, halved) == (0, 1)
    std3 = LatticeBasis.standard(ctx3, 2)
    other = LatticeBasis(ctx3, [(1, 0), (1, Fraction(1, 9))])
    assert invariant_exponents(std3, other) == (0, 2)


def test_invariant_exponents_match_smith_oracle():
    rng = random.Random(11)
    for p in (2, 3):
        ctx = PAdicContext(p)
        for _ in range(20):
            n = rng.randrange(2, 4)
            std = LatticeBasis.standard(ctx, n)
            other = LatticeBasis.from_rows(
                ctx,
                linalg.matmul(
                    random_unimodular(rng, n, p),
                    [[Fraction(p) ** rng.randrange(-2, 3) if i == j else 0 for j in range(n)] for i in range(n)],
                ),
            )
            t = linalg.matmul(linalg.inv(other.rows()), std.rows())
            oracle, zeros = sympy_invariant_exponents(t, p)
            assert zeros == 0
            assert list(invariant_exponents(std, other)) == oracle


def test_invariant_exponents_antisymmetry_and_invariance():
    rng = random.Random(23)
    for p in (2, 3):
        ctx = PAdicContext(p)
        for _ in range(15):
            n = rng.randrange(2, 4)
            a = LatticeBasis.from_rows(
                ctx, linalg.matmul(random_unimodular(rng, n, p), linalg.identity(n))
            )
            exps_d = [Fraction(p) ** rng.randrange(0, 4) for _ in range(n)]
            b = LatticeBasis.from_rows(
                ctx,
                linalg.matmul(random_unimodular(rng, n, p), [[exps_d[i] if i == j else 0 for j in range(n)] for i in range(n)]),
            )
            ab = invariant_exponents(a, b)
            ba = invariant_exponents(b, a)
            assert list(ab) == sorted(-x for x in ba)
            u = random_unimodular(rng, n, p)
            assert invariant_exponents(a, right_multiply(b, u)) == ab
            assert invariant_exponents(right_multiply(a, u), b) == ab
            c = rng.randrange(1, 3)
            shifted = invariant_exponents(a, b.scale(Fraction(p) ** c))
            assert list(shifted) == [x - c for x in ab]


def test_is_split_examples():
    std = LatticeBasis.standard(ctx2, 2)
    assert is_split(SplitSubmodule(std, [(1, 0)]))
    assert not is_split(SplitSubmodule(std, [(2, 0)]))
    std3 = LatticeBasis.standard(ctx3, 3)
    assert is_split(SplitSubmodule(std3, [(1, 0, 0), (0, 1, 3)]))
    assert is_split(SplitSubmodule(std3, ()))


def test_submodule_rejects_non_integral_coords():
    std = LatticeBasis.standard(ctx2, 2)
    with pytest.raises(NonIntegralEntry):
        SplitSubmodule(std, [(Fraction(1, 2), 0)])


def test_saturate_examples():
    std = LatticeBasis.standard(ctx5, 2)
    sat = saturate_coords(std, [(5, 0)])
    assert sat.columns == ((1, 0),)
    full = saturate_coords(LatticeBasis.standard(ctx3, 2), [(1, 0), (0, 2), (1, 1)])
    assert full.rank == 2

    std3 = LatticeBasis.standard(ctx2, 3)
    sat = saturate_coords(std3, [(1, 1, 0), (1, 1, 2)])
    assert sat.rank == 2
    assert is_split(sat)
    # saturation contains (0,0,1) = ((1,1,2)-(1,1,0))/2
    coeffs = linalg.solve(linalg.transpose(sat.columns), [[0], [0], [1]])
    assert coeffs is not None and all(ctx2.is_integral(x) for row in coeffs for x in row)
    # same K-span as the input
    stacked = [list(c) for c in sat.columns] + [[1, 1, 0], [1, 1, 2]]
    assert linalg.rank(linalg.transpose(stacked)) == 2


def test_saturate_is_idempotent_and_split():
    rng = random.Random(3)
    for p in (2, 3):
        ctx = PAdicContext(p)
        std = LatticeBasis.standard(ctx, 3)
        for _ in range(15):
            vecs = [
                [Fraction(rng.randrange(-8, 9), rng.choice([1, 1, p])) for _ in range(3)]
                for _ in range(rng.randrange(1, 3))
            ]
            if all(not any(v) for v in vecs):
                continue
            sat = saturate_coords(std, vecs)
            assert is_split(sat)
            again = saturate_coords(std, sat.columns)
            assert same_submodule(sat, again)


@st.composite
def _line_vectors(draw):
    """(p, v, zeros): a nonzero vector of K^n, n = 1..6, whose entries are
    0 or a unit times a power of p, exponents -3..3, and zero vectors to
    put before it."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 6))
    units = st.integers(1, 3 * p).filter(lambda u: u % p).map(Fraction)
    scaled = st.builds(lambda u, s, e: s * u * Fraction(p) ** e, units, st.sampled_from([1, -1]), st.integers(-3, 3))
    v = draw(st.lists(st.just(Fraction(0)) | scaled, min_size=n, max_size=n).filter(any))
    return p, v, draw(st.integers(0, 2))


@settings(deadline=None, max_examples=200)
@given(_line_vectors())
def test_line_saturation_is_the_eliminations_column(data):
    # one vector saturates in closed form; the first column of C^{-1} that
    # _eliminate tracks for it as an n x 1 matrix must be the same, entry
    # for entry and type for type
    p, v, zeros = data
    ctx, n = PAdicContext(p), len(v)
    p_cols = linalg.identity(n)
    assert len(_eliminate(ctx, [[x] for x in v], p_cols)[1]) == 1
    (col,) = saturate_coords(LatticeBasis.standard(ctx, n), [[0] * n] * zeros + [v]).columns
    assert [(type(x), x) for x in col] == [(type(x), x) for x in p_cols[0]]


def test_intersect_spans_examples():
    std3 = LatticeBasis.standard(ctx3, 3)
    n1 = SplitSubmodule(std3, [(1, 0, 0), (0, 1, 0)])
    n2 = SplitSubmodule(std3, [(1, 0, 0), (0, 1, 9)])
    single = intersect_spans(std3, [n1])
    assert same_submodule(single, n1)
    inter = intersect_spans(std3, [n1, n2])
    assert inter.rank == 1
    assert same_submodule(inter, SplitSubmodule(std3, [(1, 0, 0)]))

    std2 = LatticeBasis.standard(ctx2, 2)
    h1 = SplitSubmodule(std2, [(1, 0)])
    h2 = SplitSubmodule(std2, [(0, 1)])
    assert intersect_spans(std2, [h1, h2]).rank == 0


def _span_draws():
    """120 seeded (rng, ambient, submodules) draws, n = 2..5, p = 2, 3, 5."""
    rng = random.Random(11)
    for trial in range(120):
        p = rng.choice((2, 3, 5))
        ctx = PAdicContext(p)
        n = rng.randrange(2, 6)
        ambient = LatticeBasis.standard(ctx, n) if trial % 2 else random_lattice(rng, ctx, n, 3)
        subs = [
            cycles._random_split(rng, ambient, rng.randrange(max(1, n - 2), n), rng.randrange(1, 7))
            for _ in range(rng.randrange(2, 4))
        ]
        yield rng, ambient, subs


def test_intersect_spans_matches_fraction_fold():
    # the kernel of the stacked forms is the module that folding the spans
    # in pairs, in Fractions, saturates to
    for _, ambient, subs in _span_draws():
        expected = saturate_coords(ambient, fraction_span_fold(ambient, subs))
        assert same_submodule(intersect_spans(ambient, subs), expected)


def _rebased(rng, sub):
    """The same submodule on another basis: its columns times a seeded
    matrix that is unimodular over the valuation ring."""
    u = random_unimodular(rng, sub.rank, sub.ambient.ctx.p)
    n = sub.ambient.dim
    cols = [[sum(ui[j] * c[k] for ui, c in zip(u, sub.columns)) for k in range(n)] for j in range(sub.rank)]
    return SplitSubmodule(sub.ambient, cols)


def test_intersect_spans_ignores_order_and_bases():
    # only the K-spans fix the reduced echelon form of the stacked forms
    for rng, ambient, subs in _span_draws():
        moved = [_rebased(rng, s) for s in subs]
        rng.shuffle(moved)
        assert intersect_spans(ambient, moved) == intersect_spans(ambient, subs)


def test_intersect_spans_edge_cases():
    rng = random.Random(12)
    for p in (2, 3, 5):
        ctx = PAdicContext(p)
        for n in (2, 3, 4):
            ambient = random_lattice(rng, ctx, n, 3)
            sub = cycles._random_split(rng, ambient, rng.randrange(1, n), 4)
            whole = SplitSubmodule(ambient, random_unimodular(rng, n, p))
            empty = SplitSubmodule(ambient, ())
            assert same_submodule(intersect_spans(ambient, [sub]), sub)
            assert intersect_spans(ambient, [empty]).rank == 0
            assert intersect_spans(ambient, [sub, empty, whole]).rank == 0
            full = intersect_spans(ambient, [whole, whole])
            assert full.rank == n and same_submodule(full, whole)
            assert intersect_spans(ambient, [whole]) == intersect_spans(ambient, [whole, whole])


def test_split_submodule_columns_are_checked_by_their_echelon(monkeypatch):
    # columns independent mod p are independent over K, so the echelon the
    # module keeps decides split columns, and a K-rank runs only when it has
    # fewer pivots than columns: a dependent pair is refused, an independent
    # pair that is not split is a legal module
    ambient = LatticeBasis.standard(ctx2, 3)
    calls = []
    monkeypatch.setattr(linalg, "rank", lambda a, _real=linalg.rank: calls.append(a) or _real(a))
    echelons = []
    monkeypatch.setattr(
        linalg, "echelon_mod_p", lambda *a, _real=linalg.echelon_mod_p: echelons.append(a) or _real(*a)
    )
    split = SplitSubmodule(ambient, [(1, 0, 0), (0, 1, 4)])
    assert (calls, len(echelons)) == ([], 1)
    assert is_split(split) and len(echelons) == 1
    with pytest.raises(ValueError, match="^coordinate columns are K-linearly dependent$"):
        SplitSubmodule(ambient, [(1, 0, 0), (2, 0, 0)])
    assert len(calls) == 1
    non_split = SplitSubmodule(ambient, [(1, 0, 0), (0, 2, 0)])
    assert len(calls) == 2 and not is_split(non_split)
    assert len(echelons) == 3
    with pytest.raises(ValueError, match="not split"):
        non_split.forms()


def _split_with_non_unit_first_pivot(rng, ambient, r):
    """A split rank r submodule whose columns all have a p-divisible first
    entry, nonzero in the first: p*x_k e_0 + e_{k+1} plus integral entries
    past position r, on a seeded unimodular change of basis."""
    n, p = ambient.dim, ambient.ctx.p
    cols = []
    for k in range(r):
        c = [p * rng.randrange(1 if k == 0 else 0, 4)] + [int(i == k) for i in range(r)]
        cols.append(c + [rng.randrange(-4, 5) * p ** rng.randrange(3) for _ in range(n - r - 1)])
    u = random_unimodular(rng, r, p)
    rebased = [[sum(ui[j] * c[i] for j, c in enumerate(cols)) for i in range(n)] for ui in u]
    return SplitSubmodule(ambient, rebased)


def test_split_submodule_forms():
    # an R-basis pivoted on the unit minor: n - r integral forms, independent
    # mod p, each vanishing on every column, the same module as the saturated
    # nullspace of the columns (also when the first K-pivot is no unit);
    # computed once
    rng = random.Random(15)
    for p in (2, 3, 5, 7):
        ctx = PAdicContext(p)
        for trial in range(30):
            n = 2 + trial % 5
            ambient = LatticeBasis.standard(ctx, n) if trial % 2 else random_lattice(rng, ctx, n, 3)
            r = rng.randrange(1, n)
            if trial % 3:
                sub = cycles._random_split(rng, ambient, r, 3)
            else:
                sub = _split_with_non_unit_first_pivot(rng, ambient, r)
                assert all(ctx.val(c[0]) >= 1 for c in sub.columns) and any(c[0] for c in sub.columns)
            forms = sub.forms()
            assert len(forms) == n - r and all(ctx.is_integral(x) for f in forms for x in f)
            residues = [[ctx.residue(x) for x in f] for f in forms]
            assert len(linalg.echelon_mod_p(residues, p)[1]) == n - r
            assert not any(map(any, linalg.matmul(sub.columns, linalg.transpose(forms))))
            dual = LatticeBasis.standard(ctx, n)
            old_route = saturate_coords(dual, linalg.nullspace(sub.columns))
            assert same_submodule(SplitSubmodule(dual, forms), old_route)
            assert sub.forms() is forms
    ambient = LatticeBasis.standard(ctx3, 3)
    zero = SplitSubmodule(ambient, ()).forms()
    assert len(zero) == 3 and linalg.rank(zero) == 3
    whole = SplitSubmodule(ambient, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert whole.forms() == ()
    with pytest.raises(ValueError):
        SplitSubmodule(ambient, [(3, 0, 0)]).forms()  # not split


def test_split_submodule_given_forms():
    # forms given as data are kept, and checked: n - rank of them, integral,
    # independent mod p, each vanishing on every column
    ambient = LatticeBasis.standard(ctx3, 3)
    plane = [(1, 0, 0), (0, 1, 3)]
    assert SplitSubmodule(ambient, plane, forms=[(0, -3, 1)]).forms() == ((0, -3, 1),)
    assert SplitSubmodule(ambient, (), forms=linalg.identity(3)).forms() == tuple(map(tuple, linalg.identity(3)))
    assert SplitSubmodule(ambient, linalg.identity(3), forms=()).forms() == ()
    refused = [
        (plane, [(0, 3, 1)]),  # does not vanish on the second column
        (plane, []),  # too few
        (plane, [(0, -3, 1), (0, 3, -1)]),  # too many
        ([(1, 0, 0)], [(0, 1, 0), (0, 2, 0)]),  # dependent
        ((), [(1, 0, 0), (0, 1, 0), (1, 1, 0)]),  # dependent
        ([(1, 0, 0)], [(0, 1, 0), (0, 1, 3)]),  # independent over K, not mod 3
    ]
    for cols, forms in refused:
        with pytest.raises(ValueError):
            SplitSubmodule(ambient, cols, forms=forms)
    with pytest.raises(NonIntegralEntry):
        SplitSubmodule(ambient, [(1, 0, 0)], forms=[(0, 1, 0), (0, 0, Fraction(1, 3))])


def _split_with_non_unit_first_pivot(rng, ambient, r):
    """A split rank r submodule whose columns all have a p-divisible first
    entry, nonzero in the first: p*x_k e_0 + e_{k+1} plus integral entries
    past position r, on a seeded unimodular change of basis."""
    n, p = ambient.dim, ambient.ctx.p
    cols = []
    for k in range(r):
        c = [p * rng.randrange(1 if k == 0 else 0, 4)] + [int(i == k) for i in range(r)]
        cols.append(c + [rng.randrange(-4, 5) * p ** rng.randrange(3) for _ in range(n - r - 1)])
    u = random_unimodular(rng, r, p)
    rebased = [[sum(ui[j] * c[i] for j, c in enumerate(cols)) for i in range(n)] for ui in u]
    return SplitSubmodule(ambient, rebased)


def test_complete_to_complement_trivial_cases():
    std = LatticeBasis.standard(ctx3, 3)
    outer = SplitSubmodule(std, [(1, 0, 0), (0, 1, 9)])
    assert complete_to_complement(outer, outer).rank == 0
    zero = SplitSubmodule(std, ())
    assert same_submodule(complete_to_complement(outer, zero), outer)


def test_complete_to_complement_worked_example():
    std = LatticeBasis.standard(ctx3, 3)
    outer = SplitSubmodule(std, [(1, 0, 0), (0, 1, 9)])
    inner = SplitSubmodule(std, [(1, 0, 0)])
    comp = complete_to_complement(outer, inner)
    assert comp.columns == ((0, 1, 9),)
    combined = SplitSubmodule(std, tuple(inner.columns) + tuple(comp.columns))
    assert same_submodule(combined, outer)


def test_complete_to_complement_direct_sum_oracle():
    rng = random.Random(9)
    for p in (2, 3):
        ctx = PAdicContext(p)
        std = LatticeBasis.standard(ctx, 3)
        full = SplitSubmodule(std, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        for _ in range(15):
            vecs = [[rng.randrange(-6, 7) for _ in range(3)] for _ in range(rng.randrange(1, 3))]
            if all(not any(v) for v in vecs):
                continue
            inner = saturate_coords(std, vecs)
            comp = complete_to_complement(full, inner)
            cols = tuple(inner.columns) + tuple(comp.columns)
            recombined = LatticeBasis(ctx, [list(c) for c in cols])
            assert invariant_exponents(std, recombined) == (0,) * 3


def test_complete_to_complement_rejects_non_split_inner():
    std = LatticeBasis.standard(ctx2, 2)
    full = SplitSubmodule(std, [(1, 0), (0, 1)])
    inner = SplitSubmodule(std, [(2, 0)])
    with pytest.raises(NotSplitInside):
        complete_to_complement(full, inner)
    outside = SplitSubmodule(std, [(1, 1)])
    narrow = SplitSubmodule(std, [(1, 0)])
    with pytest.raises(NotSplitInside):
        complete_to_complement(narrow, outside)


def test_complete_to_complement_matches_greedy_oracle():
    # the pivots of the column-reversed reduced coordinates give the same
    # complement as greedily extending an incremental echelon basis, inside
    # the whole lattice and inside random split outers, at standard and
    # non-standard ambients, and reject the same inners
    rng = random.Random(21)
    outcomes = {"complement": 0, "rejected": 0}
    for trial in range(160):
        p = rng.choice([2, 3, 5])
        ctx = PAdicContext(p)
        n = rng.randrange(2, 6)
        ambient = LatticeBasis.standard(ctx, n) if trial % 2 else random_lattice(rng, ctx, n, 3)
        s = rng.randrange(1, n + 1)
        if s < n:
            outer = cycles._random_split(rng, ambient, s, 3)
        else:
            # the whole lattice in its own basis
            outer = SplitSubmodule(ambient, [[int(i == j) for i in range(n)] for j in range(n)])
        coeffs = [[rng.randrange(-3, 4) for _ in range(s)] for _ in range(rng.randrange(1, s + 1))]
        vecs = [[sum(a * c[i] for a, c in zip(cf, outer.columns)) for i in range(n)] for cf in coeffs]
        inner = saturate_coords(ambient, vecs)
        if inner.rank and trial % 3 == 0:
            # p times a column is not split inside the outer module
            inner = SplitSubmodule(ambient, ([p * x for x in inner.columns[0]],) + inner.columns[1:])
        elif trial % 3 == 1:
            # a random line, usually outside the outer span
            inner = cycles._random_split(rng, ambient, 1, 3)
        expected = greedy_complement(outer, inner)
        outcomes["rejected" if expected is None else "complement"] += 1
        if expected is None:
            with pytest.raises(NotSplitInside):
                complete_to_complement(outer, inner)
        else:
            comp = complete_to_complement(outer, inner)
            assert comp.columns == tuple(outer.columns[j] for j in expected)
    assert min(outcomes.values()) >= 40


def test_dual_form_validation():
    std = LatticeBasis.standard(ctx2, 2)
    with pytest.raises(ValueError):
        DualForm(std, (2, 4))
    with pytest.raises(NonIntegralEntry):
        DualForm(std, (Fraction(1, 2), 1))
    DualForm(std, (1, 2))


def test_transform_dual_form_examples():
    std = LatticeBasis.standard(ctx2, 2)
    f = DualForm(std, (1, 0))
    assert transform_dual_form(linalg.identity(2), f).coefficients == f.coefficients
    perm = [[0, 1], [1, 0]]
    assert transform_dual_form(perm, f).coefficients == (0, 1)
    b = [[1, 1], [0, 1]]
    assert transform_dual_form(b, f).coefficients == (1, -1)


def test_transform_dual_form_rejects_non_unimodular():
    std = LatticeBasis.standard(ctx2, 2)
    f = DualForm(std, (1, 0))
    with pytest.raises(NotUnimodular):
        transform_dual_form([[2, 0], [0, 1]], f)
    with pytest.raises(NotUnimodular):
        transform_dual_form([[Fraction(1, 2), 0], [0, 1]], f)


def test_transform_dual_form_preserves_vanishing():
    rng = random.Random(31)
    std = LatticeBasis.standard(ctx3, 3)
    f = DualForm(std, (1, 3, 2))
    for _ in range(10):
        u = random_unimodular(rng, 3, 3)
        g = transform_dual_form(u, f)
        for col in [(-3, 1, 0), (-2, 0, 1)]:
            image = matvec(u, list(col))
            assert evaluate_coords(g, image) == evaluate_coords(f, col) == 0


def _random_entry(rng, p, denominators):
    """A random p-adic number u * p^k / d with u small, or zero."""
    if rng.random() < 0.2:
        return Fraction(0)
    return Fraction(rng.randrange(-6, 7) * p ** rng.randrange(0, 4), rng.choice(denominators))


def _elimination_outputs(n, p, seed):
    """triangularize's C, D and B on integral square matrices, full-rank and
    rank-deficient, and saturate_coords on vector lists with zero and
    dependent vectors and up to n + 2 of them, as strings."""
    rng = random.Random(seed * 1000 + n * 10 + p)
    ctx = PAdicContext(p)
    # denominators prime to p keep the triangularize inputs integral
    units = [1, 1, 7 if p != 7 else 11]
    out = []
    for k in (n, n, n - 1, 1):
        x = [[_random_entry(rng, p, units) for _ in range(k)] for _ in range(n)]
        y = [[_random_entry(rng, p, units) for _ in range(n)] for _ in range(k)]
        res = triangularize(ctx, linalg.matmul(x, y) if k < n else x)
        out.append([[[str(e) for e in row] for row in m] for m in (res.C, res.D, res.B)])
    std = LatticeBasis.standard(ctx, n)
    for count in (0, 1, n - 1, n, n + 1, n + 2):
        vecs = []
        for _ in range(count):
            r = rng.random()
            if r < 0.15:
                vecs.append([0] * n)
            elif r < 0.35 and vecs:
                a, b = rng.choice(vecs), rng.choice(vecs)
                c = Fraction(rng.randrange(-4, 5), p ** rng.randrange(0, 3))
                vecs.append([s + c * t for s, t in zip(a, b)])
            else:
                vecs.append([_random_entry(rng, p, [1, p, p**2, 3 * p]) for _ in range(n)])
        out.append([[str(e) for e in col] for col in saturate_coords(std, vecs).columns])
    return out


# elimination_digest() with the src of commit 3f16823, whose triangularize
# tracked C directly and whose saturate_coords ran its own elimination loop
RECORDED_ELIMINATION_DIGEST = "13c90f4256253a332cc55de92f2b607f5ad03ff852a13e3b47e1a0017b58ef76"


def elimination_digest():
    """sha256 of the triangularize and saturate_coords outputs over
    n = 2..5, p = 2, 3, 5 and seeds 1..3."""
    cells = [(n, p, seed) for n in (2, 3, 4, 5) for p in (2, 3, 5) for seed in (1, 2, 3)]
    text = json.dumps([_elimination_outputs(*cell) for cell in cells])
    return hashlib.sha256(text.encode()).hexdigest()


def test_elimination_outputs_match_the_recorded_digest():
    # C, D, B and the saturation bases depend on the pivot order and on how
    # the row operations are tracked, so they must not change
    assert elimination_digest() == RECORDED_ELIMINATION_DIGEST
