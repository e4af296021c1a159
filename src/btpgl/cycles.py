"""Linear cycles on the projective model of a lattice.

A split rank-r submodule N of a lattice M cuts out a linear cycle of
codimension n - r on the projective model of M.  This module computes
intersection numbers of properly meeting cycles (the determinant valuation of
an assembled form matrix), builds the vertex family generated by the partial
intersections L_j of the cycles, and checks the identity between the
intersection number and the combinatorial distance from {M} to that family.
That distance is a closed form in the valuations of one transition matrix,
and comes with a nearest family member as witness.
For cycles meeting properly in positive dimension it computes the
decomposition of the intersection cycle into the closure of the generic-fibre
component (multiplicity one) and a special-fibre component whose multiplicity
is again a distance to a vertex family.

Everything is pure computation on immutable values, which keep only
deterministic caches; a campaign driver may evaluate instances concurrently
without shared state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, product

from . import linalg
from .building import _check_search_size, _min_val, bfs_dist, block_scaled_keys, enumeration_cap
from .errors import (
    EnumerationTooLarge,
    GenerationExhausted,
    ImproperGenericIntersection,
    ProperFail,
    RankMismatch,
)
from .lattices import (
    DualForm,
    LatticeBasis,
    SplitSubmodule,
    intersect_spans,
    is_split,
    same_submodule,
    saturate_coords,
)
from .padic import PAdicContext


class Properness(Enum):
    PROPER_0DIM = "proper_0dim"
    PROPER_HIGHER_DIM = "proper_higher_dim"
    IMPROPER = "improper"
    EMPTY_INTERSECTION = "empty_intersection"


@dataclass(frozen=True)
class PropernessReport:
    """Classification of how a cycle configuration meets on the model.

    generic_dim is the dimension of the common K-intersection of the spans,
    special_dim the dimension of the common F_p-intersection of the
    reductions.  r0 is the expected generic dimension when the codimensions
    sum to less than n, else 0.
    """

    kind: Properness
    r0: int
    generic_dim: int
    special_dim: int


@dataclass(frozen=True)
class CycleAnalysis:
    """The intersections every invariant of a configuration is read from.

    generic is L0, the saturation of the common K-intersection of the spans;
    special is the reduced echelon basis of the common F_p-intersection of
    the reductions; properness classifies the two.  number is val det A, A
    the stacked forms, when c = n and det A != 0, else None.  The partial
    intersections L_j and the complements S_j of L0 in them are computed on
    first use, from one inverse.  It holds the cycles, not the configuration
    that keeps it: no reference cycle.
    """

    submodules: tuple
    generic: SplitSubmodule
    special: tuple
    properness: PropernessReport
    number: int | None

    @cached_property
    def complements(self) -> tuple:
        """S_j, a split complement of L0 in L_j, for each cycle j: the
        saturation of block j of the first c columns of Q^{-1}.

        A stacks every cycle's forms (c rows, grouped by cycle), N is L0's
        columns and J the pivots of N mod p, so N_J is a unit minor.  Q is
        A with the unit rows e_j (j in J) below it.  L0 has rank n - rank A,
        so Q is square exactly when the forms are independent; otherwise
        this raises RankMismatch.  If Q x = 0, then x = N y and N_J y = 0,
        so y = 0: a square Q is invertible.  Let X be the first c columns of
        Q^{-1}; then A X = I and X_J = 0.  Block j of X, X_j, is killed by
        every other cycle's forms and A_j X_j = I, so the K-span of L_j is
        that of L0 plus that of X_j, and the sum is direct.  Since
        det [N | e_{not J}] = +-det N_J is a unit, R^n = L0 + R^{not J},
        direct.  An element v of L_j is N a + w with a integral and w in
        R^{not J}; w lies in L_j's K-span and vanishes on J, and an element
        N b + X_j y of that span vanishes on J only if N_J b = 0, so w lies
        in X_j's K-span: w is in S_j, its saturation.  So L_j = L0 + S_j,
        direct, and the columns of L0 and S_j are a basis of L_j.
        """
        l0 = self.generic
        n = l0.ambient.dim
        forms = [f for s in self.submodules for f in s.forms()]
        pivots = l0.echelon()[1] if l0.rank else ()
        if len(forms) + len(pivots) != n:
            raise RankMismatch(f"the {len(forms)} forms of the cycles are dependent")
        cols = linalg.transpose(linalg.inv(forms + [[int(i == j) for i in range(n)] for j in pivots]))
        ends = [0, *accumulate(n - s.rank for s in self.submodules)]
        return tuple(saturate_coords(l0.ambient, cols[a:b]) for a, b in zip(ends, ends[1:]))

    @cached_property
    def partials(self) -> tuple:
        """L_j, the saturated K-intersection of all cycles but the j-th, for
        each j: L0 + S_j (see :attr:`complements`), of rank n - r_j + r0."""
        l0 = self.generic
        return tuple(SplitSubmodule._trusted(l0.ambient, l0.columns + s.columns) for s in self.complements)


class CycleConfiguration:
    """A lattice M together with d >= 2 split submodules defining linear cycles.

    The configuration keeps its :func:`analyze` result once computed.
    """

    __slots__ = ("ambient", "submodules", "_analysis")

    def __init__(self, ambient: LatticeBasis, submodules):
        subs = tuple(submodules)
        if len(subs) < 2:
            raise ValueError("need at least two cycles")
        n = ambient.dim
        for s in subs:
            if s.ambient != ambient:
                raise ValueError("cycles must share the ambient lattice")
            if not 0 < s.rank < n:
                raise ValueError(f"cycle rank must be strictly between 0 and {n}")
            if not is_split(s):
                raise ValueError("cycle submodule is not split")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "submodules", subs)
        object.__setattr__(self, "_analysis", None)

    def __setattr__(self, name, value):
        raise AttributeError("CycleConfiguration is immutable")

    def codim_sum(self) -> int:
        n = self.ambient.dim
        return sum(n - s.rank for s in self.submodules)


class VertexFamily:
    """Generators whose p-power-scaled direct sums enumerate a vertex set.

    The generators' K-spans are independent and sum to V, so every scaled
    direct sum is a full-rank lattice.  The check is the inverse of F, the
    generators' columns side by side, which the family keeps: every family
    distance reads it (:func:`_family_transition`).
    """

    __slots__ = ("ambient", "generators", "_inverse")

    def __init__(self, ambient: LatticeBasis, generators):
        gens = tuple(generators)
        if not gens:
            raise ValueError("family needs at least one generator")
        if any(g.ambient != ambient for g in gens):
            raise ValueError("generators must share the ambient lattice")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "generators", gens)
        cols = self.concatenated_columns()
        if len(cols) != ambient.dim:
            raise ValueError("generator ranks must sum to the dimension")
        f_inv = linalg.solve(linalg.transpose(cols), linalg.identity(len(cols)))
        if f_inv is None:
            raise ValueError("generator spans are not independent")
        object.__setattr__(self, "_inverse", tuple(map(tuple, f_inv)))

    def __setattr__(self, name, value):
        raise AttributeError("VertexFamily is immutable")

    def concatenated_columns(self):
        cols = []
        for g in self.generators:
            cols.extend(list(c) for c in g.columns)
        return cols


@dataclass(frozen=True)
class CycleDecomposition:
    """Intersection cycle of cycles meeting properly in positive dimension.

    The generic component (closure of the generic-fibre intersection) always
    carries multiplicity one; the special component is the reduced
    intersection on the special fibre, weighted by the distance from the
    model's vertex to the associated vertex family.
    """

    generic_component: SplitSubmodule
    generic_multiplicity: int
    special_component: tuple
    special_multiplicity: int


@dataclass(frozen=True)
class IdentityReport:
    lhs: int
    rhs: int
    agree: bool
    properness: PropernessReport


@dataclass(frozen=True)
class ApartmentReport:
    dist_to_apartment: int
    intersection_number: int


@dataclass(frozen=True)
class InstanceSample:
    config: CycleConfiguration
    forms: tuple | None
    rejections: int


def hyperplane_kernel(form: DualForm) -> SplitSubmodule:
    """The split rank n-1 kernel of a primitive form a, kept with a as its forms.

    With a_j the first unit entry, the columns e_i - (a_i/a_j) e_j (i != j)
    are integral and a kills them.  Mod p they hold the identity off
    coordinate j, so they span a split rank n-1 submodule of ker a: its
    saturation.  The forms vanishing on it are the c*a, c in K, and c*a is
    integral iff c*a_j is, iff c is; so R*a is every integral one.  This
    proves every check of the public constructor, so the module skips them.
    """
    a, n = form.coefficients, form.ambient.dim
    j = next(i for i in range(n) if form.ambient.ctx.is_unit(a[i]))
    zero, one = Fraction(0), Fraction(1)
    cols = tuple(
        tuple(-a[i] / a[j] if k == j else one if k == i else zero for k in range(n))
        for i in range(n)
        if i != j
    )
    return SplitSubmodule._trusted(form.ambient, cols, forms=(a,))


def intersect_hyperplanes(forms) -> int:
    """Intersection number of n hyperplanes meeting properly on the generic
    fibre: the valuation of the determinant of their coefficient matrix."""
    forms = list(forms)
    if not forms:
        raise ValueError("need at least one form")
    ambient = forms[0].ambient
    n = ambient.dim
    if len(forms) != n:
        raise ValueError(f"need exactly {n} forms, got {len(forms)}")
    for f in forms:
        if f.ambient != ambient:
            raise ValueError("forms must share the ambient lattice")
    d = linalg.det([[forms[j].coefficients[i] for j in range(n)] for i in range(n)])
    if d == 0:
        raise ImproperGenericIntersection("coefficient matrix is singular")
    return ambient.ctx.val(d)


def analyze(cfg: CycleConfiguration) -> CycleAnalysis:
    """Intersect the spans and the reductions once; classify properness.

    With c the sum of the codimensions: for c = n the cycles meet properly
    exactly when the K-spans meet in 0 and the reductions meet in dimension
    at most 1 (dimension 0 is the empty case); for c < n the expected
    dimension r0 = n - c must be attained over K and the reduced intersection
    may exceed it by at most one.  Everything else is improper on the model.

    At c = n, L0 = ker A is 0 exactly when det A != 0, A the stacked forms,
    and val det A is then the intersection number; else :func:`intersect_spans`
    gives L0.  The L_j take their own inverse, so a classification takes none.
    The special intersection is ker(A mod p): a split N_j reduces to the
    span of its echelon's r_j rows, cut out by their (n - r_j)-dimensional
    right kernel, so the common reduction is the kernel of all those kernels
    stacked, echeloned once more to its canonical reduced form.

    The result is kept on the configuration, so every function below reads
    one analysis per configuration.
    """
    if cfg._analysis is not None:
        return cfg._analysis
    n = cfg.ambient.dim
    c = cfg.codim_sum()
    p = cfg.ambient.ctx.p
    det = linalg.det([f for s in cfg.submodules for f in s.forms()]) if c == n else 0
    generic = SplitSubmodule._trusted(cfg.ambient, ()) if det else intersect_spans(cfg.ambient, cfg.submodules)
    annihilators = [a for s in cfg.submodules for a in linalg.kernel_mod_p(*s.echelon(), n, p)]
    special = linalg.kernel_mod_p(*linalg.echelon_mod_p(annihilators, p), n, p)
    special = linalg.echelon_mod_p(special, p)[0]
    generic_dim, special_dim = generic.rank, len(special)
    r0 = max(n - c, 0)
    if c > n:
        kind = Properness.EMPTY_INTERSECTION if special_dim == 0 else Properness.IMPROPER
    elif generic_dim != r0 or special_dim > r0 + 1:
        kind = Properness.IMPROPER
    elif c < n:
        kind = Properness.PROPER_HIGHER_DIM
    else:
        kind = Properness.PROPER_0DIM if special_dim else Properness.EMPTY_INTERSECTION
    analysis = CycleAnalysis(
        submodules=cfg.submodules,
        generic=generic,
        special=tuple(tuple(r) for r in special),
        properness=PropernessReport(kind=kind, r0=r0, generic_dim=generic_dim, special_dim=special_dim),
        number=cfg.ambient.ctx.val(det) if det else None,
    )
    object.__setattr__(cfg, "_analysis", analysis)
    return analysis


def _require(report: PropernessReport, *kinds) -> None:
    if report.kind not in kinds:
        raise ProperFail(f"configuration is {report.kind.value}")


def properness_check(cfg: CycleConfiguration) -> PropernessReport:
    """Classify the configuration by its generic and special intersections
    (see :func:`analyze`)."""
    return analyze(cfg).properness


def vertex_family(cfg: CycleConfiguration) -> VertexFamily:
    """Family generated by the partial intersections L_j of all cycles but one.

    Only defined when the codimensions sum to n and the configuration is
    proper (possibly with empty special-fibre intersection); each L_j then
    has rank n - r_j and their direct sum is all of V.
    """
    if cfg.codim_sum() != cfg.ambient.dim:
        raise ProperFail("codimensions do not sum to the dimension")
    analysis = analyze(cfg)
    _require(analysis.properness, Properness.PROPER_0DIM, Properness.EMPTY_INTERSECTION)
    return VertexFamily(cfg.ambient, analysis.partials)


def _family_transition(lattice: LatticeBasis, family: VertexFamily):
    """T = F^{-1} M^{-1} L, the transition from the concatenated generator
    basis F (in coordinates of the ambient M) to the lattice L, and T^{-1},
    the transition from L to the all-zero member M F.  At L = M, T is the
    inverse the family kept when it checked F."""
    f = linalg.transpose(family.concatenated_columns())
    if lattice == family.ambient:
        return family._inverse, f
    mf, rows = linalg.matmul(family.ambient.rows(), f), lattice.rows()
    return linalg.solve(mf, rows), linalg.solve(rows, mf)


def nearest_family_member(lattice: LatticeBasis, family: VertexFamily):
    """Exact distance from the lattice class to the family's vertices, with
    the exponents (normalized to min 0) of a member at that distance.

    Let T be the transition of :func:`_family_transition`, with rows grouped
    by generator block a.  Let V_a be the minimal valuation of the
    entries in T's rows of block a and U_a that of the entries in the columns
    of T^{-1} of block a.  The member with exponents k has transition
    A = D_k^{-1} T, D_k = diag(p^{k_a}) blockwise.  The extreme invariant
    exponents of A are min val(A) and -min val(A^{-1}) (see
    :func:`btpgl.building.dist`), and A^{-1} = T^{-1} D_k, so

        dist(k) = max_a (k_a - V_a) + max_a (-U_a - k_a).

    For every block b the first maximum is >= k_b - V_b and the second is
    >= -U_b - k_b, so dist(k) >= -(V_b + U_b).  At k = V the first maximum
    is 0 and the second is max_a -(V_a + U_a), so the minimum over all
    members is max_a -(V_a + U_a), attained at k = V.
    """
    p = family.ambient.ctx.p
    t, t_inv = _family_transition(lattice, family)
    ends = [0, *accumulate(g.rank for g in family.generators)]
    blocks = [slice(a, b) for a, b in zip(ends, ends[1:])]
    v = [_min_val(p, t[block]) for block in blocks]
    u = [_min_val(p, (row[block] for row in t_inv)) for block in blocks]
    lo = min(v)
    return max(-(va + ua) for va, ua in zip(v, u)), tuple(va - lo for va in v)


def distance_to_family(lattice: LatticeBasis, family: VertexFamily) -> int:
    """Exact distance from the lattice class to the family (closed form)."""
    return nearest_family_member(lattice, family)[0]


def _window(reference: LatticeBasis, family: VertexFamily):
    """The number of keys of :func:`family_window_keys`, (S+1)^m - S^m with
    S = 2*B0 (distinct tuples are distinct classes), and a function that
    builds them.  B0 is dist(0) of :func:`nearest_family_member`,
    -(min V + min U), and T^{-1} is the transition to the all-zero member.
    The tuples are listed by the position i of their first 0, entries
    before it in [1, S] and after it in [0, S], so each comes once and none
    of the S^m tuples without a 0 is visited."""
    p = reference.ctx.p
    t, t_inv = _family_transition(reference, family)
    s = -2 * (_min_val(p, t) + _min_val(p, t_inv))
    ranks = [g.rank for g in family.generators]
    m = len(ranks)
    window = (
        (*head, 0, *tail)
        for i in range(m)
        for head in product(range(1, s + 1), repeat=i)
        for tail in product(range(s + 1), repeat=m - 1 - i)
    )
    return (s + 1) ** m - s**m, lambda: block_scaled_keys(p, t_inv, t, ranks, window)


def family_window_keys(reference: LatticeBasis, family: VertexFamily):
    """Class keys of every family member in the exactness window around the
    reference, for use as a BFS target set.  With B0 the distance to the
    all-zero member, a member's distance to it is its exponent spread, so
    every nearest member has spread at most S = 2*B0: up to homothety, a
    tuple in [0, S]^m that contains 0.  The whole window is enumerated, and
    a window of more keys than the enumeration cap raises
    EnumerationTooLarge before any key is built.  Each member is the
    all-zero member with its generator blocks scaled: that one member is
    keyed from its transition, and every other member by one triangular
    step from a member with one exponent less (:func:`block_scaled_keys`)."""
    size, keys = _window(reference, family)
    cap = enumeration_cap()
    if size > cap:
        raise EnumerationTooLarge(f"a family window of {size} keys exceeds the cap of {cap}")
    return keys()


def family_bfs_distance(reference: LatticeBasis, family: VertexFamily, radius_cap: int) -> int | None:
    """BFS distance from the reference's class to the family, or None beyond
    radius_cap: the independent oracle for :func:`distance_to_family`.  The
    targets are the keys of :func:`family_window_keys`, and a search that may
    compute more class keys than the enumeration cap, those targets counted,
    raises EnumerationTooLarge before any key is built."""
    size, keys = _window(reference, family)
    _check_search_size(reference.dim, reference.ctx.p, radius_cap, size)
    return bfs_dist(reference, reference, keys(), radius_cap)


def realized_forms(cfg: CycleConfiguration):
    """Primitive forms cutting out each cycle as an intersection of hyperplanes.

    For a cycle N of rank r they are :meth:`SplitSubmodule.forms`, an R-basis
    of Phi, the integral forms that vanish on N; each holds a unit.  The
    determinant valuation of the assembled matrix does not depend on that
    basis.  Complete N's basis to a basis u_1..u_n of the lattice (N is
    split), with dual basis u^1..u^n.  A form f in Phi is sum_i f(u_i) u^i
    with f(u_i) = 0 for i <= r and f(u_i) in R, so u^{r+1}..u^n is a basis of
    Phi.  Two bases of Phi thus differ by a matrix in GL_{n-r}(R), and
    changing one cycle's block multiplies the determinant by a unit.
    """
    return [DualForm._trusted(cfg.ambient, f) for s in cfg.submodules for f in s.forms()]


def verify_intersection_identity(cfg: CycleConfiguration) -> IdentityReport:
    """Check that the algebraic intersection number equals the distance from
    the model's vertex to the vertex family of partial intersections.

    The left side is val det A (:attr:`CycleAnalysis.number`), A the
    stacked forms; the right side is the exact family distance.  Both are
    computed independently.  Building the family first raises ProperFail
    unless the codimensions sum to n and the configuration is proper.

    Why they agree.  Here c = n, so A is the matrix that
    :attr:`CycleAnalysis.complements` inverts; generator a
    is S_a = (A^{-1})_a G_a, block a of A^{-1} saturated, G_a invertible.
    In :func:`nearest_family_member`, T^{-1} = F = A^{-1} G and T = G^{-1} A.
    A matrix B with a unit maximal minor, in rows or columns, keeps the least
    entry valuation of what it multiplies: val(C B) >= val C, and on the
    unit minor's columns C B_K is C times an element of GL(R).  S_a is
    saturated, so U_a = min val S_a = 0.  A_a, an R-basis of its cycle's
    forms, has a unit minor, so V_a = min val G_a^{-1} A_a = min val G_a^{-1};
    so does S_a, so that is min val S_a G_a^{-1} = min val (A^{-1})_a.  So
    rhs = max_a -(V_a + U_a) = -min val A^{-1}.  As A^{-1} = adj(A)/det A,
    -min val A^{-1} = val det A - min val adj(A) = lhs - min val adj(A),
    and the two agree iff some (n-1)-minor of A is a unit, iff
    rank(A mod p) >= n - 1.  The special intersection is ker(A mod p), so
    rank(A mod p) = n - 1 on a PROPER_0DIM configuration, and n on an empty
    one.  tests/test_cycles.py::test_identity_witness_is_the_inverse_form_matrix
    checks rhs = -min val A^{-1} = lhs on seeded draws.  This function keeps
    computing rhs from the family, so that it checks the building side.
    """
    family = vertex_family(cfg)
    lhs = analyze(cfg).number
    rhs = distance_to_family(cfg.ambient, family)
    return IdentityReport(lhs=lhs, rhs=rhs, agree=lhs == rhs, properness=properness_check(cfg))


def apartment_distance_report(forms) -> ApartmentReport:
    """Distance from the model's vertex to the apartment of the generic-fibre
    hyperplanes, next to the intersection number of the forms.

    The two agree when the forms meet properly on the whole model; when they
    meet properly only on the generic fibre the distance can be strictly
    smaller (it is the largest diagonal valuation after triangularization,
    while the intersection number is the sum).
    """
    forms = list(forms)
    if not forms or len(forms) != forms[0].ambient.dim:
        raise ValueError(f"need exactly n forms, got {len(forms)}")
    cfg = CycleConfiguration(forms[0].ambient, [hyperplane_kernel(f) for f in forms])
    analysis = analyze(cfg)
    if analysis.number is None:
        raise ImproperGenericIntersection("coefficient matrix is singular")
    dist = distance_to_family(cfg.ambient, VertexFamily(cfg.ambient, analysis.partials))
    return ApartmentReport(dist_to_apartment=dist, intersection_number=analysis.number)


def higherdim_vertex_family(cfg: CycleConfiguration, complements=None) -> VertexFamily:
    """Family generated by complements of the common intersection inside each
    partial intersection, with the common intersection as the last generator.

    The complements default to the analysis's own (see
    :attr:`CycleAnalysis.complements`); any valid choice of complements may
    be supplied instead.
    """
    analysis = analyze(cfg)
    _require(analysis.properness, Properness.PROPER_HIGHER_DIM)
    l0 = analysis.generic
    if complements is None:
        comps = analysis.complements
    else:
        comps = list(complements)
        if len(comps) != len(cfg.submodules):
            raise ValueError("need one complement per cycle")
        for lj, comp in zip(analysis.partials, comps):
            combined = SplitSubmodule(cfg.ambient, tuple(l0.columns) + tuple(comp.columns))
            if not same_submodule(combined, lj):
                raise ValueError("supplied complement does not complement the intersection")
    return VertexFamily(cfg.ambient, (*comps, l0))


def decompose_intersection(cfg: CycleConfiguration, complements=None) -> CycleDecomposition:
    """Intersection cycle of cycles meeting properly in positive dimension.

    The generic component is the saturation of the common K-intersection and
    always has multiplicity one.  The special component is the common
    intersection of the reductions over F_p; it carries the distance from the
    model's vertex to the complement family as its multiplicity, which does
    not depend on the choice of complements.
    """
    family = higherdim_vertex_family(cfg, complements)
    analysis = analyze(cfg)
    return CycleDecomposition(
        generic_component=analysis.generic,
        generic_multiplicity=1,
        special_component=analysis.special,
        special_multiplicity=distance_to_family(cfg.ambient, family),
    )


# ---------------------------------------------------------------------------
# seeded random instances for verification campaigns

MODES = ("hyperplanes", "submodules", "higherdim")


def _random_scalar(rng: random.Random, p: int, max_val: int) -> Fraction:
    """Entry sampler: zero sometimes, otherwise a unit times a p-power whose
    exponent is geometric with cutoff max_val."""
    if rng.random() < 0.15:
        return Fraction(0)
    e = 0
    while e < max_val and rng.random() < 0.45:
        e += 1
    u = rng.randrange(1, 3 * p)
    while u % p == 0:
        u = rng.randrange(1, 3 * p)
    if rng.random() < 0.5:
        u = -u
    return Fraction(u * p**e)


def _random_form(rng: random.Random, ambient: LatticeBasis, max_val: int) -> DualForm:
    ctx = ambient.ctx
    while True:
        coeffs = [_random_scalar(rng, ctx.p, max_val) for _ in range(ambient.dim)]
        if not any(coeffs):
            continue
        shift = min(ctx.val(c) for c in coeffs if c)
        scale = Fraction(ctx.p) ** shift
        return DualForm(ambient, tuple(c / scale for c in coeffs))


def _random_split(rng: random.Random, ambient: LatticeBasis, rank: int, max_val: int) -> SplitSubmodule:
    ctx = ambient.ctx
    while True:
        vecs = [
            [_random_scalar(rng, ctx.p, max_val) for _ in range(ambient.dim)]
            for _ in range(rank)
        ]
        sat = saturate_coords(ambient, vecs)
        if sat.rank == rank:
            return sat


def _compositions(total: int, parts: int, n: int):
    """All tuples of `parts` codimensions in [1, n-1] summing to `total`."""
    if parts == 1:
        return [(total,)] if 1 <= total <= n - 1 else []
    out = []
    for first in range(1, n):
        if first < total:
            out.extend((first,) + rest for rest in _compositions(total - first, parts - 1, n))
    return out


def random_instance(
    seed: int,
    n: int,
    p: int,
    d: int,
    max_val: int,
    mode: str,
    max_attempts: int = 2000,
) -> InstanceSample:
    """Deterministic seeded configuration of the requested properness class.

    Rejection-samples until the properness check passes: hyperplane and
    submodule modes produce proper zero-dimensional configurations, higherdim
    mode produces proper positive-dimensional ones.  The rejection count is
    reported alongside the instance.
    """
    if not 2 <= n <= 5:
        raise ValueError("n must be between 2 and 5")
    if not 2 <= d <= n:
        raise ValueError("d must be between 2 and n")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == "hyperplanes" and d != n:
        raise ValueError("hyperplane mode needs d == n")
    if mode == "higherdim" and d >= n:
        raise ValueError("higherdim mode needs d < n")
    ctx = PAdicContext(p)
    ambient = LatticeBasis.standard(ctx, n)
    rng = random.Random(seed)
    target = Properness.PROPER_HIGHER_DIM if mode == "higherdim" else Properness.PROPER_0DIM
    rejections = 0
    for _ in range(max_attempts):
        forms = None
        if mode == "hyperplanes":
            forms = tuple(_random_form(rng, ambient, max_val) for _ in range(n))
            subs = [hyperplane_kernel(f) for f in forms]
        else:
            total = n if mode == "submodules" else rng.randrange(d, n)
            codims = rng.choice(_compositions(total, d, n))
            subs = [_random_split(rng, ambient, n - m, max_val) for m in codims]
        try:
            cfg = CycleConfiguration(ambient, subs)
        except ValueError:
            rejections += 1
            continue
        if properness_check(cfg).kind is target:
            return InstanceSample(config=cfg, forms=forms, rejections=rejections)
        rejections += 1
    raise GenerationExhausted(f"no {target.value} instance after {max_attempts} attempts")
