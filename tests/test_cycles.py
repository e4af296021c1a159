import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import Matrix, Rational

from btpgl import cycles, linalg
from btpgl.building import bfs_dist, class_key, dist
from btpgl.cycles import (
    MODES,
    CycleConfiguration,
    Properness,
    VertexFamily,
    analyze,
    apartment_distance_report,
    decompose_intersection,
    distance_to_family,
    family_bfs_distance,
    family_window_keys,
    higherdim_vertex_family,
    hyperplane_kernel,
    intersect_hyperplanes,
    nearest_family_member,
    properness_check,
    random_instance,
    realized_forms,
    verify_intersection_identity,
    vertex_family,
)
from btpgl.errors import (
    EnumerationTooLarge,
    GenerationExhausted,
    ImproperGenericIntersection,
    ProperFail,
)
from btpgl.lattices import (
    DualForm,
    LatticeBasis,
    SplitSubmodule,
    is_split,
    same_submodule,
    saturate_coords,
    transform_dual_form,
)
from btpgl.padic import PAdicContext

from helpers import (
    apply_automorphism,
    count_eliminations,
    echeloned_special_fold,
    evaluate_coords,
    family_profile,
    fraction_det,
    fraction_inv,
    member_lattice,
    member_window_keys,
    random_lattice,
    random_unimodular,
    rebase,
    right_multiply,
    scan_distance_to_family,
    search_key_bound,
    smith_dist,
    sympy_invariant_exponents,
)

ctx2 = PAdicContext(2)
ctx3 = PAdicContext(3)


def std(ctx, n):
    return LatticeBasis.standard(ctx, n)


def coordinate_forms(ctx, n):
    lattice = std(ctx, n)
    return lattice, [
        DualForm(lattice, tuple(1 if i == j else 0 for i in range(n))) for j in range(n)
    ]


def geodesic_pair(p, m):
    ctx = PAdicContext(p)
    lattice = std(ctx, 2)
    f1 = DualForm(lattice, (1, 0))
    f2 = DualForm(lattice, (1, p**m))
    return lattice, (f1, f2)


def config_from_forms(lattice, forms):
    return CycleConfiguration(lattice, [hyperplane_kernel(f) for f in forms])


def worked_family(p, m):
    """Two planes in 3-space meeting in a line, off by p^m on the third axis."""
    ctx = PAdicContext(p)
    lattice = std(ctx, 3)
    n1 = SplitSubmodule(lattice, [(1, 0, 0), (0, 1, 0)])
    n2 = SplitSubmodule(lattice, [(1, 0, 0), (0, 1, p**m)])
    return CycleConfiguration(lattice, [n1, n2])


def test_hyperplane_kernel_examples():
    lattice = std(ctx2, 3)
    f = DualForm(lattice, (1, 0, 0))
    ker = hyperplane_kernel(f)
    assert same_submodule(ker, SplitSubmodule(lattice, [(0, 1, 0), (0, 0, 1)]))

    lattice2 = std(ctx2, 2)
    ker2 = hyperplane_kernel(DualForm(lattice2, (1, 2)))
    assert same_submodule(ker2, SplitSubmodule(lattice2, [(-2, 1)]))

    lattice3 = std(ctx3, 3)
    ker3 = hyperplane_kernel(DualForm(lattice3, (0, 1, 3)))
    assert same_submodule(ker3, SplitSubmodule(lattice3, [(1, 0, 0), (0, -3, 1)]))
    assert is_split(ker3)


def _form_entry(rng, p, unit):
    """u * p^k / d with u and d prime to p: a unit when asked, else zero or
    p-divisible."""
    if not unit and rng.random() < 0.3:
        return Fraction(0)
    u = rng.choice([x for x in range(-2 * p, 2 * p) if x % p])
    k = 0 if unit else rng.randrange(1, 4)
    return Fraction(u * p**k, rng.choice([1, 1, p + 1, 2 * p - 1]))


def test_hyperplane_kernel_is_the_saturated_kernel():
    # the closed form against an elimination: the same module as the
    # saturated nullspace of the form, split, and keeping the form as its
    # forms; the first unit entry takes every position
    rng = random.Random(16)
    for n in range(2, 7):
        for p in (2, 3, 5, 7):
            ctx = PAdicContext(p)
            for j in range(n):
                for trial in range(6):
                    ambient = std(ctx, n) if trial % 2 else random_lattice(rng, ctx, n, 2)
                    coeffs = [_form_entry(rng, p, i == j or (i > j and rng.random() < 0.5)) for i in range(n)]
                    form = DualForm(ambient, tuple(coeffs))
                    ker = hyperplane_kernel(form)
                    assert ker.rank == n - 1 and is_split(ker)
                    assert same_submodule(ker, saturate_coords(ambient, linalg.nullspace([coeffs])))
                    assert ker.forms() == (form.coefficients,)


def test_intersect_hyperplanes_examples():
    lattice, forms = coordinate_forms(ctx3, 3)
    assert intersect_hyperplanes(forms) == 0

    _, pair_forms = geodesic_pair(3, 3)
    assert intersect_hyperplanes(pair_forms) == 3

    lattice2 = std(ctx2, 3)
    f1 = DualForm(lattice2, (1, 0, 0))
    f2 = DualForm(lattice2, (0, 1, 2))
    f3 = DualForm(lattice2, (0, 1, 6))
    assert intersect_hyperplanes([f1, f2, f3]) == 2

    with pytest.raises(ImproperGenericIntersection):
        intersect_hyperplanes([f1, f1, f2])
    # a coefficient vector with no unit entry is not a hyperplane equation
    with pytest.raises(ValueError):
        DualForm(lattice2, (0, 2, 4))


def test_properness_examples():
    lattice, forms = coordinate_forms(ctx2, 3)
    rep = properness_check(config_from_forms(lattice, forms))
    assert rep.kind is Properness.EMPTY_INTERSECTION

    lat2, pair_forms = geodesic_pair(3, 3)
    rep = properness_check(config_from_forms(lat2, pair_forms))
    assert rep.kind is Properness.PROPER_0DIM
    assert (rep.generic_dim, rep.special_dim) == (0, 1)

    rep = properness_check(worked_family(3, 2))
    assert rep.kind is Properness.PROPER_HIGHER_DIM
    assert (rep.r0, rep.generic_dim, rep.special_dim) == (1, 1, 2)

    # repeated hyperplane: improper on the generic fibre as well
    lat3 = std(ctx2, 2)
    f = DualForm(lat3, (1, 2))
    rep = properness_check(CycleConfiguration(lat3, [hyperplane_kernel(f), hyperplane_kernel(f)]))
    assert rep.kind is Properness.IMPROPER


def test_vertex_family_coordinate_case_is_standard_frame():
    lattice, forms = coordinate_forms(ctx3, 3)
    fam = vertex_family(config_from_forms(lattice, forms))
    spans = [tuple(g.columns) for g in fam.generators]
    units = [((0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0))]
    # L_j = intersection of all coordinate hyperplanes but the j-th: the j-th axis
    for g, j in zip(fam.generators, range(3)):
        assert g.rank == 1
        axis = [0, 0, 0]
        axis[j] = 1
        assert same_submodule(g, SplitSubmodule(lattice, [tuple(axis)]))
    assert distance_to_family(lattice, fam) == 0


def test_vertex_family_two_forms_geodesic():
    lattice, forms = geodesic_pair(3, 3)
    fam = vertex_family(config_from_forms(lattice, forms))
    assert same_submodule(fam.generators[0], SplitSubmodule(lattice, [(-27, 1)]))
    assert same_submodule(fam.generators[1], SplitSubmodule(lattice, [(0, 1)]))


def test_vertex_family_requires_zero_dim_properness():
    with pytest.raises(ProperFail):
        vertex_family(worked_family(3, 1))
    lat = std(ctx2, 2)
    f = DualForm(lat, (1, 2))
    with pytest.raises(ProperFail):
        vertex_family(CycleConfiguration(lat, [hyperplane_kernel(f), hyperplane_kernel(f)]))


def test_vertex_family_checks_its_generators_by_their_inverse(monkeypatch):
    lattice = std(ctx3, 3)
    lines = [saturate_coords(lattice, [v]) for v in ((1, 0, 0), (1, 3, 0), (1, 1, 9), (1, 1, 0))]
    with pytest.raises(ValueError, match="^generator spans are not independent$"):
        VertexFamily(lattice, (lines[0], lines[1], lines[3]))
    with pytest.raises(ValueError, match="^generator ranks must sum to the dimension$"):
        VertexFamily(lattice, lines[:2])
    # the inverse that proves the spans independent is the transition at the
    # model, so the distance from the model eliminates nothing more
    fam = VertexFamily(lattice, lines[:3])
    assert fam._inverse == tuple(map(tuple, fraction_inv(linalg.transpose(fam.concatenated_columns()))))
    counts = count_eliminations(monkeypatch)
    distance = distance_to_family(lattice, fam)
    assert counts["eliminations"] == 0
    monkeypatch.undo()
    assert distance == scan_distance_to_family(lattice, fam) == 3


def overdetermined_empty_configs():
    # codimensions summing to more than n, with empty special fibre
    lat2 = std(ctx3, 2)
    lines = config_from_forms(lat2, [DualForm(lat2, c) for c in ((1, 0), (0, 1), (1, 1))])
    lat3 = std(ctx3, 3)
    axes = CycleConfiguration(
        lat3, [SplitSubmodule(lat3, [tuple(1 if i == j else 0 for i in range(3))]) for j in range(3)]
    )
    return lines, axes


def test_verify_requires_codimensions_summing_to_n():
    for cfg in overdetermined_empty_configs():
        assert properness_check(cfg).kind is Properness.EMPTY_INTERSECTION
        with pytest.raises(ProperFail):
            verify_intersection_identity(cfg)


@pytest.mark.parametrize("p,m", [(3, 0), (3, 1), (3, 3), (2, 2), (2, 4)])
def test_distance_to_family_matches_intersection_number(p, m):
    lattice, forms = geodesic_pair(p, m)
    cfg = config_from_forms(lattice, forms)
    fam = vertex_family(cfg)
    assert intersect_hyperplanes(forms) == m
    assert distance_to_family(lattice, fam) == m


def test_distance_to_family_bfs_oracle_small():
    lattice, forms = geodesic_pair(2, 3)
    fam = vertex_family(config_from_forms(lattice, forms))
    keys = family_window_keys(lattice, fam)
    assert bfs_dist(lattice, lattice, keys, 3) == 3


def test_identity_reports():
    lattice, forms = coordinate_forms(ctx2, 3)
    rep = verify_intersection_identity(config_from_forms(lattice, forms))
    assert (rep.lhs, rep.rhs, rep.agree) == (0, 0, True)

    lat2, pair_forms = geodesic_pair(3, 3)
    rep = verify_intersection_identity(config_from_forms(lat2, pair_forms))
    assert (rep.lhs, rep.rhs, rep.agree) == (3, 3, True)


def test_identity_on_seeded_instances():
    for trial in range(12):
        sample = random_instance(seed=300 + trial, n=3, p=2, d=3, max_val=4, mode="hyperplanes")
        rep = verify_intersection_identity(sample.config)
        assert rep.agree
        # the realized-form determinant matches the original forms
        assert rep.lhs == intersect_hyperplanes(sample.forms)


def test_identity_witness_is_the_inverse_form_matrix():
    # for c = n both sides equal -min val(A^{-1}), A the realized-form
    # matrix: the family generators are A^{-1}'s column blocks saturated, so
    # U_a = 0 and V_a = min val of block a of A^{-1}; A^{-1} and det A come
    # from the Fraction oracles, not from the library's kernel
    for n in (2, 3, 4, 5):
        for p in (2, 3, 5):
            for mode in ("hyperplanes", "submodules"):
                for seed in range(1, 41):
                    d = n if mode == "hyperplanes" else 2 + seed % (n - 1)
                    cfg = random_instance(seed=seed, n=n, p=p, d=d, max_val=3, mode=mode).config
                    report = verify_intersection_identity(cfg)
                    a = [list(f.coefficients) for f in realized_forms(cfg)]
                    witness = -min(cfg.ambient.ctx.val(x) for row in fraction_inv(a) for x in row if x)
                    assert witness == report.lhs == report.rhs, (n, p, mode, seed)
                    assert analyze(cfg).number == cfg.ambient.ctx.val(fraction_det(a)), (n, p, mode, seed)


def test_number_is_set_exactly_when_a_is_square_and_nonsingular():
    # val det A at c = n with det A != 0, whatever the properness (0 on the
    # empty intersection); None for a singular A or c != n
    lattice = std(ctx3, 3)
    cases = [
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], Properness.EMPTY_INTERSECTION, 0),
        ([(1, 0, 0), (1, 3, 0), (1, 0, 3)], Properness.IMPROPER, 2),
        ([(1, 2, 0), (1, 2, 0), (0, 1, 1)], Properness.IMPROPER, None),
    ]
    for coeffs, kind, number in cases:
        cfg = CycleConfiguration(lattice, [hyperplane_kernel(DualForm(lattice, c)) for c in coeffs])
        assert (properness_check(cfg).kind, analyze(cfg).number) == (kind, number), coeffs
    cfg = random_instance(seed=1, n=3, p=3, d=2, max_val=3, mode="higherdim").config
    assert analyze(cfg).number is None


def test_realized_forms_cut_out_the_cycles():
    sample = random_instance(seed=5, n=3, p=3, d=2, max_val=3, mode="submodules")
    cfg = sample.config
    forms = realized_forms(cfg)
    assert len(forms) == 3
    i = 0
    for s in cfg.submodules:
        for _ in range(cfg.ambient.dim - s.rank):
            f = forms[i]
            i += 1
            for col in s.columns:
                assert evaluate_coords(f, col) == 0


def test_apartment_report_consistent_case():
    lattice, pair_forms = geodesic_pair(3, 2)
    rep = apartment_distance_report(pair_forms)
    assert rep.dist_to_apartment == rep.intersection_number == 2


def test_apartment_report_strict_gap():
    # triangular coefficient columns with diagonal valuations (0, 1, 1)
    lattice = std(ctx2, 3)
    forms = [
        DualForm(lattice, (1, 0, 0)),
        DualForm(lattice, (1, 2, 0)),
        DualForm(lattice, (1, 2, 2)),
    ]
    rep = apartment_distance_report(forms)
    assert rep.intersection_number == 2
    assert rep.dist_to_apartment == 1
    # cross-check the distance with the BFS oracle over the apartment family
    cfg = CycleConfiguration(lattice, [hyperplane_kernel(f) for f in forms])
    fam = VertexFamily(lattice, analyze(cfg).partials)
    keys = family_window_keys(lattice, fam)
    assert bfs_dist(lattice, lattice, keys, 1) == 1


def test_apartment_report_rejects_bad_forms():
    lattice = std(ctx3, 3)
    with pytest.raises(ValueError):
        apartment_distance_report([])
    with pytest.raises(ValueError):
        apartment_distance_report([DualForm(lattice, (1, 0, 0)), DualForm(lattice, (0, 1, 0))])
    with pytest.raises(ImproperGenericIntersection):
        apartment_distance_report([DualForm(lattice, c) for c in ((1, 2, 0), (1, 2, 0), (0, 1, 1))])


def test_apartment_report_exhaustive_rank_one():
    # primitive 2x2 instances: the gap is always zero on a tree geodesic
    lattice = std(ctx2, 2)
    pool = [0, 1, 2, 3, 4]
    for a in pool:
        for b in pool:
            for c in pool:
                for d in pool:
                    cols = [(a, b), (c, d)]
                    try:
                        forms = [DualForm(lattice, col) for col in cols]
                    except ValueError:
                        continue
                    if linalg.det([[a, c], [b, d]]) == 0:
                        continue
                    rep = apartment_distance_report(forms)
                    assert rep.dist_to_apartment == rep.intersection_number


@pytest.mark.parametrize("p,m,expected", [(3, 2, 2), (3, 1, 1), (3, 0, 0), (2, 3, 3)])
def test_decompose_worked_family(p, m, expected):
    cfg = worked_family(p, m)
    dec = decompose_intersection(cfg)
    assert dec.generic_multiplicity == 1
    assert same_submodule(dec.generic_component, SplitSubmodule(cfg.ambient, [(1, 0, 0)]))
    assert dec.special_multiplicity == expected
    if expected > 0:
        assert len(dec.special_component) == 2
    else:
        assert len(dec.special_component) == 1


def test_decompose_requires_higher_dim():
    lattice, pair_forms = geodesic_pair(3, 1)
    with pytest.raises(ProperFail):
        decompose_intersection(config_from_forms(lattice, pair_forms))


def test_decompose_choice_independence_spot():
    cfg = worked_family(3, 2)
    base = decompose_intersection(cfg)
    # complement vectors perturbed by elements of the common intersection
    l0_col = (1, 0, 0)
    variants = [
        [
            SplitSubmodule(cfg.ambient, [(0, 1, 9)]),
            SplitSubmodule(cfg.ambient, [(0, 1, 0)]),
        ],
        [
            SplitSubmodule(cfg.ambient, [(3, 1, 9)]),
            SplitSubmodule(cfg.ambient, [(1, 1, 0)]),
        ],
        [
            SplitSubmodule(cfg.ambient, [(-2, 1, 9)]),
            SplitSubmodule(cfg.ambient, [(7, 1, 0)]),
        ],
    ]
    for comps in variants:
        dec = decompose_intersection(cfg, complements=comps)
        assert dec.special_multiplicity == base.special_multiplicity


def test_decompose_rejects_bad_complement():
    cfg = worked_family(3, 2)
    bad = [
        SplitSubmodule(cfg.ambient, [(0, 1, 0)]),  # not a complement inside L_1
        SplitSubmodule(cfg.ambient, [(0, 1, 0)]),
    ]
    with pytest.raises(ValueError):
        decompose_intersection(cfg, complements=bad)


def test_empty_intersection_distance_is_zero():
    lattice, forms = coordinate_forms(ctx3, 3)
    cfg = config_from_forms(lattice, forms)
    assert properness_check(cfg).kind is Properness.EMPTY_INTERSECTION
    assert distance_to_family(lattice, vertex_family(cfg)) == 0


def test_invariance_spot_checks():
    rng = random.Random(71)
    lattice, pair_forms = geodesic_pair(3, 2)
    cfg = config_from_forms(lattice, pair_forms)
    base = verify_intersection_identity(cfg)

    # (a) common automorphism via the dual-form transform
    u = random_unimodular(rng, 2, 3)
    transformed = [transform_dual_form(u, f) for f in pair_forms]
    assert intersect_hyperplanes(transformed) == base.lhs
    cfg_t = config_from_forms(lattice, transformed)
    rep_t = verify_intersection_identity(cfg_t)
    assert (rep_t.lhs, rep_t.rhs) == (base.lhs, base.rhs)

    # (b) unit scaling of a form
    scaled = [pair_forms[0], DualForm(lattice, tuple(Fraction(5, 7) * a for a in pair_forms[1].coefficients))]
    assert intersect_hyperplanes(scaled) == base.lhs

    # (c) p-power scaling of a family generator
    fam = vertex_family(cfg)
    g0 = fam.generators[0]
    scaled_gen = SplitSubmodule(lattice, [tuple(3 * x for x in c) for c in g0.columns])
    fam2 = VertexFamily(lattice, (scaled_gen,) + fam.generators[1:])
    assert distance_to_family(lattice, fam2) == base.rhs

    # (d) permutation of cycles
    for perm in permutations(range(2)):
        permuted = config_from_forms(lattice, [pair_forms[i] for i in perm])
        assert verify_intersection_identity(permuted).lhs == base.lhs


def test_rebase_and_automorphism_invariance():
    rng = random.Random(73)
    cfg = worked_family(3, 2)
    base = decompose_intersection(cfg).special_multiplicity
    for _ in range(5):
        u = random_unimodular(rng, 3, 3)
        assert decompose_intersection(rebase(cfg, u)).special_multiplicity == base
        assert decompose_intersection(apply_automorphism(cfg, u)).special_multiplicity == base


def test_random_instance_contracts():
    a = random_instance(seed=1, n=2, p=3, d=2, max_val=4, mode="hyperplanes")
    b = random_instance(seed=1, n=2, p=3, d=2, max_val=4, mode="hyperplanes")
    assert a.config.submodules == b.config.submodules
    assert a.forms == b.forms
    assert properness_check(a.config).kind is Properness.PROPER_0DIM

    s = random_instance(seed=7, n=3, p=2, d=2, max_val=4, mode="submodules")
    assert properness_check(s.config).kind is Properness.PROPER_0DIM
    assert s.forms is None

    h = random_instance(seed=9, n=3, p=3, d=2, max_val=4, mode="higherdim")
    rep = properness_check(h.config)
    assert rep.kind is Properness.PROPER_HIGHER_DIM
    assert rep.r0 >= 1

    with pytest.raises(GenerationExhausted):
        random_instance(seed=1, n=2, p=3, d=2, max_val=4, mode="hyperplanes", max_attempts=0)
    with pytest.raises(ValueError):
        random_instance(seed=1, n=3, p=3, d=2, max_val=4, mode="hyperplanes")
    with pytest.raises(ValueError):
        random_instance(seed=1, n=3, p=3, d=3, max_val=4, mode="higherdim")
    with pytest.raises(ValueError):
        random_instance(seed=1, n=6, p=3, d=2, max_val=4, mode="submodules")


def test_family_member_distances_match_formula():
    # the oracle's minor-valuation evaluator agrees with the invariant-factor
    # distance on individual family members, including non-ambient references
    rng = random.Random(19)
    for p in (2, 3):
        for trial in range(6):
            sample = random_instance(seed=40 + trial, n=3, p=p, d=3, max_val=3, mode="hyperplanes")
            fam = vertex_family(sample.config)
            lattices = [
                sample.config.ambient,
                sample.config.ambient.scale(Fraction(p) ** 2),
                right_multiply(sample.config.ambient, random_unimodular(rng, 3, p)),
            ]
            for lattice in lattices:
                profile = family_profile(lattice, fam)
                for _ in range(6):
                    kvec = tuple(rng.randrange(-2, 3) for _ in fam.generators)
                    member = member_lattice(fam, kvec)
                    assert profile.distance(kvec) == dist(lattice, member)


def _family_of(sample):
    if properness_check(sample.config).kind is Properness.PROPER_HIGHER_DIM:
        return higherdim_vertex_family(sample.config)
    return vertex_family(sample.config)


def _moved_lattice(rng, ambient, p):
    """The ambient lattice moved by a random unimodular times p-power diagonal."""
    n = ambient.dim
    diag = [[Fraction(p) ** rng.randrange(0, 4) if i == j else 0 for j in range(n)] for i in range(n)]
    return right_multiply(ambient, linalg.matmul(random_unimodular(rng, n, p), diag))


def _check_closed_form(lattice, fam):
    distance, witness = nearest_family_member(lattice, fam)
    assert distance_to_family(lattice, fam) == distance == scan_distance_to_family(lattice, fam)
    assert min(witness) == 0
    assert smith_dist(lattice, member_lattice(fam, witness)) == distance


@settings(deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    p=st.sampled_from([2, 3, 5]),
    mode=st.sampled_from(MODES),
    seed=st.integers(min_value=0, max_value=10**6),
    reference=st.sampled_from(["ambient", "scaled", "moved"]),
)
def test_closed_form_family_distance_matches_scan(n, p, mode, seed, reference):
    if mode == "higherdim" and n == 2:
        mode = "submodules"
    if mode == "hyperplanes":
        d = n
    elif mode == "submodules":
        d = 2 + seed % (n - 1)
    else:
        d = 2 + seed % (n - 2)
    sample = random_instance(seed=seed, n=n, p=p, d=d, max_val=3, mode=mode)
    ambient = sample.config.ambient
    rng = random.Random(seed)
    lattice = {
        "ambient": ambient,
        "scaled": ambient.scale(Fraction(p) ** rng.randrange(-2, 3)),
        "moved": _moved_lattice(rng, ambient, p),
    }[reference]
    _check_closed_form(lattice, _family_of(sample))


@settings(deadline=None, max_examples=50)
@given(
    n=st.integers(min_value=2, max_value=3),
    p=st.sampled_from([2, 3]),
    mode=st.sampled_from(MODES),
    seed=st.integers(min_value=0, max_value=10**6),
    moved=st.booleans(),
)
def test_family_distance_matches_bfs(n, p, mode, seed, moved):
    # the closed form against the BFS oracle over the window key set, from
    # the ambient lattice or one moved by a unimodular times a p-power
    # diagonal; distances up to 3
    if mode == "higherdim" and n == 2:
        mode = "submodules"
    sample = random_instance(seed=seed, n=n, p=p, d=n if mode == "hyperplanes" else 2, max_val=3, mode=mode)
    fam = _family_of(sample)
    lattice = sample.config.ambient
    if moved:
        rng = random.Random(seed)
        diag = [[Fraction(p) ** rng.randrange(0, 2) if i == j else 0 for j in range(n)] for i in range(n)]
        lattice = right_multiply(lattice, linalg.matmul(random_unimodular(rng, n, p), diag))
    distance = distance_to_family(lattice, fam)
    assume(distance <= 3)
    assert bfs_dist(lattice, lattice, family_window_keys(lattice, fam), distance) == distance


@settings(deadline=None, max_examples=60, derandomize=True)
@given(
    n=st.integers(min_value=2, max_value=4),
    p=st.sampled_from([2, 3, 5]),
    mode=st.sampled_from(MODES),
    seed=st.integers(min_value=0, max_value=10**6),
    reference=st.sampled_from(["ambient", "scaled", "moved"]),
)
def test_family_window_keys_match_member_keys(n, p, mode, seed, reference):
    # the keys from one block-scaled integer transition against one member
    # lattice and one class key per window member
    if mode == "higherdim" and n == 2:
        mode = "submodules"
    sample = random_instance(seed=seed, n=n, p=p, d=n if mode == "hyperplanes" else 2, max_val=2, mode=mode)
    fam = _family_of(sample)
    ambient = sample.config.ambient
    rng = random.Random(seed)
    lattice = {
        "ambient": ambient,
        "scaled": ambient.scale(Fraction(p) ** rng.randrange(-2, 3)),
        "moved": _moved_lattice(rng, ambient, p),
    }[reference]
    assert family_window_keys(lattice, fam) == member_window_keys(lattice, fam)


def test_family_bfs_distance_refuses_before_building_a_key(monkeypatch):
    # the search bound counts the window's (2*B0 + 1)^m - (2*B0)^m = 61
    # target classes, and a search beyond the cap is refused before any key
    # is built, although the window alone would fit it
    sample = random_instance(seed=3, n=3, p=2, d=3, max_val=3, mode="hyperplanes")
    fam = vertex_family(sample.config)
    ambient = sample.config.ambient
    distance = distance_to_family(ambient, fam)
    bound = search_key_bound(3, 2, distance, len(family_window_keys(ambient, fam)))
    assert (distance, bound) == (2, 272)
    monkeypatch.setenv("BTPGL_ENUM_CAP", str(bound))
    assert family_bfs_distance(ambient, fam, distance) == distance

    def no_keys(*args):
        raise AssertionError("a window key was built past the cap")

    monkeypatch.setattr(cycles, "block_scaled_keys", no_keys)
    monkeypatch.setenv("BTPGL_ENUM_CAP", str(bound - 1))
    with pytest.raises(EnumerationTooLarge):
        family_bfs_distance(ambient, fam, distance)


def test_family_bfs_distance_on_higherdim_families():
    # the BFS against the closed form on complement families at the model,
    # with positive special multiplicities at n = 3, 4 and 5
    positive = []
    for n, p, d, seeds in ((3, 2, 2, 40), (3, 3, 2, 40), (4, 2, 3, 20), (5, 2, 2, 9), (5, 3, 3, 6)):
        for seed in range(1, seeds + 1):
            cfg = random_instance(seed=seed, n=n, p=p, d=d, max_val=3, mode="higherdim").config
            fam = higherdim_vertex_family(cfg)
            m = distance_to_family(cfg.ambient, fam)
            assert family_bfs_distance(cfg.ambient, fam, m) == m
            assert family_bfs_distance(cfg.ambient, fam, m + 1) == m
            if m:
                assert family_bfs_distance(cfg.ambient, fam, m - 1) is None
                positive.append(n)
    assert [positive.count(n) for n in (3, 4, 5)] == [10, 8, 2]


def test_closed_form_seeded_sweep():
    # larger cases than the property test: n=5 in every mode and higherdim
    # with three cycles; the seeds give a positive distance from the ambient
    rng = random.Random(23)
    cases = [
        (97, 5, 2, "hyperplanes", 5),
        (97, 5, 2, "submodules", 5),
        (122, 5, 2, "higherdim", 2),
        (98, 5, 3, "hyperplanes", 5),
        (98, 5, 3, "submodules", 5),
        (101, 5, 3, "higherdim", 2),
        (100, 4, 3, "higherdim", 3),
        (109, 5, 5, "higherdim", 3),
        (97, 5, 2, "submodules", 3),
    ]
    for seed, n, p, mode, d in cases:
        sample = random_instance(seed=seed, n=n, p=p, d=d, max_val=3, mode=mode)
        fam = _family_of(sample)
        ambient = sample.config.ambient
        assert distance_to_family(ambient, fam) > 0
        for lattice in (ambient, _moved_lattice(rng, ambient, p)):
            _check_closed_form(lattice, fam)


def test_distance_at_the_model_is_the_distance_to_the_zero_member():
    # at the model's vertex M every generator is split, so U_a = 0 for every
    # block and the closed form is -min_a V_a: the largest invariant exponent
    # of the all-zero member F against M, whose least one is 0 (F is integral
    # with primitive columns); so the family distance is the spread of the
    # invariant exponents of M against F
    counts = {"families": 0, "positive": 0, "scanned": 0}
    for n in (2, 3, 4, 5):
        for p in (2, 3, 5):
            for mode in MODES:
                if mode == "higherdim" and n == 2:
                    continue
                for seed in range(1, 9):
                    if mode == "hyperplanes":
                        d = n
                    elif mode == "submodules":
                        d = 2 + seed % (n - 1)
                    else:
                        d = 2 + seed % (n - 2)
                    sample = random_instance(seed=seed, n=n, p=p, d=d, max_val=3, mode=mode)
                    fam = _family_of(sample)
                    ambient = sample.config.ambient
                    m = len(fam.generators)
                    distance = distance_to_family(ambient, fam)
                    assert distance == smith_dist(ambient, member_lattice(fam, (0,) * m))
                    counts["families"] += 1
                    counts["positive"] += distance > 0
                    # the scan oracle, where its window is small
                    if (2 * distance + 1) ** m <= 2000:
                        assert scan_distance_to_family(ambient, fam) == distance
                        counts["scanned"] += 1
    assert counts == {"families": 264, "positive": 194, "scanned": 249}


def test_family_distance_bfs_oracle_triangle():
    # family distances at most 4 agree with BFS against the window key set
    checked = 0
    for p in (2, 3):
        for trial in range(6):
            sample = random_instance(seed=60 + trial, n=3, p=p, d=3, max_val=3, mode="hyperplanes")
            rep = verify_intersection_identity(sample.config)
            if rep.rhs > 4:
                continue
            fam = vertex_family(sample.config)
            keys = family_window_keys(sample.config.ambient, fam)
            assert bfs_dist(sample.config.ambient, sample.config.ambient, keys, rep.rhs) == rep.rhs
            checked += 1
    assert checked >= 8


def test_special_component_dimension_on_random_instances():
    # whenever the special multiplicity is positive, the special component is
    # one dimension bigger than the generic one
    for p in (2, 3):
        for trial in range(10):
            sample = random_instance(seed=80 + trial, n=4, p=p, d=2, max_val=3, mode="higherdim")
            rep = properness_check(sample.config)
            dec = decompose_intersection(sample.config)
            assert dec.generic_component.rank == rep.r0
            if dec.special_multiplicity > 0:
                assert len(dec.special_component) == rep.r0 + 1
            else:
                assert len(dec.special_component) == rep.r0


def test_special_fold_of_raw_reductions_matches_echeloned_fold():
    # the reduced echelon form of a subspace is unique, so folding the raw
    # reductions gives the same special intersection as echeloning each
    # cycle's reduction first, on raw draws of every properness kind
    rng = random.Random(31)
    kinds = set()
    for trial in range(240):
        p = rng.choice([2, 3, 5])
        ctx = PAdicContext(p)
        n = rng.randrange(2, 6)
        ambient = std(ctx, n) if trial % 2 else random_lattice(rng, ctx, n, 3)
        subs = [
            cycles._random_split(rng, ambient, rng.randrange(1, n), rng.randrange(0, 4))
            for _ in range(rng.randrange(2, n + 2))
        ]
        cfg = CycleConfiguration(ambient, subs)
        analysis = analyze(cfg)
        assert analysis.special == echeloned_special_fold(cfg)
        assert analysis.properness.special_dim == len(analysis.special)
        kinds.add(analysis.properness.kind)
    assert kinds == set(Properness)


def test_cycle_configuration_validation():
    lattice = std(ctx2, 2)
    full = SplitSubmodule(lattice, [(1, 0), (0, 1)])
    line = SplitSubmodule(lattice, [(1, 0)])
    with pytest.raises(ValueError):
        CycleConfiguration(lattice, [line])
    with pytest.raises(ValueError):
        CycleConfiguration(lattice, [full, line])
    with pytest.raises(ValueError):
        CycleConfiguration(lattice, [line, SplitSubmodule(lattice, [(2, 0)])])


def _reduced_points(sub):
    """The points of F_p^n in the reduced span of a cycle."""
    p = sub.ambient.ctx.p
    cols = [[x.numerator * pow(x.denominator, -1, p) % p for x in c] for c in sub.columns]
    return {
        tuple(sum(a * col[i] for a, col in zip(coeffs, cols)) % p for i in range(sub.ambient.dim))
        for coeffs in product(range(p), repeat=len(cols))
    }


def _oracle_properness(cfg):
    """(kind, generic_dim, special_dim) by the classification of
    :func:`analyze`'s docstring, with the special dimension counted as the
    points of F_p^n in every reduced span and the generic one from a sympy
    rank over Q of the forms of the spans."""
    n, p = cfg.ambient.dim, cfg.ambient.ctx.p
    points = len(set.intersection(*(_reduced_points(s) for s in cfg.submodules)))
    special_dim = next(k for k in range(n + 1) if p**k == points)
    forms = []
    for s in cfg.submodules:
        forms += Matrix([[Rational(x.numerator, x.denominator) for x in c] for c in s.columns]).nullspace()
    generic_dim = n - Matrix.hstack(*forms).rank()
    c = cfg.codim_sum()
    r0 = max(n - c, 0)
    if c > n:
        # no dimension is expected: proper only when the reductions miss
        kind = Properness.EMPTY_INTERSECTION if special_dim == 0 else Properness.IMPROPER
    elif generic_dim != r0 or special_dim > r0 + 1:
        kind = Properness.IMPROPER
    elif c < n:
        kind = Properness.PROPER_HIGHER_DIM
    else:
        kind = Properness.PROPER_0DIM if special_dim else Properness.EMPTY_INTERSECTION
    return kind, generic_dim, special_dim


def _built_improper(rng, p):
    """Configurations built to be improper: a repeated cycle, two cycles with
    equal reductions, and a line inside a hyperplane (spans meeting over K
    with codimensions summing to n)."""
    ctx = PAdicContext(p)
    out = []
    for n in (2, 3, 4):
        ambient = std(ctx, n)
        s = cycles._random_split(rng, ambient, rng.randrange(1, n), 3)
        out.append(CycleConfiguration(ambient, [s, s]))
        if n > 2:
            # equal reductions of rank r meet in dimension r > r0 + 1 on the
            # special fibre when r <= n/2 (at n = 2 they may be proper)
            s = cycles._random_split(rng, ambient, rng.randrange(1, n // 2 + 1), 3)
            lifted = [[x + p * rng.randrange(-3, 4) for x in col] for col in s.columns]
            out.append(CycleConfiguration(ambient, [s, SplitSubmodule(ambient, lifted)]))
            s = cycles._random_split(rng, ambient, n - 1, 3)
            line = [x + p * y for x, y in zip(s.columns[0], s.columns[1])]
            out.append(CycleConfiguration(ambient, [s, SplitSubmodule(ambient, [line])]))
    return out


def test_properness_matches_an_independent_oracle(monkeypatch):
    # every configuration the generator classifies, rejected draws included,
    # tagged with the mode of the loop below that drew it
    drawn = []

    def record(cfg):
        drawn.append((mode, cfg))
        return properness_check(cfg)

    monkeypatch.setattr(cycles, "properness_check", record)
    for n in (2, 3, 4):
        for p in (2, 3):
            cells = [("hyperplanes", n)] + [("submodules", d) for d in range(2, n + 1)]
            cells += [("higherdim", d) for d in range(2, n)]
            for mode, d in cells:
                for seed in range(8):
                    random_instance(seed, n, p, d, max_val=3, mode=mode)
    built = [cfg for p in (2, 3) for cfg in _built_improper(random.Random(p), p)]
    kinds = set()
    singular = {"built": 0, "hyperplanes": 0, "submodules": 0}
    for mode, cfg in drawn + [("built", cfg) for cfg in built]:
        report = properness_check(cfg)
        assert (report.kind, report.generic_dim, report.special_dim) == _oracle_properness(cfg)
        n = cfg.ambient.dim
        if cfg.codim_sum() == n:
            # A, the cycles' forms stacked (a hyperplane kernel keeps its
            # form), is square: proper in dimension 0 iff det A != 0 and
            # rank(A mod p) = n - 1, empty iff det A != 0 and the rank is n
            forms = [f for s in cfg.submodules for f in s.forms()]
            finite, zeros = sympy_invariant_exponents(forms, cfg.ambient.ctx.p)
            assert (zeros == 0 and finite.count(0) == n - 1) == (report.kind is Properness.PROPER_0DIM)
            assert (zeros == 0 and finite.count(0) == n) == (report.kind is Properness.EMPTY_INTERSECTION)
            # a singular A takes analyze's route through intersect_spans
            singular[mode] += zeros > 0
        kinds.add(report.kind)
    assert all(properness_check(cfg).kind is Properness.IMPROPER for cfg in built)
    assert kinds == set(Properness)
    assert all(singular.values()), singular


def test_split_configuration_has_the_same_family_distance():
    # Cut a proper 0-dim submodule configuration into the n hyperplanes of
    # its realized forms.  The form matrix is the same, and each cycle's
    # reduction is the common zero set of its forms mod p, so the split one
    # is PROPER_0DIM with the same lhs; its rhs, the distance to the family
    # of n lines, must then equal the distance to the family of d blocks.
    # A block is the saturation of its lines' sum, which can be larger than
    # the sum, so the equality is not automatic; some draws must show that.
    larger = 0
    for n in (3, 4, 5):
        for p in (2, 3, 5):
            for seed in range(1, 41):
                cfg = random_instance(seed, n, p, 2 + seed % (n - 1), max_val=4, mode="submodules").config
                forms = realized_forms(cfg)
                split = CycleConfiguration(cfg.ambient, [hyperplane_kernel(f) for f in forms])
                assert properness_check(split).kind is Properness.PROPER_0DIM
                blocks, lines = vertex_family(cfg), vertex_family(split)
                rhs = distance_to_family(cfg.ambient, blocks)
                assert distance_to_family(cfg.ambient, lines) == rhs == intersect_hyperplanes(forms)
                sums, start = [], 0
                for s in cfg.submodules:
                    group = lines.generators[start : start + n - s.rank]
                    start += n - s.rank
                    sums.append(SplitSubmodule(cfg.ambient, [c for line in group for c in line.columns]))
                larger += not all(map(same_submodule, sums, blocks.generators))
    assert larger > 0
