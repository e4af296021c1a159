import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from btpgl import building, lattices, linalg
from btpgl.building import (
    adjacent,
    bfs_ball,
    bfs_dist,
    class_key,
    dist,
    gaussian_binomial,
    neighbor_count,
    neighbors,
    render_dot,
)
from btpgl.cycles import (
    VertexFamily,
    distance_to_family,
    family_window_keys,
    nearest_family_member,
    random_instance,
    verify_intersection_identity,
    vertex_family,
)
from btpgl.errors import EnumerationTooLarge
from btpgl.lattices import LatticeBasis, saturate_coords
from btpgl.padic import PAdicContext, int_val

from helpers import (
    class_equal,
    _expand as dense_expand,
    _neighbor_transform_list as dense_transforms,
    dense_neighbor_keys,
    diagonal,
    exact_column_hnf,
    member_lattice,
    one_sided_bfs_dist,
    random_lattice,
    random_unimodular,
    right_multiply,
    search_key_bound,
    smith_dist,
)

ctx2 = PAdicContext(2)
ctx3 = PAdicContext(3)


def test_class_key_reference_and_homothety():
    std = LatticeBasis.standard(ctx2, 2)
    key = class_key(std, std)
    assert key.hnf == ((1, 0), (0, 1))
    l = LatticeBasis(ctx2, [(1, 0), (1, 2)])
    assert class_key(std, l) == class_key(std, l.scale(4)) == class_key(std, l.scale(Fraction(3, 7)))


def test_class_key_separates_sublattice_of_index_p():
    # (2,0),(3,2) spans an index-2 sublattice of (1,0),(1,2): adjacent classes,
    # distinct keys.
    std = LatticeBasis.standard(ctx2, 2)
    l = LatticeBasis(ctx2, [(1, 0), (1, 2)])
    lp = LatticeBasis(ctx2, [(2, 0), (3, 2)])
    assert not class_equal(l, lp)
    assert class_key(std, l) != class_key(std, lp)
    assert dist(l, lp) == 1


def test_class_key_constant_on_unimodular_rebasings():
    rng = random.Random(41)
    for p in (2, 3):
        ctx = PAdicContext(p)
        std = LatticeBasis.standard(ctx, 3)
        for _ in range(20):
            l = random_lattice(rng, ctx, 3, rng.randrange(0, 4))
            u = random_unimodular(rng, 3, p)
            l2 = right_multiply(l, u)
            assert class_equal(l, l2)
            assert class_key(std, l) == class_key(std, l2)


def test_class_key_distinguishes_distinct_classes():
    # diag(p^a, p^b) and diag(p^a2, p^b2) are homothetic iff b - a == b2 - a2
    std = LatticeBasis.standard(ctx2, 2)
    seen = {}
    for a in range(0, 3):
        for b in range(a, 4):
            key = class_key(std, diagonal(ctx2, [2**a, 2**b]))
            for (a2, b2), key2 in seen.items():
                assert (key == key2) == (b - a == b2 - a2)
            seen[(a, b)] = key


def test_class_equal_examples():
    std = LatticeBasis.standard(ctx3, 2)
    assert class_equal(std, std.scale(7))
    assert class_equal(std, std.scale(3))
    assert not class_equal(std, diagonal(ctx3, [1, 3]))
    rng = random.Random(47)
    for _ in range(20):
        u = random_unimodular(rng, 2, 3)
        assert class_equal(std, right_multiply(std, u))


def test_adjacent_examples():
    std = LatticeBasis.standard(ctx2, 3)
    assert not adjacent(std, std)
    assert adjacent(std, diagonal(ctx2, [1, 1, 2]))
    std2 = LatticeBasis.standard(ctx2, 2)
    assert not adjacent(std2, diagonal(ctx2, [1, 4]))


def test_keys_and_distances_take_one_solve_and_no_inverse(monkeypatch):
    # class_key and bfs_dist's start key each form their transition with one
    # linalg.solve, and dist its transition and the inverse with two: no
    # whole inverse and no product
    rng = random.Random(8)
    pairs = [
        (random_lattice(rng, ctx, n, 2), random_lattice(rng, ctx, n, 3))
        for ctx in (ctx2, ctx3)
        for n in (2, 3, 4)
    ]
    calls = []
    for name in ("inv", "matmul", "solve"):

        def counted(*args, _real=getattr(linalg, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(linalg, name, counted)
    for reference, lattice in pairs:
        for op, solves in (
            (lambda: class_key(reference, lattice), 1),
            (lambda: dist(reference, lattice), 2),
            # no targets: the search computes the start key and stops
            (lambda: bfs_dist(reference, lattice, set(), 0), 1),
        ):
            calls.clear()
            op()
            assert calls == ["solve"] * solves


def test_dist_examples():
    std2 = LatticeBasis.standard(ctx3, 2)
    assert dist(std2, std2) == 0
    assert dist(std2, diagonal(ctx3, [1, 3])) == 1
    std3 = LatticeBasis.standard(ctx3, 3)
    spread = diagonal(ctx3, [Fraction(1, 3), 1, 9])
    assert dist(std3, spread) == 3


def test_dist_is_a_metric_on_desk_scale_triples():
    rng = random.Random(53)
    for p in (2, 3):
        ctx = PAdicContext(p)
        for n in (2, 3):
            for _ in range(25):
                a = random_lattice(rng, ctx, n, rng.randrange(0, 5))
                b = random_lattice(rng, ctx, n, rng.randrange(0, 5))
                c = random_lattice(rng, ctx, n, rng.randrange(0, 5))
                assert dist(a, b) == dist(b, a)
                assert dist(a, c) <= dist(a, b) + dist(b, c)
                assert (dist(a, b) == 0) == class_equal(a, b)


def test_dist_one_iff_adjacent():
    rng = random.Random(59)
    ctx = PAdicContext(2)
    for _ in range(40):
        a = random_lattice(rng, ctx, 3, rng.randrange(0, 3))
        b = random_lattice(rng, ctx, 3, rng.randrange(0, 3))
        assert (dist(a, b) == 1) == adjacent(a, b)


def _grid_entry(rng, p):
    return Fraction(rng.randint(-p, p) * p ** rng.randint(0, 6), rng.choice((1, p, p * p, 7)))


def _grid_lattice(rng, ctx, n):
    while True:
        try:
            return LatticeBasis(ctx, [[_grid_entry(rng, ctx.p) for _ in range(n)] for _ in range(n)])
        except ValueError:  # singular draw
            pass


def test_closed_form_dist_matches_the_smith_spread():
    # 4,000 seeded pairs, n = 1..6, p = 2, 3, 5, 7, entries up to p^6 with
    # denominators 1, p, p^2 and 7: dist and adjacent against the spread of
    # every invariant exponent from the valuation-pivoted elimination
    rng = random.Random(31)
    distances = set()
    for i in range(4000):
        n, ctx = 1 + i % 6, PAdicContext((2, 3, 5, 7)[i // 6 % 4])
        a, b = _grid_lattice(rng, ctx, n), _grid_lattice(rng, ctx, n)
        expected = smith_dist(a, b)
        assert dist(a, b) == expected
        assert adjacent(a, b) == (expected == 1)
        distances.add(expected)
    assert set(range(11)) <= distances


def test_distances_run_no_elimination(monkeypatch):
    # dist, adjacent and the family window read two transitions, with no
    # valuation-pivoted elimination
    rng = random.Random(12)
    pairs = [
        (random_lattice(rng, ctx, n, 3), random_lattice(rng, ctx, n, 2))
        for ctx in (ctx2, ctx3)
        for n in (2, 3, 4)
    ]
    families = []
    for seed, n, mode in ((3, 3, "hyperplanes"), (5, 4, "submodules")):
        sample = random_instance(seed=seed, n=n, p=2, d=n if mode == "hyperplanes" else 2, max_val=3, mode=mode)
        ambient = sample.config.ambient
        families.append((vertex_family(sample.config), (ambient, random_lattice(rng, ctx2, n, 2))))
    calls = []

    def counted(*args, _real=lattices._eliminate):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(lattices, "_eliminate", counted)
    for a, b in pairs:
        dist(a, b)
        adjacent(a, b)
    for fam, references in families:
        for reference in references:
            assert family_window_keys(reference, fam)
    assert calls == []


def test_homothety_invariance_of_building_ops():
    rng = random.Random(61)
    ctx = PAdicContext(3)
    std = LatticeBasis.standard(ctx, 3)
    for _ in range(10):
        a = random_lattice(rng, ctx, 3, rng.randrange(0, 4))
        b = random_lattice(rng, ctx, 3, rng.randrange(0, 4))
        scalar = Fraction(3) ** rng.randrange(-2, 3) * rng.choice([1, 2, Fraction(5, 7)])
        assert dist(a.scale(scalar), b) == dist(a, b)
        assert adjacent(a.scale(scalar), b) == adjacent(a, b)
        assert class_key(std, a.scale(scalar)) == class_key(std, a)


@pytest.mark.parametrize("p,expected", [(2, 3), (3, 4), (5, 6), (7, 8)])
def test_neighbor_count_rank_one(p, expected):
    ctx = PAdicContext(p)
    std = LatticeBasis.standard(ctx, 2)
    nbs = neighbors(std, std)
    assert len(nbs) == expected == ctx.q + 1


def test_neighbor_count_rank_two():
    std = LatticeBasis.standard(ctx2, 3)
    assert len(neighbors(std, std)) == 14 == neighbor_count(3, 2)
    std3 = LatticeBasis.standard(ctx3, 3)
    assert len(neighbors(std3, std3)) == 26
    assert neighbor_count(3, 3) == gaussian_binomial(3, 1, 3) + gaussian_binomial(3, 2, 3)


def test_neighbors_are_distinct_adjacent_classes():
    std = LatticeBasis.standard(ctx3, 3)
    nbs = neighbors(std, std)
    keys = {class_key(std, nb) for nb in nbs}
    assert len(keys) == len(nbs)
    for nb in nbs:
        assert adjacent(std, nb) and adjacent(nb, std)


def test_neighbors_cap_env_override(monkeypatch):
    monkeypatch.setenv("BTPGL_ENUM_CAP", "10")
    std = LatticeBasis.standard(ctx3, 3)
    with pytest.raises(EnumerationTooLarge):
        neighbors(std, std)


def test_bfs_dist_examples():
    std = LatticeBasis.standard(ctx2, 2)
    assert bfs_dist(std, std, {class_key(std, std)}, 0) == 0
    tgt = diagonal(ctx2, [1, 4])
    assert bfs_dist(std, std, {class_key(std, tgt)}, 4) == 2
    far = diagonal(ctx2, [1, 2**5])
    assert bfs_dist(std, std, {class_key(std, far)}, 3) is None


def test_bfs_matches_formula_distance():
    rng = random.Random(67)
    for p in (2, 3):
        ctx = PAdicContext(p)
        std = LatticeBasis.standard(ctx, 2)
        for _ in range(15):
            l = random_lattice(rng, ctx, 2, rng.randrange(0, 5))
            d = dist(std, l)
            assert bfs_dist(std, std, {class_key(std, l)}, 4) == (d if d <= 4 else None)


def in_apartment(ctx, frame, lattice):
    """Exponent witness when the lattice class lies in the apartment of the
    frame lines, else None: distance 0 to the family of saturated lines."""
    ambient = LatticeBasis.standard(ctx, len(frame))
    family = VertexFamily(ambient, tuple(saturate_coords(ambient, [v]) for v in frame))
    distance, witness = nearest_family_member(lattice, family)
    return witness if distance == 0 else None


def test_in_apartment_examples():
    frame = ((1, 0), (0, 1))
    std = LatticeBasis.standard(ctx2, 2)
    assert in_apartment(ctx2, frame, std) == (0, 0)
    skew = LatticeBasis(ctx2, [(1, 1), (1, -1)])
    assert in_apartment(ctx2, frame, skew) is None
    frame3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    scaled = diagonal(ctx3, [27, 1, 1])
    assert in_apartment(ctx3, frame3, scaled) == (3, 0, 0)
    assert in_apartment(ctx3, frame3, scaled.scale(Fraction(1, 3))) == (3, 0, 0)


def test_in_apartment_oblique_frame():
    # det of the frame is -2: a unit at p=3, so the standard lattice belongs
    frame = ((1, 1), (1, -1))
    member = LatticeBasis(ctx3, [(9, 9), (1, -1)])
    assert in_apartment(ctx3, frame, member) == (2, 0)
    assert in_apartment(ctx3, frame, LatticeBasis.standard(ctx3, 2)) == (0, 0)
    outsider = LatticeBasis(ctx3, [(1, 0), (1, 3)])
    assert in_apartment(ctx3, frame, outsider) is None


def test_tree_has_no_cycles_within_radius():
    # rank-one building is a tree: a ball is spanned by exactly nodes-1 edges
    for p in (2, 3):
        ctx = PAdicContext(p)
        std = LatticeBasis.standard(ctx, 2)
        nodes, edges = bfs_ball(std, std, 4 if p == 2 else 3)
        assert len(edges) == len(nodes) - 1


def test_bfs_ball_counts_and_dot_render():
    std = LatticeBasis.standard(ctx2, 2)
    nodes, edges = bfs_ball(std, std, 1)
    assert (len(nodes), len(edges)) == (4, 3)
    std3 = LatticeBasis.standard(ctx3, 2)
    nodes3, edges3 = bfs_ball(std3, std3, 2)
    assert len(nodes3) == 1 + 4 + 4 * 3
    dot = render_dot(nodes, edges, highlighted={nodes[0][0]})
    assert dot.count("--") == 3
    assert dot.count("fillcolor") == 1
    assert render_dot(*bfs_ball(std, std, 1)) == dot.replace(" [style=filled, fillcolor=lightblue]", "")


def test_bfs_ball_deterministic():
    std = LatticeBasis.standard(ctx3, 2)
    first = bfs_ball(std, std, 2)
    second = bfs_ball(std, std, 2)
    assert [k for k, _ in first[0]] == [k for k, _ in second[0]]
    assert first[1] == second[1]


def test_bfs_ball_matches_the_dense_echelon_ball():
    # the classes and edges of the ball against a search over the dense
    # echelon list from integer transitions; each node's lattice has its key
    rng = random.Random(5)
    for n, p, radius, sizes in ((3, 2, 2, (113, 343)), (2, 3, 3, (53, 52)), (3, 3, 1, (27, 78))):
        ctx = PAdicContext(p)
        ref = random_lattice(rng, ctx, n, 1)
        center = random_lattice(rng, ctx, n, 2)
        nodes, edges = bfs_ball(ref, center, radius)
        t0 = building._integer_transition(ref, center)
        layer = {building._key_from_integer_rows(p, t0): t0}
        ball = dict(layer)
        for _ in range(radius):
            layer = {
                key: nt
                for t in layer.values()
                for key, nt in dense_expand(p, t, dense_transforms(n, p))
                if key not in ball
            }
            ball.update(layer)
        expected_edges = {
            frozenset((key, nb))
            for key, t in ball.items()
            for nb, _ in dense_expand(p, t, dense_transforms(n, p))
            if nb in ball
        }
        assert {key for key, _ in nodes} == set(ball)
        assert {frozenset(e) for e in edges} == expected_edges
        assert (len(nodes), len(edges)) == sizes
        assert all(class_key(ref, lattice) == key for key, lattice in nodes)


def test_neighbor_lift_shape():
    # every neighbor sits strictly between p*standard and standard
    from btpgl.lattices import invariant_exponents

    std = LatticeBasis.standard(ctx2, 3)
    for nb in neighbors(std, std):
        exps = invariant_exponents(nb, std)
        assert sorted(set(exps)) == [0, 1]


@contextmanager
def counting_search_keys():
    """Count the class keys computed inside the block: the keys of lattices,
    all made by :func:`class_key`, and the neighbour keys of the BFS."""
    counts = [0]
    lattice_key = building.class_key
    neighbor_keys = building._neighbor_keys

    def counting(reference, lattice):
        counts[0] += 1
        return lattice_key(reference, lattice)

    def counting_neighbors(p, hnf, transforms):
        for key in neighbor_keys(p, hnf, transforms):
            counts[0] += 1
            yield key

    building.class_key = counting
    building._neighbor_keys = counting_neighbors
    try:
        yield counts
    finally:
        building.class_key = lattice_key
        building._neighbor_keys = neighbor_keys


def test_bfs_ball_expands_each_class_once():
    # one key for the center, then one per neighbour of every node: the
    # boundary layer is expanded only for its edges
    with counting_search_keys() as counts:
        for n, p, radius in ((2, 3, 2), (3, 2, 2)):
            before = counts[0]
            std = LatticeBasis.standard(PAdicContext(p), n)
            nodes, _ = bfs_ball(std, std, radius)
            assert counts[0] - before == 1 + len(nodes) * neighbor_count(n, p)
    assert counts[0] - before == 1583


def test_bfs_ball_centre_at_the_reference_is_the_reference(monkeypatch):
    # the centre's key is then the identity, so its representative is the
    # reference itself, built with no product
    calls = []

    def counted(*args, _real=linalg.matmul):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(linalg, "matmul", counted)
    std = LatticeBasis.standard(ctx2, 40)
    nodes, edges = bfs_ball(std, std, 0)
    assert calls == [] and edges == []
    assert nodes == [(class_key(std, std), std)] and nodes[0][1] is std


def test_bfs_rejects_negative_radius():
    std = LatticeBasis.standard(ctx2, 2)
    with pytest.raises(ValueError):
        bfs_ball(std, std, -1)
    with pytest.raises(ValueError):
        bfs_dist(std, std, {class_key(std, std)}, -1)


def test_bfs_dist_radius_zero_expands_nothing():
    # at (2, 1000003) a class has 1000004 neighbours, more than the cap, but
    # a search to radius 0 builds none of them
    ctx = PAdicContext(1000003)
    std = LatticeBasis.standard(ctx, 2)
    other = diagonal(ctx, [1, 1000003])
    assert bfs_dist(std, std, {class_key(std, other)}, 0) is None
    assert bfs_dist(std, other, {class_key(std, other)}, 0) == 0
    with pytest.raises(EnumerationTooLarge):
        bfs_dist(std, std, {class_key(std, other)}, 1)


def test_bfs_radius_bounded_by_enumeration_cap(monkeypatch):
    # at (3,3) a ball of radius 4 may hold 423,177 classes and one of radius
    # 5 10,579,427.  A search from both ends to one target computes at most
    # 18,306 keys to radius 5 and 880,206 to radius 8, but 11,442,706 to
    # radius 9.
    assert [search_key_bound(3, 3, r, 1) for r in (4, 5, 8, 9)] == [1406, 18306, 880206, 11442706]
    std = LatticeBasis.standard(ctx3, 3)
    key = class_key(std, std)
    assert bfs_dist(std, std, {key}, 4) == 0
    assert bfs_dist(std, std, {key}, 8) == 0
    with pytest.raises(EnumerationTooLarge):
        bfs_dist(std, std, {key}, 9)
    with pytest.raises(EnumerationTooLarge):
        bfs_ball(std, std, 5)
    monkeypatch.setenv("BTPGL_ENUM_CAP", "1405")
    with pytest.raises(EnumerationTooLarge):
        bfs_dist(std, std, {key}, 4)
    monkeypatch.setenv("BTPGL_ENUM_CAP", "1406")
    assert bfs_dist(std, std, {key}, 4) == 0
    monkeypatch.setenv("BTPGL_ENUM_CAP", "423176")
    with pytest.raises(EnumerationTooLarge):
        bfs_ball(std, std, 4)
    # a ball keys its centre and the 26 neighbours of each of its 27
    # classes, the boundary included: 703 keys at radius 1
    monkeypatch.setenv("BTPGL_ENUM_CAP", "702")
    with pytest.raises(EnumerationTooLarge):
        bfs_ball(std, std, 1)
    monkeypatch.setenv("BTPGL_ENUM_CAP", "703")
    assert len(bfs_ball(std, std, 1)[0]) == 27


def test_ball_gate_counts_keys(monkeypatch):
    # at (4,5) a ball of radius 1 holds 1,119 classes, within the default
    # cap, but computes 1 + 1118 * 1119 = 1,251,043 keys: it is refused
    # before any key is built
    monkeypatch.setattr(building, "class_key", None)
    std = LatticeBasis.standard(PAdicContext(5), 4)
    with pytest.raises(EnumerationTooLarge, match="class keys"):
        bfs_ball(std, std, 1)
    assert neighbor_count(4, 5) == 1118
    monkeypatch.setenv("BTPGL_ENUM_CAP", "1251042")
    with pytest.raises(EnumerationTooLarge):
        building._check_ball_size(4, 5, 1)
    monkeypatch.setenv("BTPGL_ENUM_CAP", "1251043")
    building._check_ball_size(4, 5, 1)


def test_search_gate_counts_the_targets(monkeypatch):
    # the backward frontier starts with every target class
    std = LatticeBasis.standard(ctx3, 3)
    targets = {class_key(std, diagonal(ctx3, [1, 1, 3**k])) for k in range(1, 4)}
    assert search_key_bound(3, 3, 4, 3) == 2812
    monkeypatch.setenv("BTPGL_ENUM_CAP", "2811")
    with pytest.raises(EnumerationTooLarge):
        bfs_dist(std, std, targets, 4)
    monkeypatch.setenv("BTPGL_ENUM_CAP", "2812")
    assert bfs_dist(std, std, targets, 4) == 1


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 10**6),
    n=st.sampled_from([2, 3]),
    p=st.sampled_from([2, 3]),
    spread=st.integers(0, 4),
)
def test_search_keys_within_the_bound_on_random_pairs(seed, n, p, spread):
    rng = random.Random(seed)
    ctx = PAdicContext(p)
    a = random_lattice(rng, ctx, n, rng.randrange(0, 3))
    b = random_lattice(rng, ctx, n, spread)
    target = class_key(a, b)
    radius = dist(a, b)
    with counting_search_keys() as counts:
        assert bfs_dist(a, a, {target}, radius) == radius
    assert counts[0] <= search_key_bound(n, p, radius, 1)
    # the start key, and at radius > 0 at least one neighbour key
    assert counts[0] > 1 if radius else counts[0] == 1


def test_search_keys_within_the_bound_on_family_targets():
    for seed in range(1, 40):
        cfg = random_instance(seed, 3, 2, 3, max_val=4, mode="hyperplanes").config
        rhs = verify_intersection_identity(cfg).rhs
        keys = family_window_keys(cfg.ambient, vertex_family(cfg))
        with counting_search_keys() as counts:
            assert bfs_dist(cfg.ambient, cfg.ambient, keys, rhs) == rhs
        assert counts[0] <= search_key_bound(3, 2, rhs, len(keys))


def _moved(rng, lattice, p):
    """The same class in another basis and scale: a unimodular rebasing and a
    p-power times a unit."""
    n = lattice.dim
    scalar = Fraction(p) ** rng.randrange(-3, 4) * rng.choice([1, -1, p + 1, Fraction(1, p + 1)])
    return right_multiply(lattice, random_unimodular(rng, n, p)).scale(scalar)


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(2, 4),
    p=st.sampled_from([2, 3, 5]),
    seed=st.integers(0, 10**6),
)
def test_class_key_is_a_complete_class_invariant(n, p, seed):
    # equal keys exactly when the classes coincide; the pairs include
    # rebasings, scalings and two neighbours of the reference, whose
    # invariant exponents relative to it agree
    rng = random.Random(seed)
    ctx = PAdicContext(p)
    ref = random_lattice(rng, ctx, n, rng.randrange(0, 3))
    a = random_lattice(rng, ctx, n, rng.randrange(0, 4))
    exps = [0, 1] + [rng.randrange(0, 2) for _ in range(n - 2)]
    diag = [[p ** exps[i] if i == j else 0 for j in range(n)] for i in range(n)]
    nb1, nb2 = (right_multiply(ref, linalg.matmul(random_unimodular(rng, n, p), diag)) for _ in range(2))
    pairs = [
        (a, _moved(rng, a, p)),
        (a, random_lattice(rng, ctx, n, rng.randrange(0, 4))),
        (nb1, nb2),
        (nb1, _moved(rng, nb1, p)),
        (ref, _moved(rng, ref, p)),
        (ref, nb2),
    ]
    for x, y in pairs:
        assert (class_key(ref, x) == class_key(ref, y)) == (dist(x, y) == 0)


@settings(deadline=None, max_examples=80)
@given(
    n=st.integers(2, 4),
    p=st.sampled_from([2, 3, 5]),
    total=st.integers(0, 20),
    seed=st.integers(0, 10**6),
    beyond_modulus=st.booleans(),
)
def test_hnf_key_matches_exact_hermite_form(n, p, total, seed, beyond_modulus):
    # the form triangularized mod q = p^k, k = 16 or 32 (the first k with
    # total < k), and lifted against exact rational arithmetic, on
    # L = U * diag(p^e) * V with U, V in GL_n(Z_(p)) of large entries, some
    # beyond q, and min e = 0, so L is its own normalized transition from
    # the standard basis
    rng = random.Random(seed)
    bound = p ** (3 * total + 6) if beyond_modulus else p**6
    ctx = PAdicContext(p)
    exps = [0] * n
    for _ in range(total):
        exps[rng.randrange(1, n)] += 1
    rng.shuffle(exps)

    def unit_matrix():
        while True:
            m = [[rng.randrange(-bound, bound) for _ in range(n)] for _ in range(n)]
            if linalg.int_det(m) % p:
                return m

    diag = [[p ** exps[i] if i == j else 0 for j in range(n)] for i in range(n)]
    rows = linalg.matmul(linalg.matmul(unit_matrix(), diag), unit_matrix())
    expected = exact_column_hnf(rows, p)
    lattice = LatticeBasis.from_rows(ctx, rows)
    assert class_key(LatticeBasis.standard(ctx, n), lattice).hnf == expected
    assert class_key(LatticeBasis.standard(ctx, n), lattice.scale(Fraction(p**3, p + 1))).hnf == expected


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("total", [15, 16, 17, 40])
def test_key_modulus_tries_match_exact_hermite_form(p, total):
    # val det 15 is certified by the first modulus p^16; 16 and 17 are
    # refused there and certified by p^32; 40 needs p^64.  The exponents are
    # spread over the rows or piled on one, under U, V in GL_4(Z_(p)) with
    # entries beyond p^64
    rng = random.Random(f"modulus:{p}:{total}")
    n = 4
    std = LatticeBasis.standard(PAdicContext(p), n)
    bound = p**70

    def unit_matrix():
        while True:
            m = [[rng.randrange(-bound, bound) for _ in range(n)] for _ in range(n)]
            if linalg.int_det(m) % p:
                return m

    spread = [0, total // 3, total // 3, total - 2 * (total // 3)]
    for exps in (spread, [0, 0, 0, total], [total, 0, 0, 0]):
        diag = [[p ** exps[i] if i == j else 0 for j in range(n)] for i in range(n)]
        rows = linalg.matmul(linalg.matmul(unit_matrix(), diag), unit_matrix())
        key = class_key(std, LatticeBasis.from_rows(std.ctx, rows))
        assert key.hnf == exact_column_hnf(rows, p)
        assert sum(int_val(key.hnf[i][i], p) for i in range(n)) == total


def test_class_keys_take_no_determinant(monkeypatch):
    # a key's modular elimination certifies its own modulus, so the keys of
    # class_key, block_scaled_keys and bfs_dist's start take no linalg.int_det
    sample = random_instance(seed=3, n=3, p=2, d=3, max_val=3, mode="hyperplanes")
    fam = vertex_family(sample.config)
    ref = sample.config.ambient
    m = len(fam.generators)
    zero = member_lattice(fam, (0,) * m)
    other = random_lattice(random.Random(3), ctx2, 3, 3)
    ranks = [g.rank for g in fam.generators]
    calls = []

    def counted(*args, _real=linalg.int_det):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(linalg, "int_det", counted)
    class_key(ref, other)
    window = list(product(range(3), repeat=m))
    targets = building.block_scaled_keys(2, linalg.solve(ref.rows(), zero.rows()), ranks, window)
    bfs_dist(ref, other, targets, 2)
    assert calls == []
    assert targets == {class_key(ref, member_lattice(fam, k)) for k in window}


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(2, 4),
    p=st.sampled_from([2, 3, 5]),
    seed=st.integers(0, 10**6),
)
def test_hermite_form_is_a_transition_of_its_class(n, p, seed):
    # the search from the targets expands each target key's Hermite form as
    # an integer transition, so that form must key its own class
    rng = random.Random(seed)
    ctx = PAdicContext(p)
    ref = random_lattice(rng, ctx, n, rng.randrange(0, 3))
    key = class_key(ref, random_lattice(rng, ctx, n, rng.randrange(0, 5)))
    assert building._key_from_integer_rows(p, key.hnf) == key
    assert class_key(ref, LatticeBasis.from_rows(ctx, linalg.matmul(ref.rows(), key.hnf))) == key


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(2, 3),
    p=st.sampled_from([2, 3]),
    seed=st.integers(0, 10**6),
    kind=st.sampled_from(["pair", "family"]),
)
def test_two_sided_bfs_matches_one_sided(n, p, seed, kind):
    # the search from both ends against the search from the start alone, at
    # the distance, one below it (None), one above it, with no targets and
    # with the start among the targets; distances up to 5 at n = 2 and up
    # to 3 at n = 3
    rng = random.Random(seed)
    ctx = PAdicContext(p)
    limit = 5 if n == 2 else 3
    if kind == "pair":
        ref = random_lattice(rng, ctx, n, rng.randrange(0, 3))
        start = random_lattice(rng, ctx, n, rng.randrange(0, 3))
        end = random_lattice(rng, ctx, n, rng.randrange(0, 4))
        targets = {class_key(ref, end)}
        distance = dist(start, end)
    else:
        sample = random_instance(seed=seed, n=n, p=p, d=n, max_val=3, mode="hyperplanes")
        fam = vertex_family(sample.config)
        ref = start = sample.config.ambient
        targets = family_window_keys(ref, fam)
        distance = distance_to_family(start, fam)
    assume(distance <= limit)
    for cap in {distance, distance - 1, distance + 1} - {-1}:
        found = bfs_dist(ref, start, targets, cap)
        assert found == one_sided_bfs_dist(ref, start, targets, cap)
        assert found == (distance if distance <= cap else None)
    assert bfs_dist(ref, start, set(), limit) is None
    assert bfs_dist(ref, start, targets | {class_key(ref, start)}, limit) == 0


def _random_hermite_form(rng, n, p):
    """A random column Hermite form over Z_(p), normalized to least entry
    valuation 0: the Hermite form of some class key."""
    exps = [rng.randrange(0, 4) for _ in range(n)]
    rows = [
        [p ** exps[i] if i == j else rng.randrange(p ** exps[i]) if j > i else 0 for j in range(n)]
        for i in range(n)
    ]
    return tuple(tuple(row) for row in building._normalize_p_power(rows, p)[0])


def _dense_transform(bw):
    """The basis change B_W as rows, from its sparse columns."""
    n = len(bw)
    rows = [[0] * n for _ in range(n)]
    for j, terms in enumerate(bw):
        for i, c in terms:
            rows[i][j] = c
    return rows


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(2, 4),
    p=st.sampled_from([2, 3, 5]),
    seed=st.integers(0, 10**6),
)
def test_triangular_neighbor_keys_match_the_dense_product(n, p, seed):
    # each neighbour key from the parent's Hermite form against the modular
    # Hermite form of the dense product, and the key set against the one the
    # dense echelon list (pivoted on first coordinates) gives
    rng = random.Random(seed)
    hnf = _random_hermite_form(rng, n, p)
    assert building._key_from_integer_rows(p, hnf).hnf == hnf
    transforms = building._neighbor_transforms(n, p)
    keys = list(building._neighbor_keys(p, hnf, transforms))
    for bw, key in zip(transforms, keys, strict=True):
        rows = _dense_transform(bw)
        assert all(rows[i][j] == 0 for j in range(n) for i in range(j + 1, n))
        product_rows = building._normalize_p_power(linalg.matmul(hnf, rows), p)[0]
        assert key == building._key_from_integer_rows(p, product_rows)
    assert len(set(keys)) == len(keys) == neighbor_count(n, p)
    assert set(keys) == set(dense_neighbor_keys(p, hnf))


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(2, 4),
    p=st.sampled_from([2, 3, 5]),
    seed=st.integers(0, 10**6),
)
def test_block_scaled_keys_match_member_keys(n, p, seed):
    # tuples that are shifted, negative or without a 0, against a random
    # reference, so a member's scaled transition can have a common p-power:
    # one member lattice and one class key each.  The window tuples against
    # the model are test_cycles.py::test_family_window_keys_match_member_keys
    sample = random_instance(seed=seed, n=n, p=p, d=n, max_val=2, mode="hyperplanes")
    fam = vertex_family(sample.config)
    m = len(fam.generators)
    zero = member_lattice(fam, (0,) * m)
    ranks = [g.rank for g in fam.generators]
    shifted = list(product(range(-1, 3), repeat=m))
    other = random_lattice(random.Random(seed), PAdicContext(p), n, 2)
    keys = building.block_scaled_keys(p, linalg.solve(other.rows(), zero.rows()), ranks, shifted)
    assert keys == {class_key(other, member_lattice(fam, k)) for k in shifted}
