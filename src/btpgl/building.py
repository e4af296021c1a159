"""Vertices of the lattice-class building for PGL(V).

Homothety classes of full-rank lattices are the vertices; two distinct
classes are adjacent when representatives satisfy pN < M < N.  This module
provides canonical class keys, adjacency, the closed-form distance,
neighbor enumeration over F_p, a BFS distance oracle, and DOT export of BFS
balls.  Apartment membership is distance 0 to a vertex family of frame
lines (:func:`btpgl.cycles.nearest_family_member`).

Distances in production code always go through the closed form of
:func:`dist`, the least entry valuations of a transition and its inverse;
BFS exists purely as an independent oracle.  A class key is the column
Hermite form over Z_(p) of the transition from the reference; every key of a
lattice comes from :func:`class_key`, and every Hermite form from one exact
reduction of a triangular basis (:func:`_reduce_triangular`).  That form is
itself an integer transition of its class, so every BFS frontier entry is a
key.  A lattice's triangular basis comes from one elimination modulo a
power of p that certifies itself, with no determinant
(:func:`_key_from_integer_rows`).  A neighbour's triangular basis is its
parent's Hermite form times one triangular basis change per subspace of
F_p^n (:func:`_neighbor_keys`), with no determinant and no modular
elimination.  The BFS searches from both ends, from the start class and
from the target keys, expanding the smaller frontier one layer at a time.

All functions are pure and the BFS keeps only local state, so everything here
is safe to run concurrently.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import lcm

from . import linalg
from .errors import EnumerationTooLarge
from .lattices import LatticeBasis
from .padic import int_val

DEFAULT_ENUMERATION_CAP = 10**6
ENUMERATION_CAP_ENV = "BTPGL_ENUM_CAP"
_TRANSFORM_CACHE_LIMIT = 20000


@dataclass(frozen=True)
class ClassKey:
    """Canonical encoding of a lattice homothety class relative to a reference.

    Two lattices get the same key iff they differ by a scalar of K^x.  The
    encoding is the column Hermite form over Z_(p) of the transition
    reference^{-1} * lattice scaled to minimal entry valuation 0: upper
    triangular with p-power diagonal, entries above each diagonal reduced to
    [0, p^{e_row}).  Right multiplication by GL_n(Z_(p)) and by units leaves
    it unchanged, and the scaling fixes the p-power, so it is a complete
    invariant of the class.
    """

    hnf: tuple

    def to_hex(self) -> str:
        return repr(self.hnf).encode("ascii").hex()


def _reduce_triangular(cols):
    """Reduce in place, and return, the columns of an upper-triangular
    integer matrix with diagonal p^{d_j} to the column Hermite form over
    Z_(p) of their lattice.  Column operations over Z reduce each entry
    (i, j) above the diagonal into [0, p^{d_i}) by subtracting a multiple of
    column i, already reduced, for i from j - 1 down to 0.  They keep the
    lattice, and an upper-triangular basis with p-power diagonal and reduced
    entries is the unique column Hermite form over Z_(p) of its lattice
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4.2)."""
    n = len(cols)
    for j in range(1, n):
        cj = cols[j]
        for i in range(j - 1, -1, -1):
            ci = cols[i]
            c = cj[i] // ci[i]
            if c:
                for r in range(i + 1):
                    cj[r] -= c * ci[r]
    return cols


def _normalize_p_power(rows, p):
    """Divide an integer matrix by the largest common p-power p^s; returns
    the quotient and s."""
    shift = None
    for row in rows:
        for x in row:
            if x:
                v = int_val(x, p)
                if shift is None or v < shift:
                    shift = v
                if shift == 0:
                    return rows, 0
    pm = p**shift
    return [[x // pm for x in row] for row in rows], shift


def _integer_rows(p: int, t):
    """A rational matrix scaled to integers and normalized by the common
    p-power (both scalings are homotheties)."""
    denom = lcm(*(x.denominator for row in t for x in row))
    return _normalize_p_power([[int(x * denom) for x in row] for row in t], p)[0]


def _integer_transition(reference: LatticeBasis, lattice: LatticeBasis):
    """Transition matrix reference^{-1} * lattice, as :func:`_integer_rows`."""
    if reference.ctx.p != lattice.ctx.p or reference.dim != lattice.dim:
        raise ValueError("lattices live in different spaces")
    return _integer_rows(reference.ctx.p, linalg.solve(reference.rows(), lattice.rows()))


def _min_val(p: int, rows) -> int:
    """Least p-adic valuation of the nonzero entries of a matrix given as
    rows of ints or Fractions."""
    return min(int_val(x.numerator, p) - int_val(x.denominator, p) for row in rows for x in row if x)


def _key_from_integer_rows(p: int, tz) -> ClassKey:
    """Class key of the lattice L spanned by the columns of an integer matrix
    T already normalized to minimal entry valuation 0.

    The columns are triangularized modulo q = p^k for k = 16, 32, 64, ...,
    each row from the last taking a pivot of least valuation e_i, scaled to
    exactly p^{e_i}.  The first try in which every row finds a pivot and
    sum e_i <= k - 1 is lifted to integers and reduced exactly by
    :func:`_reduce_triangular`; a try stops as soon as a row finds none or
    the running sum reaches k.  The lift L' spans L:

    * every step is an integer column operation, a scaling by an integer
      prime to p or a change by a multiple of q, each invertible mod q, so
      L' + qR^n = L + qR^n;
    * L' is triangular with diagonal p^{e_i}, so p^{sum e} R^n lies in L',
      and as sum e < k, qR^n lies in pL';
    * so L' = L + qR^n lies in L + pL', and L' = L by Nakayama's lemma.

    No determinant sizes the modulus.  Modulo p^k the active columns agree
    with an exact elimination of L to precision p^(k - e_done), e_done the
    sum of the pivots found so far; so once k > val det T, each row finds its
    exact pivot valuation, the sum is val det T < k, and the doubling stops.
    """
    n = len(tz)
    k = 16
    while True:
        q = p**k
        cols = [[tz[i][j] % q for i in range(n)] for j in range(n)]
        order = [0] * n
        active = list(range(n))
        room = k
        for i in range(n - 1, -1, -1):
            best = None
            for j in active:
                x = cols[j][i]
                if x:
                    e = int_val(x, p)
                    if best is None or e < best[0]:
                        best = (e, j)
            if best is None or best[0] >= room:
                break
            e, jstar = best
            room -= e
            pe = p**e
            uinv = pow(cols[jstar][i] // pe, -1, q)
            pivot = cols[jstar] = [x * uinv % q for x in cols[jstar]]
            active.remove(jstar)
            order[i] = jstar
            for j in active:
                c = cols[j][i] // pe
                if c:
                    cols[j] = [(a - c * b) % q for a, b in zip(cols[j], pivot)]
        else:
            return ClassKey(tuple(zip(*_reduce_triangular([cols[j] for j in order]))))
        k *= 2


def class_key(reference: LatticeBasis, lattice: LatticeBasis) -> ClassKey:
    """Canonical key of the homothety class of `lattice` relative to `reference`.

    Keys computed against the same reference agree exactly when the classes
    coincide; keys from different references are not comparable.  The
    reference's own key is the identity, built with no solve.
    """
    if lattice == reference:
        n = reference.dim
        return ClassKey(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    return _key_from_integer_rows(reference.ctx.p, _integer_transition(reference, lattice))


def block_scaled_keys(p: int, transition, ranks, exponent_tuples) -> set:
    """Class keys, relative to a reference, of the lattices obtained from the
    lattice with the given transition from it by scaling its consecutive
    column blocks, of sizes `ranks`, by p^{k_a}, one per tuple k.

    With T the transition scaled to integers (:func:`_integer_rows`), the
    member k has transition T * D_k, D_k = diag(p^{k_a}) blockwise; dividing
    by p^{min k}, a homothety, keeps it integral, so one integer matrix
    serves every member.
    """
    t = _integer_rows(p, transition)
    keys = set()
    for kvec in exponent_tuples:
        lo = min(kvec)
        scales = [p ** (k - lo) for k, rank in zip(kvec, ranks) for _ in range(rank)]
        scaled = [[x * s for x, s in zip(row, scales)] for row in t]
        keys.add(_key_from_integer_rows(p, _normalize_p_power(scaled, p)[0]))
    return keys


def adjacent(l1: LatticeBasis, l2: LatticeBasis) -> bool:
    """True iff the classes are distinct and have representatives with
    pN < M < N; equivalently their distance is 1."""
    return dist(l1, l2) == 1


def dist(l1: LatticeBasis, l2: LatticeBasis) -> int:
    """Combinatorial distance between the two lattice classes: k_n - k_1,
    the spread of the invariant exponents of T = l2^{-1} l1, which equals the
    minimal number of edges of a path between the classes.

    It is -min val(T) - min val(T^{-1}), from two solves.  Proof: for U, W
    in GL_n(R) the entries of UAW are R-combinations of A's, so
    min val(UAW) >= min val(A), and A = U^{-1}(UAW)W^{-1} gives equality.
    With T = U diag(p^{k_i}) W, so min val(T) = k_1, and
    T^{-1} = W^{-1} diag(p^{-k_i}) U^{-1}, so min val(T^{-1}) = -k_n.
    """
    if l1.ctx.p != l2.ctx.p or l1.dim != l2.dim:
        raise ValueError("lattices live in different spaces")
    p, r1, r2 = l1.ctx.p, l1.rows(), l2.rows()
    return -_min_val(p, linalg.solve(r2, r1)) - _min_val(p, linalg.solve(r1, r2))


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    return num // den


def neighbor_count(n: int, p: int) -> int:
    """Number of classes adjacent to any vertex: proper nonzero subspaces of F_p^n."""
    return sum(gaussian_binomial(n, k, p) for k in range(1, n))


def enumeration_cap() -> int:
    raw = os.environ.get(ENUMERATION_CAP_ENV, str(DEFAULT_ENUMERATION_CAP))
    if not raw.strip().isdecimal():
        raise ValueError(f"{ENUMERATION_CAP_ENV} must be a non-negative integer, got {raw!r}")
    return int(raw)


def _triangular_transforms(n: int, p: int):
    """One upper-triangular basis change B_W per proper nonzero subspace W
    of F_p^n, as sparse columns: column j is a tuple of (row, coefficient)
    pairs, rows ascending.

    W is listed by its reduced echelon basis pivoted on each vector's last
    nonzero coordinate: the vector w with pivot j has w_j = 1, zeros below j
    and at the other pivots, and any residues at the free positions above j.
    Reversing the coordinates turns this into the usual reduced echelon
    form, which each subspace has exactly one of, so every W appears once.
    B_W holds w in column j for each pivot j and p*e_j in every other
    column.  Its columns span the lift of W plus pZ^n (p*e_j at a pivot j is
    p*w minus p-multiples of the free e_i), so right-multiplying a basis of
    L by B_W gives the lattice between pL and L that W names; and since w
    vanishes below its pivot, B_W is upper triangular with diagonal 1 at the
    pivots and p elsewhere."""
    out = []
    for k in range(1, n):
        for pivots in combinations(range(n), k):
            free = [(j, i) for j in pivots for i in range(j) if i not in pivots]
            for assignment in product(range(p), repeat=len(free)):
                cols = [[] if j in pivots else [(j, p)] for j in range(n)]
                for (j, i), value in zip(free, assignment):
                    if value:
                        cols[j].append((i, value))
                for j in pivots:
                    cols[j].append((j, 1))
                out.append(tuple(tuple(col) for col in cols))
    return out


@lru_cache(maxsize=32)
def _cached_transforms(n: int, p: int):
    return tuple(_triangular_transforms(n, p))


def _neighbor_transforms(n: int, p: int):
    total = neighbor_count(n, p)
    limit = enumeration_cap()
    if total > limit:
        raise EnumerationTooLarge(
            f"{total} proper subspaces of F_{p}^{n} exceed the cap of {limit}"
        )
    if total <= _TRANSFORM_CACHE_LIMIT:
        return _cached_transforms(n, p)
    return _triangular_transforms(n, p)


def _check_ball_size(n: int, p: int, radius: int) -> None:
    """Refuse a ball that could compute more class keys than the cap.  A
    ball of radius >= 1 keys its centre and the deg neighbours of every
    class it holds, the boundary included, and 1 + deg * sum_{k<radius}
    (deg-1)^k bounds the classes of a ball in a deg-regular graph; so
    1 + deg * (that bound) bounds the keys.  A ball of radius 0 keys only
    its centre."""
    cap = enumeration_cap()
    if not radius:
        return
    deg = neighbor_count(n, p)
    classes, layer = 1, deg
    for _ in range(radius):
        classes += layer
        if 1 + deg * classes > cap:
            raise EnumerationTooLarge(
                f"a ball of radius {radius} at (n, p) = ({n}, {p}) "
                f"may compute more than the cap of {cap} class keys"
            )
        if not layer:
            break
        layer *= deg - 1


def _check_search_size(n: int, p: int, radius: int, ntargets: int) -> None:
    """Refuse a search from both ends that could compute more class keys
    than the cap.  With deg the degree, D(0) = 1 and D(k) = deg*(deg-1)^(k-1),
    after a forward and b backward layers the frontiers hold at most D(a)
    and t*D(b) classes, t = ntargets, and a step expands the smaller; so
    1 + t + deg * sum_{s<radius} max_{a+b=s} min(D(a), t*D(b)) bounds the
    keys computed."""
    cap = enumeration_cap()
    deg = neighbor_count(n, p)
    layers = [1]
    bound = 1 + ntargets
    for s in range(radius):
        step = deg * max(min(layers[a], ntargets * layers[s - a]) for a in range(s + 1))
        bound += step
        if bound > cap:
            raise EnumerationTooLarge(
                f"a search to radius {radius} at (n, p) = ({n}, {p}) from {ntargets} targets "
                f"may compute more than the cap of {cap} class keys"
            )
        if not step:
            break
        layers.append(deg * (deg - 1) ** s)


def _neighbor_keys(p: int, hnf, transforms):
    """Class key of each neighbour of the class whose key has Hermite form
    `hnf`, in transform order.

    H = hnf is upper triangular with diagonal p^{e_j}, entries above it
    reduced, and least entry valuation 0; it is an integer transition of its
    class.  For each B_W of :func:`_triangular_transforms`, the columns of
    H*B_W span the neighbour that W names, and H*B_W is upper triangular
    with diagonal p^{d_j}, d_j = e_j + [j is not a pivot of W], so
    :func:`_reduce_triangular` gives the neighbour's Hermite form.  The least
    entry valuation s of a basis is the largest s with M in p^s Z_(p)^n, so
    it is the same for every basis of M, the transition a key is normalized
    from included; and dividing a reduced form by p^s leaves it reduced.
    Since pL <= M <= L and L has an entry of valuation 0, s is 0 or 1: it
    is 1 exactly when p divides every entry.  So no determinant, modulus or
    pivot search is needed.
    """
    hcols = tuple(zip(*hnf))
    n = len(hcols)
    for bw in transforms:
        cols = []
        for terms in bw:
            col = [0] * n
            for i, c in terms:
                hc = hcols[i]
                for r in range(i + 1):
                    col[r] += c * hc[r]
            cols.append(col)
        _reduce_triangular(cols)
        if not any(x % p for col in cols for x in col):
            cols = [[x // p for x in col] for col in cols]
        yield ClassKey(tuple(zip(*cols)))


def neighbors(reference: LatticeBasis, lattice: LatticeBasis):
    """All classes adjacent to the given one, one representative lattice each.

    Sublattices between pL and L correspond to nonzero proper subspaces of
    L/pL; the basis of `lattice` times each triangular basis change B_W is
    one.  Keys are computed defensively: a duplicate class would be a bug,
    so it trips an assertion.
    """
    ctx = lattice.ctx
    transforms = _neighbor_transforms(lattice.dim, ctx.p)
    keys = list(_neighbor_keys(ctx.p, class_key(reference, lattice).hnf, transforms))
    assert len(set(keys)) == len(keys), "duplicate neighbor class"
    rows = lattice.rows()
    return [
        LatticeBasis.from_rows(ctx, [[sum(c * r[i] for i, c in col) for col in bw] for r in rows])
        for bw in transforms
    ]


def bfs_dist(
    reference: LatticeBasis,
    start: LatticeBasis,
    targets,
    radius_cap: int,
) -> int | None:
    """Breadth-first distance from the start class to a set of target keys.

    Searches from both ends: one side starts from the start class's key, the
    other from the target keys, and each expands a key's Hermite form into
    its neighbours' keys (:func:`_neighbor_keys`).  Each step expands the
    smaller frontier by one full layer, deduplicating by class key, so the
    two sides have seen the balls of radii a and b around their ends.  While
    no class lies in both, the distance exceeds a + b.  When one side grows
    to radius a + 1, a new class that the other side has seen gives a path
    of length a + 1 + b, and if the distance is a + 1 + b, the class at
    distance a + 1 on a shortest path is one; so the first one found gives
    the distance exactly.  Returns None when the distance exceeds
    radius_cap.  This is the independent oracle for the invariant-factor
    distance and never calls the formula.  A search that may compute more
    class keys than the enumeration cap raises EnumerationTooLarge.
    """
    if radius_cap < 0:
        raise ValueError("radius_cap must be non-negative")
    p = reference.ctx.p
    other_seen = set(targets)
    _check_search_size(reference.dim, p, radius_cap, len(other_seen))
    start_key = class_key(reference, start)
    seen, frontier = {start_key}, [start_key]
    other_frontier = list(other_seen)
    if start_key in other_seen:
        return 0
    depth = 0
    while frontier and other_frontier and depth < radius_cap:
        if not depth:
            transforms = _neighbor_transforms(reference.dim, p)
        depth += 1
        if len(other_frontier) < len(frontier):
            seen, frontier, other_seen, other_frontier = other_seen, other_frontier, seen, frontier
        nxt = []
        for key in frontier:
            for nb_key in _neighbor_keys(p, key.hnf, transforms):
                if nb_key in other_seen:
                    return depth
                if nb_key not in seen:
                    seen.add(nb_key)
                    nxt.append(nb_key)
        frontier = nxt
    return None


def bfs_ball(reference: LatticeBasis, center: LatticeBasis, radius: int):
    """All classes within the given radius of the center, in BFS discovery
    order, together with the adjacency edges among them.

    Returns (nodes, edges) where nodes is a list of (ClassKey, LatticeBasis)
    pairs and edges is a list of key pairs in deterministic discovery order;
    each lattice is the class representative reference * key.hnf.  Each
    class is expanded once; classes on the boundary only contribute edges.
    A centre equal to the reference is its own representative.
    A radius whose ball may exceed the enumeration cap raises
    EnumerationTooLarge.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    ctx = reference.ctx
    p = ctx.p
    _check_ball_size(reference.dim, p, radius)
    transforms = _neighbor_transforms(reference.dim, p) if radius else ()
    keys = [class_key(reference, center)]
    depth = [0]
    index = {keys[0]: 0}
    edges = []
    i = 0
    while i < len(keys):
        key = keys[i]
        for nb_key in _neighbor_keys(p, key.hnf, transforms):
            j = index.get(nb_key)
            if j is None:
                if depth[i] == radius:
                    continue
                j = index[nb_key] = len(keys)
                keys.append(nb_key)
                depth.append(depth[i] + 1)
            # an edge is new when it leads to a class expanded later
            if j > i:
                edges.append((key, nb_key))
        i += 1
    ref_rows = reference.rows()
    # the reference's own key is the identity, so reference * I is itself
    reps = [reference if center == reference else _key_lattice(ctx, ref_rows, keys[0])]
    reps += (_key_lattice(ctx, ref_rows, key) for key in keys[1:])
    return list(zip(keys, reps)), edges


def _key_lattice(ctx, ref_rows, key: ClassKey) -> LatticeBasis:
    """The representative reference * H of a key's class.  H is triangular
    with a p-power diagonal, so the product is nonsingular and needs no
    determinant check.  An entry with no nonzero product is int 0 (see
    :func:`linalg.matmul`), made a Fraction here."""
    zero = Fraction(0)
    cols = zip(*linalg.matmul(ref_rows, key.hnf))
    return LatticeBasis._trusted(ctx, tuple(tuple(x or zero for x in c) for c in cols))


def render_dot(nodes, edges, highlighted=None) -> str:
    """DOT text for a BFS ball: one node per hex-encoded class key, one edge
    per adjacency.  Highlighted keys are drawn filled."""
    highlighted = highlighted or set()
    lines = ["graph building {", "  node [shape=circle];"]
    for key, _ in nodes:
        hexname = key.to_hex()
        attrs = " [style=filled, fillcolor=lightblue]" if key in highlighted else ""
        lines.append(f'  "{hexname}"{attrs};')
    for a, b in edges:
        lines.append(f'  "{a.to_hex()}" -- "{b.to_hex()}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
