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
Hermite form over Z_(p) of the transition from the reference, and every
Hermite form comes from one exact reduction of a triangular basis
(:func:`_reduce_triangular`).  That form is itself an integer transition of
its class, so every BFS frontier entry is a key.  A lattice given by a basis
(:func:`class_key`), and the all-zero member of a family window, get their
triangular basis from one elimination modulo a power of p that certifies
itself, with no determinant (:func:`_key_from_integer_rows`).  Every other
key is one step from a key already built: a Hermite form times one
triangular basis change (:func:`_triangular_step`), per subspace of F_p^n
for a neighbour (:func:`_neighbor_keys`), and for a window member per block
scaled by p, the change read from one kernel mod p
(:func:`block_scaled_keys`); a step needs no determinant and no modular
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
from itertools import accumulate, combinations, product
from math import lcm
from operator import mul

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


def block_scaled_keys(p: int, transition, inverse, ranks, exponent_tuples) -> set:
    """Class keys, relative to a reference, of the lattices obtained from the
    lattice with the given transition from it, and its inverse, by scaling
    its consecutive column blocks, of sizes `ranks`, by p^{k_a}, one per
    tuple k.

    With T the transition scaled to integers (:func:`_integer_rows`), the
    member k is L_k = T D_k R^n, D_k = diag(p^{k_a}) blockwise.  Adding a
    constant to k is a homothety, so each tuple is shifted to least entry 0,
    and S is the largest entry left.  Only L_0 = T R^n is keyed from its
    transition (:func:`_key_from_integer_rows`).  Every other member k is one
    triangular step from k - e_a, a the first block holding k's largest
    entry: the walk goes down from k to the nearest member already keyed and
    back up, in a loop, so a member's predecessor need not be listed, nor
    listed first.  Each member keeps its key and the c with L_k = p^c H R^n,
    H its Hermite form; L_0 has c = 0, and c >= 0 as L_k <= L_0 <= R^n and
    H has a unit entry.

    The step.  With G = T^{-1} and G_a its rows of block a, x lies in L_k
    iff G x lies in D_k R^n, iff G_a x lies in p^{k_a} R^{r_a} for every
    block a; so L_{k+e_a} = {x in L_k : G_a x in p^{k_a+1} R^{r_a}}.  For
    x = p^c H y the product M = p^{c-k_a} G_a H is integral, and x lies in
    L_{k+e_a} iff M y = 0 mod p, iff y mod p lies in W = ker(M mod p).  So
    L_{k+e_a} = p^c H B_W R^n, B_W of :func:`_kernel_transform`, and M mod p
    is not 0, as L_{k+e_a} < L_k.  As pL_k <= L_{k+e_a} <= L_k,
    :func:`_triangular_step` gives the key of H B_W and the shift that c
    grows by.  With p^g G integral, e = g + k_a - c >= 0, since p^g G_a H =
    p^e M is integral and M mod p is not 0; and e < g + S.  So M mod p is
    (p^g G_a H mod p^{e+1}) / p^e, which needs p^g G only modulo p^{g+S+1},
    reduced to integers once.  No member gets a determinant, a modulus
    doubling or a pivot search.

    G comes from the given inverse: T is u p^s times the transition, u a
    unit and s = -min val(transition).  So with d the lcm of the inverse's
    denominators, v = val d and g = v + s, d inverse / (d / p^v) is the
    integral u p^g G, and the unit u changes no kernel mod p.
    """
    t = _integer_rows(p, transition)
    members = set()
    for kvec in exponent_tuples:
        lo = min(kvec)
        members.add(tuple(k - lo for k in kvec) if lo else tuple(kvec))
    n, top = len(t), max(map(max, members), default=0)
    d = lcm(*(x.denominator for row in inverse for x in row))
    v = int_val(d, p)
    g = v - _min_val(p, transition)
    mod = p ** (g + top + 1)
    unit = pow(d // p**v, -1, mod)
    gz = [[x.numerator * (d // x.denominator) * unit % mod for x in row] for row in inverse]
    ends = [0, *accumulate(ranks)]
    blocks = [gz[a:b] for a, b in zip(ends, ends[1:])]
    done = {(0,) * len(ranks): (_key_from_integer_rows(p, t), 0)}
    for kvec in members:
        path = []
        while kvec not in done:
            ka = max(kvec)
            a = kvec.index(ka)
            path.append((kvec, a))
            kvec = (*kvec[:a], ka - 1, *kvec[a + 1 :])
        key, c = done[kvec]
        for kvec, a in reversed(path):
            hcols = tuple(zip(*key.hnf))
            pe = p ** (g + kvec[a] - 1 - c)
            rows = [[sum(map(mul, grow, hc)) % (pe * p) // pe for hc in hcols] for grow in blocks[a]]
            cols, shift = _triangular_step(p, hcols, _kernel_transform(rows, n, p))
            key, c = done[kvec] = ClassKey(tuple(zip(*cols))), c + shift
    return {done[kvec][0] for kvec in members}


def _kernel_transform(rows, n: int, p: int):
    """The basis change B_W of :func:`_triangular_transforms` for W the
    right kernel of the rows mod p, as sparse columns: p e_j at each pivot j
    of their reduced echelon form, and at each free column f the kernel
    vector e_f minus the echelon rows' entries f at their pivots, all above
    f.  One nonzero row v, a block of rank 1 as every block of a hyperplane
    family, is its own echelon form divided by its first nonzero entry v_l:
    its one pivot is l, and column f > l is e_f - (v_f/v_l) e_l."""
    if len(rows) == 1:
        (row,) = rows
        first = 0
        while not row[first]:
            first += 1
        unit = p - pow(row[first], -1, p)
        out = [((j, 1),) for j in range(n)]
        out[first] = ((first, p),)
        for j in range(first + 1, n):
            if row[j]:
                out[j] = ((first, row[j] * unit % p), (j, 1))
        return out
    ech, pivots = linalg.echelon_mod_p(rows, p)
    free = iter(linalg.kernel_mod_p(ech, pivots, n, p))
    return [((j, p),) if j in pivots else [(i, x) for i, x in enumerate(next(free)) if x] for j in range(n)]


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


def _triangular_step(p: int, hcols, bw):
    """The columns of the class key of N = H B R^n, and s in {0, 1} with
    N = p^s (that key's form) R^n: for H a Hermite form of least entry
    valuation 0, given as columns, and B upper triangular with diagonal 1
    or p, given as sparse columns, such that pL <= N <= L for L = H R^n.

    H*B is upper triangular with p-power diagonal, so :func:`_reduce_triangular`
    gives its Hermite form.  The least entry valuation s of a basis of N is
    the largest s with N in p^s Z_(p)^n, so it is the same for every basis
    of N, the transition a key is normalized from included; and dividing a
    reduced form by p^s leaves it reduced.  Since pL <= N <= L and H has an
    entry of valuation 0, s is 0 or 1: it is 1 exactly when p divides every
    entry.  So no determinant, modulus or pivot search is needed.
    """
    cols = []
    for terms in bw:
        terms = iter(terms)
        i, c = next(terms)
        col = list(hcols[i]) if c == 1 else [c * x for x in hcols[i]]
        for i, c in terms:
            hc = hcols[i]
            for r in range(i + 1):
                col[r] += c * hc[r]
        cols.append(col)
    _reduce_triangular(cols)
    if any(x % p for col in cols for x in col):
        return cols, 0
    return [[x // p for x in col] for col in cols], 1


def _neighbor_keys(p: int, hnf, transforms):
    """Class key of each neighbour of the class whose key has Hermite form
    `hnf`, in transform order.

    H = hnf is upper triangular with diagonal p^{e_j}, entries above it
    reduced, and least entry valuation 0; it is an integer transition of its
    class.  For each B_W of :func:`_triangular_transforms`, the columns of
    H*B_W span the neighbour that W names, between pL and L, so
    :func:`_triangular_step` gives the neighbour's Hermite form.
    """
    hcols = tuple(zip(*hnf))
    for bw in transforms:
        yield ClassKey(tuple(zip(*_triangular_step(p, hcols, bw)[0])))


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
