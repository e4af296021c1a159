"""The three benchmark workloads: seeded inputs, the timed operation and its check.

Every workload turns (seed, seconds) into a fixed list of operations in
set-up; a run times that whole list a fixed number of times, so two runs
with the same seed do the same work however long each operation takes.
Operation cost in this library depends mostly on a few discrete properties
of the input (the dimension, the number of cycles, the intersection number,
the BFS depth), and a single expensive input can cost a thousand cheap ones.
Inputs are therefore drawn per stratum with fixed quotas, so that every seed
gets the same mix of cheap and expensive operations and runs differ in the
instances, not in the mix.

Each operation keeps its input as text too.  A run times every operation
more than once, each time on objects freshly parsed from that text outside
the timing (`fresh`), so nothing the library might keep on an input object,
or compute on it while expected outputs are settled, carries over.

Operations call the library through module attributes (`cycles.f(...)`), so
that a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import defaultdict
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from btpgl import building, cli, cycles, linalg, serialize
from btpgl.lattices import LatticeBasis
from btpgl.padic import PAdicContext

MAX_VAL = 4
# draws allowed per slot before set-up gives up on filling a stratum
DRAW_CAP_PER_SLOT = 400


@dataclass
class Op:
    """One timed operation: its input, its group label and what to expect."""

    group: str
    payload: tuple
    expected: object = None
    distance: int | None = None
    digest_input: str = field(default="", repr=False)


def _scaled(count_per_second: float, seconds: float, minimum: int) -> int:
    return max(minimum, round(count_per_second * seconds))


def campaign_slot(n: int, t: int):
    """(mode, d) of trial t, alternating as in the campaign acceptance test."""
    if n == 2 or t % 2 == 0:
        return "hyperplanes", n
    return "submodules", 2 + t % (n - 1)


def intersection_number(sample) -> int:
    forms = sample.forms if sample.forms is not None else cycles.realized_forms(sample.config)
    return cycles.intersect_hyperplanes(forms)


def draw_zero_dim(tag: str, n: int, p: int, slots):
    """Seeded proper zero-dimensional configurations, one per slot.

    Each slot is (mode, d, intersection number or None for any).  Draws of
    one (mode, d) come from one seeded stream and fill the pending slots of
    their intersection number in order, else a slot taking any; a draw no
    slot takes is dropped.
    """
    out = [None] * len(slots)
    by_class = defaultdict(list)
    for i, (mode, d, lhs) in enumerate(slots):
        by_class[(mode, d)].append((i, lhs))
    for (mode, d), members in sorted(by_class.items()):
        rng = random.Random(f"{tag}:{n}:{p}:{mode}:{d}")
        pending = defaultdict(list)
        for i, lhs in members:
            pending[lhs].append(i)
        for _ in range(DRAW_CAP_PER_SLOT * len(members)):
            if not pending:
                break
            sample = cycles.random_instance(rng.getrandbits(40), n, p, d=d, max_val=MAX_VAL, mode=mode)
            lhs = intersection_number(sample)
            key = lhs if lhs in pending else None
            if key in pending:
                out[pending[key].pop(0)] = (sample, lhs)
                if not pending[key]:
                    del pending[key]
        if pending:
            raise RuntimeError(f"{tag}: strata {sorted(pending)} of n={n} p={p} {mode} d={d} not filled")
    return out


def _instance_text(p: int, sample) -> str:
    cyc = sample.forms if sample.forms is not None else sample.config.submodules
    return json.dumps(serialize.instance_to_json(p, sample.config.ambient, cyc), sort_keys=True)


def _parse_config(text: str):
    return serialize.parse_instance(json.loads(text))[3]


# ---------------------------------------------------------------------------
# identity-campaign


class IdentityCampaign:
    """verify_intersection_identity over the n x p grid of the campaign."""

    name = "identity-campaign"
    GRID_N = (2, 3, 4, 5)
    GRID_P = (2, 3, 5)
    # At n=5 with five cycles the family distance scan costs about lhs^4
    # (38, 64 and 167 ms for intersection numbers 1, 2 and 3), so those
    # trials take their intersection numbers in turn from a cycle per p.
    # Each cycle gives every number a share a little below its natural
    # frequency there (p=2: 48/27/14%, p=3: 68/20/10%, p=5: 71/20/7%), so
    # filling it takes few draws whatever the seed.  The 1-11% above 3 are
    # left out: one such instance costs 0.4-8 s, as much as the rest of a
    # pass.  Elsewhere the cost hardly depends on the number, and trials
    # take whatever the generator gives.
    LHS_CYCLES = {
        2: (1, 2, 1, 3, 1, 2, 1, 1),
        3: (1, 2, 1, 1, 3, 1, 2, 1, 1, 1, 2, 1, 1, 1, 1, 1),
        5: (1, 2, 1, 1, 3, 1, 2, 1, 1, 1, 2, 1, 1, 1, 1, 1),
    }
    STRATIFIED_N = 5
    # With equal counts per cell, half the trials have n <= 3 and p50 would
    # sit on the gap between the slowest n=3 (about 6 ms) and the fastest n=4
    # trials (about 9 ms), where it jumps from run to run.  Cells at n=2 (about
    # 1 ms each) get twice the count, so p50 falls in the middle of the n=3
    # trials and p90 in the middle of the n=5 ones.
    CELL_WEIGHT = {2: 2}
    PER_CELL_PER_SECOND = 4.6

    def build(self, seed: int, seconds: float, workdir: Path):
        per_cell = _scaled(self.PER_CELL_PER_SECOND, seconds, 7)
        ops = []
        for n in self.GRID_N:
            for p in self.GRID_P:
                slots = []
                for t in range(per_cell * self.CELL_WEIGHT.get(n, 1)):
                    mode, d = campaign_slot(n, t)
                    lhs = None
                    if n == d == self.STRATIFIED_N:
                        cycle = self.LHS_CYCLES[p]
                        lhs = cycle[sum(1 for slot in slots if slot[2] is not None) % len(cycle)]
                    slots.append((mode, d, lhs))
                drawn = draw_zero_dim(f"{self.name}:{seed}", n, p, slots)
                for (mode, _, _), (sample, lhs) in zip(slots, drawn):
                    text = _instance_text(p, sample)
                    ops.append(Op(f"n{n}p{p} {mode}", (sample.config,), expected=lhs, digest_input=text))
        return ops

    def warm_up(self, workdir: Path):
        for n in (2, 3):
            sample = cycles.random_instance(n, n, 3, d=n, max_val=MAX_VAL, mode="hyperplanes")
            cycles.verify_intersection_identity(sample.config)

    def settle(self, ops):
        pass

    def fresh(self, op: Op) -> Op:
        return replace(op, payload=(_parse_config(op.digest_input),))

    def execute(self, op: Op):
        report = cycles.verify_intersection_identity(op.payload[0])
        return (report.lhs, report.rhs)

    def check(self, op: Op, out) -> bool:
        return out[0] == out[1] == op.expected


# ---------------------------------------------------------------------------
# bfs-oracle


def random_unimodular(rng: random.Random, n: int, p: int, steps: int = 6):
    """Random integer matrix that is invertible over the valuation ring."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        op = rng.randrange(3)
        if op == 0:
            c = rng.randrange(-2, 3)
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        elif op == 1:
            m[i], m[j] = m[j], m[i]
        else:
            u = rng.randrange(1, 2 * p)
            while u % p == 0:
                u = rng.randrange(1, 2 * p)
            u *= rng.choice((1, -1))
            m[i] = [u * x for x in m[i]]
    return m


def lattice_pair(rng: random.Random, ctx: PAdicContext, n: int, spread: int):
    """Lattices A and B = A * U * D * p^s at building distance `spread`, as
    in the BFS acceptance test: A and U unimodular, D a p-power diagonal whose
    exponents have spread `spread`."""
    p = ctx.p
    a = LatticeBasis.from_rows(ctx, random_unimodular(rng, n, p))
    exps = [0, spread] + [rng.randrange(0, spread + 1) for _ in range(n - 2)]
    rng.shuffle(exps)
    diag = [[Fraction(p) ** exps[i] if i == j else 0 for j in range(n)] for i in range(n)]
    rel = linalg.matmul(random_unimodular(rng, n, p), diag)
    scale = Fraction(p) ** rng.randrange(-2, 3)
    b = LatticeBasis.from_rows(ctx, [[scale * x for x in row] for row in linalg.matmul(a.rows(), rel)])
    return a, b


class BfsOracle:
    """The BFS distance oracle against the invariant-factor formula."""

    name = "bfs-oracle"
    # (n, p) -> BFS depths drawn per round.  Deeper pairs at n=3 (one costs
    # 0.1-0.8 s, and where the target sits in its BFS layer varies that cost
    # five-fold) would decide a run's throughput by themselves; d=4 at n=2
    # still shows the growth with depth, and (2,2) gives the ROADMAP's
    # figure.  The cheap pairs (up to about 10 ms) come three times a round,
    # the (3,2) pair at depth 3 and the (3,3) pair at depth 2 (10-80 ms) once.
    PAIR_DEPTHS = {
        (2, 2): (2, 4) * 3,
        (2, 3): (0, 1, 2, 3, 4) * 3,
        (3, 2): (0, 1, 2) * 3 + (3,),
        (3, 3): (0, 1) * 3 + (2,),
    }
    # family checks at n=3: p -> intersection numbers drawn in turn; a check
    # at 1 costs about 12 ms, at 2 30-50 ms, and at 3 0.1-0.7 s, which is
    # left out.  Per round the 36 cheap pairs come first, then the twelve
    # checks at 1, then the ten checks at 2 and the two dear pairs.  So p50,
    # the 30th of 60 operations, falls among the cheap pairs, whose costs
    # spread over a wide range, and p90, the 54th, in the middle of the top
    # twelve.  The checks at 1 all cost about the same: a percentile among
    # them jumped between two values as the share of the run in which the
    # machine ran faster changed.
    FAMILY_RHS = {p: (1, 2) * 5 + (1,) for p in (2, 3)}
    ROUNDS_PER_SECOND = 1.6

    def build(self, seed: int, seconds: float, workdir: Path):
        rounds = _scaled(self.ROUNDS_PER_SECOND, seconds, 2)
        ops = []
        for (n, p), depths in self.PAIR_DEPTHS.items():
            ctx = PAdicContext(p)
            rng = random.Random(f"{self.name}:{seed}:pair:{n}:{p}")
            for _ in range(rounds):
                for depth in depths:
                    a, b = lattice_pair(rng, ctx, n, depth)
                    text = json.dumps(
                        {
                            "p": p,
                            "n": n,
                            "lattice_M": serialize.lattice_to_json(a),
                            "lattice_L": serialize.lattice_to_json(b),
                        }
                    )
                    ops.append(
                        Op(f"pair n{n}p{p} d{depth}", ("pair", a, b), expected=depth, distance=depth, digest_input=text)
                    )
        for p, rhs_values in self.FAMILY_RHS.items():
            slots = []
            for t in range(rounds * len(rhs_values)):
                mode, d = campaign_slot(3, t)
                slots.append((mode, d, rhs_values[t % len(rhs_values)]))
            for sample, lhs in draw_zero_dim(f"{self.name}:{seed}:family", 3, p, slots):
                text = _instance_text(p, sample)
                ops.append(Op(f"family n3p{p} r{lhs}", ("family", sample.config, lhs), digest_input=text))
        # interleave kinds so that no stretch of the run sees one kind only
        random.Random(f"{self.name}:{seed}:order").shuffle(ops)
        return ops

    def warm_up(self, workdir: Path):
        rng = random.Random("warm-up")
        for (n, p) in self.PAIR_DEPTHS:
            self.execute(Op("", ("pair", *lattice_pair(rng, PAdicContext(p), n, 1))))

    def settle(self, ops):
        """Family distances by the closed formula, once, outside the timing."""
        for op in ops:
            if op.payload[0] == "family":
                _, cfg, _ = op.payload
                op.expected = cycles.distance_to_family(cfg.ambient, cycles.vertex_family(cfg))

    def fresh(self, op: Op) -> Op:
        if op.payload[0] == "pair":
            _, a, b = serialize.parse_lattice_pair(json.loads(op.digest_input))
            return replace(op, payload=("pair", a, b))
        return replace(op, payload=("family", _parse_config(op.digest_input), op.payload[2]))

    def execute(self, op: Op):
        """(formula distance, BFS distance): the invariant-factor distance for
        a pair, the intersection number for a family check."""
        if op.payload[0] == "pair":
            _, a, b = op.payload
            formula = building.dist(a, b)
            key = building.class_key(a, b)
            return (formula, building.bfs_dist(a, a, {key}, radius_cap=formula))
        _, cfg, lhs = op.payload
        fam = cycles.vertex_family(cfg)
        keys = cycles.family_window_keys(cfg.ambient, fam)
        return (lhs, building.bfs_dist(cfg.ambient, cfg.ambient, keys, radius_cap=lhs))

    def check(self, op: Op, out) -> bool:
        return out[0] == out[1] == op.expected


# ---------------------------------------------------------------------------
# intersect-files


class IntersectFiles:
    """`btpgl intersect FILE`, in process, on instance files written in set-up."""

    name = "intersect-files"
    GRID_N = (4, 5)
    P = 3
    KINDS = ("hyperplanes", "submodules", "higherdim")
    PER_N_PER_SECOND = 40.0

    def _slot(self, n: int, t: int):
        kind = self.KINDS[t % 3]
        k = t // 3
        if kind == "hyperplanes":
            return kind, n
        if kind == "submodules":
            return kind, 2 + k % (n - 1)
        return kind, 2 + k % (n - 2)

    def build(self, seed: int, seconds: float, workdir: Path):
        per_n = _scaled(self.PER_N_PER_SECOND, seconds, 60)
        ops = []
        p = self.P
        for n in self.GRID_N:
            rng = random.Random(f"{self.name}:{seed}:{n}")
            for t in range(per_n):
                kind, d = self._slot(n, t)
                sample = cycles.random_instance(rng.getrandbits(40), n, p, d=d, max_val=MAX_VAL, mode=kind)
                text = _instance_text(p, sample)
                path = workdir / f"n{n}_{t:04d}.json"
                path.write_text(text, encoding="utf-8")
                ops.append(Op(f"{kind} n{n}", (str(path), sample.config), digest_input=text))
        return ops

    def warm_up(self, workdir: Path):
        sample = cycles.random_instance(1, 4, self.P, d=4, max_val=MAX_VAL, mode="hyperplanes")
        path = workdir / "warm-up.json"
        path.write_text(_instance_text(self.P, sample), encoding="utf-8")
        self.execute(Op("", (str(path), sample.config)))

    def settle(self, ops):
        """Expected outputs, computed once by the library's other routes: the
        family distance for a 0-dim instance, the special multiplicity with
        the cycles in reverse order for a positive-dim one."""
        for op in ops:
            cfg = op.payload[1]
            if not op.group.startswith("higherdim"):
                op.expected = cycles.distance_to_family(cfg.ambient, cycles.vertex_family(cfg))
            else:
                rev = cycles.CycleConfiguration(cfg.ambient, tuple(reversed(cfg.submodules)))
                op.expected = cycles.decompose_intersection(rev).special_multiplicity

    def fresh(self, op: Op) -> Op:
        """The same operation: the command parses its file on every call."""
        return op

    def execute(self, op: Op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["intersect", op.payload[0]])
        return (code, out.getvalue())

    def check(self, op: Op, out) -> bool:
        code, text = out
        if code != 0:
            return False
        result = json.loads(text)
        if not op.group.startswith("higherdim"):
            return result == {"number": op.expected}
        return result.get("generic_multiplicity") == 1 and result.get("special_multiplicity") == op.expected


WORKLOADS = {w.name: w for w in (IdentityCampaign(), BfsOracle(), IntersectFiles())}
