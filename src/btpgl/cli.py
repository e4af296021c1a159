"""Command-line front end.

Exit codes partition the failure classes so campaign scripts can triage
without parsing stderr: 1 usage, parse, validation or file error, 2 improper
intersection, 3 identity or oracle disagreement, 4 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from functools import lru_cache

from . import building, cycles, serialize
from .errors import (
    BtpglError,
    EnumerationTooLarge,
    ImproperGenericIntersection,
    SchemaError,
)
from .lattices import LatticeBasis, SplitSubmodule
from .padic import PAdicContext

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_IMPROPER = 2
EXIT_DISAGREE = 3
EXIT_ENUMERATION = 4


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from None
    except RecursionError:
        raise SchemaError(path, "JSON is nested too deeply") from None


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def cmd_intersect(args) -> int:
    data = _load_json(args.instance)
    cfg = serialize.parse_instance(data)[3]
    report = cycles.properness_check(cfg)
    if report.kind is cycles.Properness.PROPER_HIGHER_DIM:
        dec = cycles.decompose_intersection(cfg)
        out = serialize.decomposition_to_json(dec)
        out["properness"] = report.kind.value
        out["r0"] = report.r0
        _print_json(out)
        return EXIT_OK
    if report.kind is cycles.Properness.EMPTY_INTERSECTION:
        _print_json({"number": 0})
        return EXIT_OK
    if cfg.codim_sum() == cfg.ambient.dim:
        # raises ImproperGenericIntersection when the spans meet over K
        number = cycles.intersect_hyperplanes(cycles.realized_forms(cfg))
    if report.kind is cycles.Properness.IMPROPER:
        print("Improper: cycles do not meet properly on the model", file=sys.stderr)
        return EXIT_IMPROPER
    _print_json({"number": number})
    return EXIT_OK


def cmd_dist(args) -> int:
    data = _load_json(args.instance)
    _, first, second = serialize.parse_lattice_pair(data)
    formula = building.dist(first, second)
    bfs = None
    if args.oracle in ("bfs", "both"):
        # refuse a search over the cap before keying its one target
        building._check_search_size(first.dim, first.ctx.p, formula, 1)
        target = building.class_key(first, second)
        bfs = building.bfs_dist(first, first, {target}, radius_cap=formula)
        if bfs != formula:
            print(
                f"oracle mismatch: formula {formula}, bfs {bfs}",
                file=sys.stderr,
            )
            return EXIT_DISAGREE
    if args.oracle == "formula":
        print(formula)
    elif args.oracle == "bfs":
        print(bfs)
    else:
        print(formula)
        print(bfs)
    return EXIT_OK


def _shifted_complements(cfg, rng):
    """Other complements of L0 in the L_j, on which the multiplicity must not
    change: each column of a default complement plus a seeded nonzero
    integer combination of L0's columns."""
    *comps, l0 = cycles.higherdim_vertex_family(cfg).generators

    def shift(col):
        coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in l0.columns]
        return [x + sum(a * v[i] for a, v in zip(coeffs, l0.columns)) for i, x in enumerate(col)]

    return [SplitSubmodule(cfg.ambient, [shift(c) for c in comp.columns]) for comp in comps]


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError("trials must be at least 1")
    d = args.d if args.d is not None else (args.n if args.mode == "hyperplanes" else 2)
    start = time.perf_counter()
    rejections = 0
    bfs_checked = 0
    bfs_skipped = 0
    max_lhs = 0
    failed_seeds = []
    failure = None
    for trial in range(args.trials):
        seed = args.seed + trial
        sample = cycles.random_instance(seed, args.n, args.p, d, args.max_val, args.mode)
        cfg = sample.config
        rejections += sample.rejections
        if args.mode == "higherdim":
            dec = cycles.decompose_intersection(cfg)
            shifted = _shifted_complements(cfg, random.Random(seed))
            retry = cycles.decompose_intersection(cfg, complements=shifted)
            # the multiplicity is the distance to the complement family
            lhs = rhs = dec.special_multiplicity
            agree = retry.special_multiplicity == rhs
            family_of = cycles.higherdim_vertex_family
        else:
            report = cycles.verify_intersection_identity(cfg)
            lhs, rhs, agree = report.lhs, report.rhs, report.agree
            family_of = cycles.vertex_family
        max_lhs = max(max_lhs, lhs)
        if agree and args.oracle in ("bfs", "both"):
            try:
                found = cycles.family_bfs_distance(cfg.ambient, family_of(cfg), rhs)
            except EnumerationTooLarge:
                # the search may exceed the cap: the formula stands unchecked
                bfs_skipped += 1
            else:
                bfs_checked += 1
                agree = found == rhs
        if not agree:
            failed_seeds.append(seed)
            failure = failure or (trial, sample)
    summary = {
        "trials": args.trials,
        "agreements": args.trials - len(failed_seeds),
        "rejections": rejections,
        "max_lhs": max_lhs,
        "failed_seeds": failed_seeds,
        "wall_time": round(time.perf_counter() - start, 3),
    }
    if args.oracle in ("bfs", "both"):
        summary["bfs_checked"] = bfs_checked
        summary["bfs_skipped"] = bfs_skipped
    _print_json(summary)
    if failure is not None:
        trial, sample = failure
        path = f"{args.out or '.'}/disagreement_trial_{trial}.json"
        payload = serialize.instance_to_json(
            args.p,
            sample.config.ambient,
            sample.forms if sample.forms is not None else sample.config.submodules,
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"disagreement at trial {trial}; instance dumped to {path}", file=sys.stderr)
        return EXIT_DISAGREE
    return EXIT_OK


def cmd_export_dot(args) -> int:
    if args.n < 2:
        raise ValueError(f"--n must be at least 2, got {args.n}")
    ctx = PAdicContext(args.p)
    center = LatticeBasis.standard(ctx, args.n)
    highlighted = set()
    if args.instance:
        data = _load_json(args.instance)
        _, lattice, _, cfg = serialize.parse_instance(data)
        center = lattice
        fam = cycles.vertex_family(cfg)
        highlighted = cycles.family_window_keys(center, fam)
    nodes, edges = building.bfs_ball(center, center, args.radius)
    dot = building.render_dot(nodes, edges, highlighted=highlighted)
    sidecar = {
        key.to_hex(): serialize.lattice_to_json(lattice) for key, lattice in nodes
    }
    dot_path = f"{args.out}.dot"
    json_path = f"{args.out}.json"
    with open(dot_path, "w", encoding="utf-8") as fh:
        fh.write(dot)
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=False)
    _print_json({"nodes": len(nodes), "edges": len(edges), "dot": dot_path, "json": json_path})
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1 (EXIT_PARSE), not
    argparse's 2, which here means an improper intersection; subparsers are
    built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="btpgl",
        description="Exact intersection numbers of linear cycles on p-adic "
        "projective space and distances in the PGL lattice-class building.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("intersect", help="intersection number or cycle decomposition")
    p_int.add_argument("instance", help="instance JSON file")
    p_int.set_defaults(func=cmd_intersect)

    p_dist = sub.add_parser("dist", help="distance between two lattice classes")
    p_dist.add_argument("instance", help="JSON file with lattice_M and lattice_L")
    p_dist.add_argument("--oracle", choices=("formula", "bfs", "both"), default="formula")
    p_dist.set_defaults(func=cmd_dist)

    p_ver = sub.add_parser("verify", help="seeded verification campaign")
    p_ver.add_argument("--seed", type=int, default=1)
    p_ver.add_argument("--trials", type=int, default=100)
    p_ver.add_argument("--n", type=int, default=3)
    p_ver.add_argument("--p", type=int, default=3)
    p_ver.add_argument("--d", type=int, default=None)
    p_ver.add_argument("--max-val", type=int, default=4)
    p_ver.add_argument("--mode", choices=cycles.MODES, default="hyperplanes")
    p_ver.add_argument("--oracle", choices=("formula", "bfs", "both"), default="formula")
    p_ver.add_argument("--out", default=None, help="directory for disagreement dumps")
    p_ver.set_defaults(func=cmd_verify)

    p_dot = sub.add_parser("export-dot", help="export a BFS ball as DOT plus JSON sidecar")
    p_dot.add_argument("--n", type=int, default=2)
    p_dot.add_argument("--p", type=int, default=2)
    p_dot.add_argument("--radius", type=int, default=1)
    p_dot.add_argument("--out", required=True, help="output path prefix")
    p_dot.add_argument(
        "--instance",
        default=None,
        help="optional instance file; its model becomes the center and the "
        "vertex family of its cycles is highlighted",
    )
    p_dot.set_defaults(func=cmd_export_dot)
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call: parsing leaves it unchanged, so
    every later call to :func:`main` reuses it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ImproperGenericIntersection as exc:
        print(f"ImproperGenericIntersection: {exc}", file=sys.stderr)
        return EXIT_IMPROPER
    except EnumerationTooLarge as exc:
        print(f"EnumerationTooLarge: {exc}", file=sys.stderr)
        return EXIT_ENUMERATION
    except (ValueError, BtpglError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
