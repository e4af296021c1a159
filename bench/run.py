"""Benchmark for btpgl: one workload per run, closed loop, one client.

    python3 bench/run.py --workload identity-campaign --seed 1 --seconds 20 --trace 0

Set-up turns the seed into a fixed list of operations (see workloads.py)
in three parts, each built from its own sub-seed; set-up time is the median
of the three builds.  The parts are then timed in four rounds, one pass per
part per round, so that a run takes about --seconds: a pass executes every
operation of its part once, on inputs freshly parsed for that pass, each
after the previous one returns, in this process and on one thread, with
every output checked.  Throughput and latency percentiles are taken over the
operations of all passes.  The last line of standard output is a JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1, where the passes over
the middle part run traced.  The line before it is a JSON report with the
run environment, the failed ratio, input and output digests and per-group
figures.

    python3 bench/run.py --steadiness 5 [--workload NAME] [--seconds S]

runs each workload with seeds 1..5, one fresh process at a time, and prints
per end-to-end metric the median and the quartile spread (q3 - q1) / median
next to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS, Tracer, traced

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("identity-campaign", "bfs-oracle", "intersect-files")
# set-ups per run; each builds one part of the inputs
PARTS = 3
# passes over every part; the machine's speed drifts over tens of seconds, so
# a run must be long, and timing each input more than once keeps set-up and
# the computing of expected outputs a small share of it
ROUNDS = 4
TRACED_PART = 1
TAIL_PERCENTILE = 90
MIN_BEYOND_TAIL = 10

END_TO_END = (
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# per-layer functions reported with calls and self time
SPAN_FUNCTIONS = (
    "cycles.verify_intersection_identity",
    "cycles.properness_check",
    "cycles.vertex_family",
    "cycles.distance_to_family",
    "cycles.family_window_keys",
    "cycles.decompose_intersection",
    "cycles.realized_forms",
    "cycles.intersect_hyperplanes",
    "cycles.hyperplane_kernel",
    "lattices.intersect_spans",
    "lattices.saturate_coords",
    "lattices.invariant_exponents",
    "lattices.complete_to_complement",
    "lattices.is_split",
    "linalg.det",
    "linalg.inv",
    "linalg.matmul",
    "linalg.int_det",
    "linalg.echelon_mod_p",
    "linalg.nullspace",
    "linalg.intersect_mod_p",
    "building.bfs_dist",
    "building.class_key",
    "building.dist",
    "serialize.parse_instance",
    "serialize.decomposition_to_json",
    "cli.main",
    "cli.cmd_intersect",
)
# functions reported with calls only
COUNTED_FUNCTIONS = (
    "padic.PAdicContext.val",
    "padic.PAdicContext.residue",
    "padic.PAdicContext.is_integral",
    "padic.int_val",
)
BFS_DEPTHS = (0, 1, 2, 3, 4)
# inclusive time of these is recorded per operation in the traced pass
FOCUS = ("cycles.distance_to_family", "building.bfs_dist")


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = []
    for qual in SPAN_FUNCTIONS:
        spec.append((f"{qual}.calls", "count", "lower"))
        spec.append((f"{qual}.self_s", "s", "lower"))
    spec += [(f"{qual}.calls", "count", "lower") for qual in COUNTED_FUNCTIONS]
    spec += [(f"{layer}.self_share", "ratio", "lower") for layer in LAYERS]
    spec += [(f"building.bfs_dist.ms_per_op.d{d}", "ms", "lower") for d in BFS_DEPTHS]
    spec.append(("trace.throughput_ratio", "ratio", "higher"))
    return spec


# ---------------------------------------------------------------------------
# statistics


def percentile(values, q: float):
    """Nearest-rank percentile: the smallest value with at least q% of the
    values at or below it."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) / 100)
    return ordered[max(rank, 1) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of `count` samples lie above the nearest-rank q-th percentile."""
    return count - max(math.ceil(q * count / 100), 1)


def quartile_spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else math.inf


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# environment


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def _git_commit():
    """Commit of the checkout when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# one run


def import_library():
    """Import btpgl from the checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import btpgl
    from btpgl import building, cli, cycles, lattices, linalg, padic, serialize  # noqa: F401

    elapsed = time.perf_counter() - start
    if Path(btpgl.__file__).resolve().parent != (src / "btpgl").resolve():
        raise ImportError(f"btpgl imported from {btpgl.__file__}, not from {src}")
    return elapsed


def set_up(workload, seed: int, seconds: float, workdir: Path):
    """Build the run's inputs in PARTS parts, each from its own sub-seed and
    sized for its share of `seconds` over ROUNDS rounds; return the parts,
    the median build time and a digest of all inputs."""
    parts, times = [], []
    for k in range(PARTS):
        subdir = workdir / f"part{k}"
        subdir.mkdir(parents=True)
        start = time.perf_counter()
        ops = workload.build(f"{seed}.{k}", seconds / (PARTS * ROUNDS), subdir)
        workload.warm_up(subdir)
        times.append(time.perf_counter() - start)
        parts.append(ops)
    return parts, statistics.median(times), digest((op.group, op.digest_input) for ops in parts for op in ops)


def timed_pass(workload, ops, tracer=None):
    """Execute every operation once, in order; time and check each."""
    latencies, outputs, failures, focus = [], [], [], []
    gc.collect()
    start = time.perf_counter_ns()
    for i, op in enumerate(ops):
        if tracer is not None:
            before = [tracer.total_ns.get(name, 0) for name in FOCUS]
        t0 = time.perf_counter_ns()
        try:
            out = workload.execute(op)
            raised = None
        except Exception as exc:  # an operation that raises counts as failed
            out, raised = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter_ns() - t0)
        if tracer is not None:
            focus.append([tracer.total_ns.get(name, 0) - b for name, b in zip(FOCUS, before)])
        outputs.append(out if raised is None else raised)
        try:
            ok = raised is None and workload.check(op, out)
        except (ValueError, KeyError, TypeError, AttributeError):
            ok = False
        if not ok:
            failures.append({"index": i, "group": op.group, "output": repr(outputs[-1])[:300]})
    elapsed = time.perf_counter_ns() - start
    if samples_beyond(len(latencies), TAIL_PERCENTILE) < MIN_BEYOND_TAIL:
        raise RuntimeError(
            f"{len(latencies)} operations leave fewer than {MIN_BEYOND_TAIL} beyond p{TAIL_PERCENTILE}"
        )
    return {
        "elapsed_ns": elapsed,
        "latencies": latencies,
        "outputs": outputs,
        "failures": failures,
        "focus": focus,
        "throughput": len(ops) / (elapsed / 1e9),
    }


def merge_passes(passes):
    """One result over the operations of several passes, in order."""
    elapsed = sum(r["elapsed_ns"] for r in passes)
    latencies = [ns for r in passes for ns in r["latencies"]]
    return {
        "elapsed_ns": elapsed,
        "latencies": latencies,
        "outputs": [out for r in passes for out in r["outputs"]],
        "failures": [f for r in passes for f in r["failures"]],
        "focus": [f for r in passes for f in r["focus"]],
        "throughput": len(latencies) / (elapsed / 1e9),
    }


def end_to_end_metrics(passes, setup_s, peak_rss_mb):
    """Throughput and latency percentiles over the operations of all passes."""
    merged = merge_passes(passes)
    values = {
        "throughput_ops_s": merged["throughput"],
        "latency_p50_ms": percentile(merged["latencies"], 50) / 1e6,
        "latency_p90_ms": percentile(merged["latencies"], TAIL_PERCENTILE) / 1e6,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(ops, tracer, traced, untraced):
    """Layer figures of the traced passes, merged into `traced`, over `ops`;
    the overhead compares their throughput with the untraced passes'."""
    traced_ns = sum(traced["latencies"])
    values = {}
    for qual in SPAN_FUNCTIONS:
        values[f"{qual}.calls"] = tracer.calls.get(qual, 0)
        values[f"{qual}.self_s"] = tracer.self_ns.get(qual, 0) / 1e9
    for qual in COUNTED_FUNCTIONS:
        values[f"{qual}.calls"] = tracer.calls.get(qual, 0)
    for layer in LAYERS:
        layer_ns = sum(ns for name, ns in tracer.self_ns.items() if name.startswith(layer + "."))
        values[f"{layer}.self_share"] = layer_ns / traced_ns
    bfs_index = FOCUS.index("building.bfs_dist")
    for depth in BFS_DEPTHS:
        times = [f[bfs_index] for op, f in zip(ops, traced["focus"]) if op.distance == depth]
        values[f"building.bfs_dist.ms_per_op.d{depth}"] = statistics.mean(times) / 1e6 if times else 0.0
    values["trace.throughput_ratio"] = traced["throughput"] / untraced["throughput"]
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_spec()}


def group_table(untraced, traced=None):
    """Per group of operations: count, mean and median latency over the
    untraced passes, and in a traced run the mean inclusive time of each
    FOCUS function per operation and its share of the operations' time.
    Passes are given as (operations, result) pairs."""
    latencies, focus = {}, {}
    for ops, result in untraced:
        for op, ns in zip(ops, result["latencies"]):
            latencies.setdefault(op.group, []).append(ns / 1e6)
    if traced is not None:
        ops, result = traced
        for op, ns, spans in zip(ops, result["latencies"], result["focus"]):
            focus.setdefault(op.group, []).append((ns, spans))
    table = {}
    for group, lat in sorted(latencies.items()):
        entry = {"ops": len(lat), "mean_ms": statistics.mean(lat), "p50_ms": percentile(lat, 50)}
        rows = focus.get(group)
        if rows:
            op_ns = sum(ns for ns, _ in rows)
            for k, name in enumerate(FOCUS):
                focus_ns = sum(spans[k] for _, spans in rows)
                if focus_ns:
                    entry[f"{name}.ms_per_op"] = focus_ns / len(rows) / 1e6
                    entry[f"{name}.share"] = focus_ns / op_ns
        table[group] = entry
    return table


def run_workload(args) -> int:
    nproc = _nproc()
    load_start = _loadavg()
    try:
        import_s = import_library()
    except ImportError as exc:
        print(f"bench: cannot import btpgl from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    tracer = Tracer()
    # (part index, result) of every pass, in the order run
    timed = []
    try:
        parts, build_s, input_digest = set_up(workload, args.seed, args.seconds, workdir)
        setup_s = import_s + build_s
        settle_start = time.perf_counter()
        for ops in parts:
            workload.settle(ops)
        settle_s = time.perf_counter() - settle_start
        for _ in range(ROUNDS):
            for k, ops in enumerate(parts):
                fresh = [workload.fresh(op) for op in ops]
                if args.trace and k == TRACED_PART:
                    with traced(tracer):
                        timed.append((k, timed_pass(workload, fresh, tracer)))
                else:
                    timed.append((k, timed_pass(workload, fresh)))
                del fresh
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left when another run still uses it
            workdir.parent.rmdir()
    load_end = _loadavg()

    passes = [r for _, r in timed]
    is_traced = [bool(args.trace) and k == TRACED_PART for k, _ in timed]
    untraced_parts = [(parts[k], r) for (k, r), t in zip(timed, is_traced) if not t]
    if args.trace:
        traced_ops = parts[TRACED_PART] * ROUNDS
        traced_run = merge_passes([r for r, t in zip(passes, is_traced) if t])
        untraced_run = merge_passes([r for _, r in untraced_parts])
        metrics = per_layer_metrics(traced_ops, tracer, traced_run, untraced_run)
    else:
        metrics = end_to_end_metrics(passes, setup_s, peak_rss_mb)
    failures = [f for r in passes for f in r["failures"]]
    attempted = sum(len(r["latencies"]) for r in passes)
    loads = [load[0] for load in (load_start, load_end) if load]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "operations": attempted,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": nproc,
            "commit": _git_commit(),
            "loadavg_start": load_start,
            "loadavg_end": load_end,
            "overloaded": any(x > nproc for x in loads),
        },
        "input_digest": input_digest,
        "output_digest": digest(out for r in passes for out in r["outputs"]),
        "failed_ratio": len(failures) / attempted,
        "failures": failures[:5],
        "import_s": import_s,
        "build_s": build_s,
        "settle_s": settle_s,
        "pass_throughputs": [r["throughput"] for r in passes],
        "groups": group_table(untraced_parts, (traced_ops, traced_run) if args.trace else None),
    }
    if args.trace:
        report["traced_functions"] = {
            name: {"calls": tracer.calls[name], "self_s": tracer.self_ns.get(name, 0) / 1e9}
            for name in sorted(tracer.calls)
        }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# steadiness


def steadiness(args) -> int:
    """Run each workload with seeds 1..N, one process at a time."""
    bounds = {}
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
        bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    ok = True
    for name in names:
        samples = {metric: [] for metric, _ in END_TO_END}
        for seed in range(1, args.steadiness + 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
            cmd += ["--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            report = json.loads(lines[-2])
            ok = ok and result["correct"]
            for metric in samples:
                samples[metric].append(result["metrics"][metric]["value"])
            print(
                f"{name} seed {seed}: correct={result['correct']} ops={result['attempted']} "
                f"overloaded={report['environment']['overloaded']} "
                + " ".join(f"{m}={v[-1]:.4g}" for m, v in samples.items()),
                flush=True,
            )
        for metric, values in samples.items():
            med, q1, q3, spread = quartile_spread(values)
            bound = bounds.get(metric)
            verdict = "" if bound is None else f" bound {bound} ({'ok' if spread < bound / 3 else 'WIDE'} vs bound/3)"
            print(f"{name} {metric}: median {med:.5g} q1 {q1:.5g} q3 {q3:.5g} spread {spread:.4f}{verdict}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N", help="repeat each workload with N seeds")
    args = parser.parse_args(argv)
    if args.steadiness:
        if args.steadiness < 2:
            parser.error("--steadiness needs at least 2 seeds")
        return steadiness(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
