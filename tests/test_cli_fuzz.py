"""Hostile input is refused where it enters: mutated instance and pair files
make `btpgl intersect` and `btpgl dist` exit with a documented code, and so do
mutated command lines of every subcommand; each run prints no traceback and
finishes within a fixed deadline."""

import copy
import io
import json
import os
import random
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from btpgl import cli, cycles, serialize
from btpgl.errors import SchemaError
from btpgl.padic import PRIME_BOUND, PAdicContext, is_prime

from helpers import random_lattice

DEADLINE_S = 5.0
DOCUMENTED_EXIT_CODES = (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_IMPROPER, cli.EXIT_DISAGREE, cli.EXIT_ENUMERATION)
# Python refuses to parse an int of more than this many digits
INT_DIGIT_LIMIT = 4300
FUZZ = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@lru_cache(maxsize=1)
def _primes_near_bound():
    below = PRIME_BOUND - 1
    while not is_prime(below):
        below -= 1
    return (below, PRIME_BOUND, PRIME_BOUND + 2, PRIME_BOUND - 1)


@lru_cache(maxsize=1)
def _instances():
    """Valid instance files: every mode at n = 2..4 and p = 2, 3, 5."""
    out = []
    for n in (2, 3, 4):
        for p in (2, 3, 5):
            for mode in cycles.MODES:
                if mode == "higherdim" and n < 3:
                    continue
                d = n if mode == "hyperplanes" else 2
                sample = cycles.random_instance(n * 100 + p, n, p, d, 3, mode)
                cycle_data = sample.forms if sample.forms is not None else sample.config.submodules
                out.append(serialize.instance_to_json(p, sample.config.ambient, cycle_data))
    return out


@lru_cache(maxsize=1)
def _pairs():
    """Valid pair files at n = 2..4 and p = 2, 3, 5."""
    rng = random.Random(7)
    out = []
    for n in (2, 3, 4):
        for p in (2, 3, 5):
            ctx = PAdicContext(p)
            m, l = (random_lattice(rng, ctx, n, rng.randrange(0, 4)) for _ in range(2))
            out.append(
                {"p": p, "n": n, "lattice_M": serialize.lattice_to_json(m), "lattice_L": serialize.lattice_to_json(l)}
            )
    return out


def _matrices(doc):
    """Every list of scalar lists in the file: the lattices, a submodule's columns."""
    found = [doc.get(name) for name in ("lattice_M", "lattice_L")]
    for c in doc.get("cycles") if isinstance(doc.get("cycles"), list) else ():
        if isinstance(c, dict):
            found.append(c.get("columns"))
    return [m for m in found if isinstance(m, list) and m and all(isinstance(r, list) and r for r in m)]


def _vectors(doc):
    """Every list of scalars in the file: matrix rows, columns, form coefficients."""
    found = [row for m in _matrices(doc) for row in m]
    for c in doc.get("cycles") if isinstance(doc.get("cycles"), list) else ():
        if isinstance(c, dict) and isinstance(c.get("coefficients"), list) and c["coefficients"]:
            found.append(c["coefficients"])
    return found


def _cycles(doc):
    cyc = doc.get("cycles")
    return [c for c in cyc if isinstance(c, dict)] if isinstance(cyc, list) else []


def _p(doc):
    p = doc.get("p")
    return p if isinstance(p, int) and 2 <= p < 10**6 else 3


def _scaled(x, factor):
    try:
        return serialize.scalar_to_str(serialize.parse_scalar(x) * factor)
    except SchemaError:
        return x


def swap_entries(data, doc):
    vecs = _vectors(doc)
    if vecs:
        v = data.draw(st.sampled_from(vecs))
        i, j = data.draw(st.integers(0, len(v) - 1)), data.draw(st.integers(0, len(v) - 1))
        v[i], v[j] = v[j], v[i]


def swap_rows(data, doc):
    mats = _matrices(doc)
    if mats:
        m = data.draw(st.sampled_from(mats))
        i, j = data.draw(st.integers(0, len(m) - 1)), data.draw(st.integers(0, len(m) - 1))
        m[i], m[j] = m[j], m[i]


def non_integral(data, doc):
    vecs = _vectors(doc)
    if vecs:
        v = data.draw(st.sampled_from(vecs))
        v[data.draw(st.integers(0, len(v) - 1))] = f"{data.draw(st.integers(-5, 5))}/{_p(doc)}"


def non_primitive(data, doc):
    # every coefficient of a form, or every entry of a column, times p
    vecs = _vectors(doc)
    if vecs:
        v = data.draw(st.sampled_from(vecs))
        v[:] = [_scaled(x, _p(doc)) for x in v]


def dependent_columns(data, doc):
    subs = [c for c in _cycles(doc) if isinstance(c.get("columns"), list) and c["columns"]]
    if subs:
        cols = data.draw(st.sampled_from(subs))["columns"]
        col = data.draw(st.sampled_from(cols))
        factor = data.draw(st.sampled_from([1, 2, -1, _p(doc)]))
        cols.append([_scaled(x, factor) for x in col] if isinstance(col, list) else col)


def repeated_cycle(data, doc):
    cyc = _cycles(doc)
    if cyc:
        doc["cycles"].append(copy.deepcopy(data.draw(st.sampled_from(cyc))))


def p_power(data, doc):
    vecs = _vectors(doc)
    if vecs:
        p = _p(doc)
        top = len(str(p))
        k = data.draw(st.integers(1, INT_DIGIT_LIMIT // top))
        spelling = data.draw(st.sampled_from(["{}", "-{}", "1/{}", "{}/7"]))
        v = data.draw(st.sampled_from(vecs))
        v[data.draw(st.integers(0, len(v) - 1))] = spelling.format(p**k)


def prime_near_bound(data, doc):
    doc["p"] = data.draw(st.sampled_from(_primes_near_bound()))


WRONG_VALUES = (None, 1.5, True, [], {}, "x", 3, "3", [[]], [["1"]], {"kind": "hyperplane"})


def wrong_type(data, doc):
    bad = copy.deepcopy(data.draw(st.sampled_from(WRONG_VALUES)))
    slots = [(doc, key) for key in ("p", "n", "lattice_M", "lattice_L", "cycles") if key in doc]
    if isinstance(doc.get("cycles"), list):
        slots += [(doc["cycles"], i) for i in range(len(doc["cycles"]))]
    slots += [(c, key) for c in _cycles(doc) for key in ("kind", "coefficients", "columns") if key in c]
    slots += [(m, i) for m in _matrices(doc) for i in range(len(m))]
    slots += [(v, i) for v in _vectors(doc) for i in range(len(v))]
    owner, key = data.draw(st.sampled_from(slots))
    owner[key] = bad


def ragged_row(data, doc):
    vecs = _vectors(doc)
    if vecs:
        v = data.draw(st.sampled_from(vecs))
        if len(v) > 1 and data.draw(st.booleans()):
            v.pop()
        else:
            v.append("1")


def other_n(data, doc):
    doc["n"] = data.draw(st.sampled_from([-1, 0, 1, 2, 3, 6, 10**6]))


MUTATIONS = (
    swap_entries,
    swap_rows,
    non_integral,
    non_primitive,
    dependent_columns,
    repeated_cycle,
    p_power,
    prime_near_bound,
    wrong_type,
    ragged_row,
    other_n,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _mutated(data, base):
    doc = copy.deepcopy(base)
    for mutate in data.draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        mutate(data, doc)
    if data.draw(st.integers(0, 19)) == 0:
        doc = data.draw(st.sampled_from([[doc], "x", 3, None]))
    return doc


def _run_refuses_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # usage errors and --help
            code = exc.code
    elapsed = time.perf_counter() - start
    assert code in DOCUMENTED_EXIT_CODES, (code, err.getvalue())
    assert "Traceback" not in err.getvalue() + out.getvalue()
    assert elapsed < DEADLINE_S, elapsed
    return code


@FUZZ
@given(st.data())
def test_mutated_instance_files_exit_cleanly(workdir, data):
    doc = _mutated(data, data.draw(st.sampled_from(_instances())))
    path = workdir / "instance.json"
    path.write_text(json.dumps(doc))
    _run_refuses_cleanly(["intersect", str(path)])


@FUZZ
@given(st.data())
def test_mutated_pair_files_exit_cleanly(workdir, data):
    doc = _mutated(data, data.draw(st.sampled_from(_pairs())))
    path = workdir / "pair.json"
    path.write_text(json.dumps(doc))
    _run_refuses_cleanly(["dist", str(path)])


def test_unmutated_files_exit_0(workdir):
    for argv0, docs in (("intersect", _instances()), ("dist", _pairs())):
        for doc in docs:
            path = workdir / "valid.json"
            path.write_text(json.dumps(doc))
            assert _run_refuses_cleanly([argv0, str(path)]) == cli.EXIT_OK


# Command lines: each subcommand's valid argv and, per option, values to put
# in.  The values stay within a documented cost: `verify` runs at most 2
# trials with p <= 3 (two BFS-checked trials at (4, 5) took up to 4 s), and
# `export-dot` builds balls of radius <= 1 with n <= 4 and p <= 5.  The ball
# gate counts the keys a ball computes, its boundary's neighbours included,
# so the costliest ball it admits here is radius 1 at (4, 3), 44,311 keys;
# radius 1 at (4, 5) would compute 1,251,043 and exits 4 before any key.
ARGV_BASES = {
    "intersect": (["{instance}"], []),
    "dist": (["{pair}"], [("--oracle", "both")]),
    "verify": (
        [],
        [("--seed", "1"), ("--trials", "2"), ("--n", "3"), ("--p", "2"), ("--max-val", "3"),
         ("--mode", "hyperplanes"), ("--oracle", "both"), ("--out", "{dir}")],
    ),
    "export-dot": ([], [("--n", "3"), ("--p", "2"), ("--radius", "1"), ("--out", "{dir}/ball")]),
}
PATHS = ("{instance}", "{pair}", "{missing}", "{dir}", "", "-")
ARGV_VALUES = {
    "intersect": {},
    "dist": {"--oracle": ("formula", "bfs", "both", "bogus", "")},
    "verify": {
        "--seed": ("1", "2", "0", "-1", "x", "1.5"),
        "--trials": ("1", "2", "0", "-1", "x", ""),
        "--n": ("2", "3", "4", "1", "6", "x"),
        "--p": ("2", "3", "4", "1", "0", "x"),
        "--d": ("2", "3", "4", "0", "x"),
        "--max-val": ("0", "1", "3", "-1", "x"),
        "--mode": (*cycles.MODES, "bogus"),
        "--oracle": ("formula", "bfs", "both", "bogus"),
        "--out": ("{dir}", "{missing}"),
    },
    "export-dot": {
        "--n": ("2", "3", "4", "1", "0", "-1", "x"),
        "--p": ("2", "3", "5", "4", "1", "x"),
        "--radius": ("0", "1", "-1", "x"),
        "--out": ("{dir}/ball", "{missing}/ball", "-"),
        "--instance": PATHS,
    },
}
STRAY_TOKENS = ("--", "-", "extra", "--bogus", "--bogus=1", "-h", "--help", "--n=2")


@pytest.fixture(scope="module")
def argv_files(workdir):
    instance, pair = workdir / "argv_instance.json", workdir / "argv_pair.json"
    instance.write_text(json.dumps(_instances()[1]))
    pair.write_text(json.dumps(_pairs()[1]))
    return {"instance": instance, "pair": pair, "missing": workdir / "missing", "dir": workdir}


def _mutated_argv(data, command):
    positionals, base = ARGV_BASES[command]
    positionals, pools = list(positionals), ARGV_VALUES[command]
    options = [list(o) for o in base]
    command_token = command
    for _ in range(data.draw(st.integers(1, 3))):
        # a verify without --trials would run the default 100 trials
        free = [o for o in options if None not in o and o[0] != "--trials"]
        kind = data.draw(st.sampled_from(("value", "add", "drop", "half", "stray", "order", "positional", "command")))
        if kind == "value" and options:
            o = data.draw(st.sampled_from(options))
            if o[0] in pools:
                o[1] = data.draw(st.sampled_from(pools[o[0]]))
        elif kind == "add" and pools:
            flag = data.draw(st.sampled_from(sorted(pools)))
            options.append([flag, data.draw(st.sampled_from(pools[flag]))])
        elif kind == "drop" and free:
            options.remove(data.draw(st.sampled_from(free)))
        elif kind == "half" and free:
            # a flag without its value, or a value without its flag
            o = data.draw(st.sampled_from(free))
            o[data.draw(st.integers(0, 1))] = None
        elif kind == "stray":
            options.insert(data.draw(st.integers(0, len(options))), [None, data.draw(st.sampled_from(STRAY_TOKENS))])
        elif kind == "order":
            options = data.draw(st.permutations(options))
        elif kind == "positional" and command in ("intersect", "dist"):
            positionals = data.draw(st.lists(st.sampled_from(PATHS), max_size=2))
        elif kind == "command" and command in ("intersect", "dist"):
            command_token = data.draw(st.sampled_from(("intersect", "dist", "bogus", "")))
    tokens = [command_token, *positionals]
    for flag, value in options:
        if flag is None:
            tokens.append(value)
        elif value is None:
            # "--flag=" cannot take the next token as its value
            tokens.append(f"{flag}=")
        else:
            tokens += [flag, value]
    return tokens


@contextmanager
def _inside(path):
    """Run in `path`: an output prefix such as "-" lands there."""
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


@FUZZ
@given(command=st.sampled_from(sorted(ARGV_BASES)), data=st.data())
def test_mutated_command_lines_exit_cleanly(argv_files, workdir, command, data):
    argv = [t.format(**argv_files) for t in _mutated_argv(data, command)]
    with _inside(workdir):
        _run_refuses_cleanly(argv)


def test_unmutated_command_lines_exit_0(argv_files, workdir):
    for command, (positionals, options) in ARGV_BASES.items():
        argv = [command, *positionals, *(t for o in options for t in o)]
        with _inside(workdir):
            assert _run_refuses_cleanly([t.format(**argv_files) for t in argv]) == cli.EXIT_OK
