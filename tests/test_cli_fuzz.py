"""Hostile input is refused where it enters: mutated instance and pair files
make `btpgl intersect` and `btpgl dist` exit with a documented code, print no
traceback, and finish within a fixed deadline."""

import copy
import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
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
        code = cli.main(argv)
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
