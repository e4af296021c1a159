from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from btpgl import serialize
from btpgl.cycles import Properness, properness_check, verify_intersection_identity
from btpgl.errors import SchemaError
from btpgl.lattices import DualForm, LatticeBasis, SplitSubmodule
from btpgl.padic import PAdicContext


def test_scalar_round_trip():
    assert serialize.scalar_to_str(Fraction(3, 2)) == "3/2"
    assert serialize.scalar_to_str(Fraction(-7)) == "-7"
    assert serialize.parse_scalar("6/4") == Fraction(3, 2)
    assert serialize.parse_scalar("-3/4") == Fraction(-3, 4)
    assert serialize.parse_scalar(5) == 5
    assert serialize.scalar_to_str(serialize.parse_scalar("0")) == "0"
    assert serialize.parse_scalar(" 1.25 ") == Fraction(5, 4)


# exponent notation spells huge numbers in a few bytes, so it is refused
@pytest.mark.parametrize("bad", ["", "x", "1/0", None, 1.5, True, "1e200000", "1E5", "2.5e-3"])
def test_scalar_parse_errors(bad):
    with pytest.raises(SchemaError):
        serialize.parse_scalar(bad, "field")


def test_matrix_parse_diagnostics():
    with pytest.raises(SchemaError) as err:
        serialize.parse_matrix([["1", "2"], ["3"]], "lattice_M")
    assert "lattice_M[1]" in str(err.value)
    with pytest.raises(SchemaError) as err:
        serialize.parse_matrix([["1", "z"]], "lattice_M")
    assert "lattice_M[0][1]" in str(err.value)


def test_instance_round_trip_hyperplanes():
    ctx = PAdicContext(3)
    lattice = LatticeBasis.standard(ctx, 2)
    forms = [DualForm(lattice, (1, 0)), DualForm(lattice, (1, 27))]
    data = serialize.instance_to_json(3, lattice, forms)
    ctx2, lat2, forms2, cfg = serialize.parse_instance(data)
    assert ctx2.p == 3 and lat2 == lattice
    assert forms2 is not None and [f.coefficients for f in forms2] == [f.coefficients for f in forms]
    rep = verify_intersection_identity(cfg)
    assert rep.agree and rep.lhs == 3
    assert serialize.instance_to_json(3, lat2, forms2) == data


def test_instance_round_trip_submodules():
    ctx = PAdicContext(3)
    lattice = LatticeBasis.standard(ctx, 3)
    subs = [
        SplitSubmodule(lattice, [(1, 0, 0), (0, 1, 0)]),
        SplitSubmodule(lattice, [(1, 0, 0), (0, 1, 9)]),
    ]
    data = serialize.instance_to_json(3, lattice, subs)
    _, _, forms, cfg = serialize.parse_instance(data)
    assert forms is None
    assert properness_check(cfg).kind is Properness.PROPER_HIGHER_DIM
    assert serialize.instance_to_json(3, cfg.ambient, cfg.submodules) == data


def test_instance_schema_errors():
    base = {
        "p": 3,
        "n": 2,
        "lattice_M": [["1", "0"], ["0", "1"]],
        "cycles": [{"kind": "hyperplane", "coefficients": ["1", "0"]}] * 2,
    }
    for mutate, field in [
        (lambda d: d.update(p=4), "p"),
        (lambda d: d.update(n="x"), "n"),
        (lambda d: d.update(lattice_M=[["1", "0"]]), "lattice_M"),
        (lambda d: d.update(cycles=[]), "cycles"),
        (lambda d: d.update(cycles=[{"kind": "nope"}] * 2), "cycles[0].kind"),
        (
            lambda d: d.update(cycles=[{"kind": "hyperplane", "coefficients": ["3", "9"]}] * 2),
            "cycles[0].coefficients",
        ),
    ]:
        data = {k: (v.copy() if isinstance(v, list) else v) for k, v in base.items()}
        mutate(data)
        with pytest.raises(SchemaError) as err:
            serialize.parse_instance(data)
        assert field in str(err.value)


def test_lattice_pair_parse():
    data = {
        "p": 2,
        "n": 2,
        "lattice_M": [["1", "0"], ["0", "1"]],
        "lattice_L": [["1", "0"], ["0", "4"]],
    }
    ctx, a, b = serialize.parse_lattice_pair(data)
    assert ctx.p == 2 and a.dim == b.dim == 2


def test_report_serialization_round_trips_as_json():
    import json

    ctx = PAdicContext(3)
    lattice = LatticeBasis.standard(ctx, 2)
    forms = [DualForm(lattice, (1, 0)), DualForm(lattice, (1, 27))]
    text = json.dumps(serialize.instance_to_json(3, lattice, forms))
    _, _, _, cfg = serialize.parse_instance(json.loads(text))
    rep = verify_intersection_identity(cfg)
    assert (rep.lhs, rep.rhs, rep.agree) == (3, 3, True)
    assert rep.properness.kind.value == "proper_0dim"


def _parse_outcome(value):
    try:
        return serialize.parse_scalar(value)
    except SchemaError:
        return SchemaError


def _fraction_route(value):
    """What parsing a scalar string gave before plain integers took int():
    exponent notation refused, everything else through Fraction."""
    if "e" in value or "E" in value:
        return SchemaError
    try:
        return Fraction(value.strip())
    except (ValueError, ZeroDivisionError):
        return SchemaError


# ASCII and other Unicode decimal digits, a superscript digit (not decimal),
# and every separator the Fraction grammar knows
SCALAR_ALPHABET = "0123456789" + "\u0663\uff17\u00b2" + "_+- /.e"


@given(st.text(alphabet=SCALAR_ALPHABET, max_size=12))
@example("1" * 5000)
@example("-" + "7" * 5000)
@example("1_000")
@example("-0")
@example("007")
@example(" 12 ")
def test_parse_scalar_matches_the_fraction_route(value):
    got, want = _parse_outcome(value), _fraction_route(value)
    assert got == want and type(got) is type(want), value
