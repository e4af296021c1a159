"""JSON (de)serialization of scalars, matrices, lattices, instances, reports.

Scalars serialize as decimal strings "a" or "a/b" with b > 0 and the fraction
in lowest terms; input is more liberal (plain ints, non-reduced fractions,
decimals) but refuses exponent notation, which spells huge numbers in a few
bytes.  Matrices serialize row-major as nested arrays of scalar strings.
Parse errors raise :class:`~btpgl.errors.SchemaError` carrying the offending
field path.
"""

from __future__ import annotations

from fractions import Fraction

from .cycles import CycleConfiguration, CycleDecomposition, hyperplane_kernel
from .errors import SchemaError
from .lattices import DualForm, LatticeBasis, SplitSubmodule
from .padic import PAdicContext


def scalar_to_str(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_scalar(value, field: str = "scalar") -> Fraction:
    if isinstance(value, bool):
        raise SchemaError(field, "expected a scalar string or integer")
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str):
        raise SchemaError(field, f"expected a scalar string, got {type(value).__name__}")
    if "e" in value or "E" in value:
        raise SchemaError(field, f"exponent notation is not accepted: {value!r}")
    try:
        if value.isascii() and value.removeprefix("-").isdigit():
            # plain decimal digits only: int() also takes "1_000", which Fraction refuses on 3.10
            return Fraction(int(value))
        return Fraction(value.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(field, f"not a rational number: {value!r} ({exc})") from None


def matrix_to_json(rows):
    return [[scalar_to_str(x) for x in row] for row in rows]


def parse_matrix(data, field: str):
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise SchemaError(field, "expected a non-empty array of arrays")
    width = len(data[0])
    out = []
    for i, row in enumerate(data):
        if len(row) != width:
            raise SchemaError(f"{field}[{i}]", f"ragged row: expected {width} entries")
        out.append([parse_scalar(x, f"{field}[{i}][{j}]") for j, x in enumerate(row)])
    return out


def parse_vector(data, field: str):
    if not isinstance(data, list) or not data:
        raise SchemaError(field, "expected a non-empty array")
    return [parse_scalar(x, f"{field}[{j}]") for j, x in enumerate(data)]


def _parse_header(data):
    """(ctx, n) of an instance object."""
    if not isinstance(data, dict):
        raise SchemaError("$", "expected a JSON object")
    p = data.get("p")
    if not isinstance(p, int):
        raise SchemaError("p", "expected an integer prime")
    try:
        ctx = PAdicContext(p)
    except ValueError as exc:
        raise SchemaError("p", str(exc)) from None
    n = data.get("n")
    if not isinstance(n, int) or n < 2:
        raise SchemaError("n", "expected an integer >= 2")
    return ctx, n


def _parse_lattice(ctx: PAdicContext, data, n: int, field: str) -> LatticeBasis:
    rows = parse_matrix(data, field)
    if len(rows) != n or len(rows[0]) != n:
        raise SchemaError(field, f"expected a {n}x{n} matrix")
    try:
        return LatticeBasis.from_rows(ctx, rows)
    except ValueError as exc:
        raise SchemaError(field, str(exc)) from None


def lattice_to_json(lattice: LatticeBasis):
    return matrix_to_json(lattice.rows())


def instance_to_json(p: int, lattice: LatticeBasis, cycles) -> dict:
    """Cycles may be DualForm or SplitSubmodule values."""
    out_cycles = []
    for c in cycles:
        if isinstance(c, DualForm):
            out_cycles.append(
                {"kind": "hyperplane", "coefficients": [scalar_to_str(x) for x in c.coefficients]}
            )
        else:
            out_cycles.append({"kind": "submodule", "columns": matrix_to_json(c.columns)})
    return {"p": p, "n": lattice.dim, "lattice_M": lattice_to_json(lattice), "cycles": out_cycles}


def parse_instance(data: dict):
    """Parse an instance file into (ctx, lattice, forms-or-None, configuration).

    forms is the tuple of DualForms when every cycle was given as a
    hyperplane, else None.
    """
    ctx, n = _parse_header(data)
    lattice = _parse_lattice(ctx, data.get("lattice_M"), n, "lattice_M")
    raw_cycles = data.get("cycles")
    if not isinstance(raw_cycles, list) or not raw_cycles:
        raise SchemaError("cycles", "expected a non-empty array")
    forms = []
    subs = []
    all_hyperplanes = True
    for i, item in enumerate(raw_cycles):
        field = f"cycles[{i}]"
        if not isinstance(item, dict) or "kind" not in item:
            raise SchemaError(field, "expected an object with a 'kind'")
        kind = item["kind"]
        if kind == "hyperplane":
            coeffs = parse_vector(item.get("coefficients"), f"{field}.coefficients")
            if len(coeffs) != n:
                raise SchemaError(f"{field}.coefficients", f"expected {n} coefficients")
            try:
                form = DualForm(lattice, tuple(coeffs))
            except Exception as exc:
                raise SchemaError(f"{field}.coefficients", str(exc)) from None
            forms.append(form)
            subs.append(hyperplane_kernel(form))
        elif kind == "submodule":
            cols = item.get("columns")
            if not isinstance(cols, list) or not cols:
                raise SchemaError(f"{field}.columns", "expected a non-empty array of columns")
            parsed = [parse_vector(c, f"{field}.columns[{j}]") for j, c in enumerate(cols)]
            if any(len(c) != n for c in parsed):
                raise SchemaError(f"{field}.columns", f"columns must have length {n}")
            try:
                subs.append(SplitSubmodule(lattice, tuple(tuple(c) for c in parsed)))
            except Exception as exc:
                raise SchemaError(f"{field}.columns", str(exc)) from None
            all_hyperplanes = False
        else:
            raise SchemaError(f"{field}.kind", f"unknown kind {kind!r}")
    try:
        cfg = CycleConfiguration(lattice, subs)
    except ValueError as exc:
        raise SchemaError("cycles", str(exc)) from None
    return ctx, lattice, tuple(forms) if all_hyperplanes else None, cfg


def parse_lattice_pair(data: dict):
    """Parse a distance instance: {"p", "n", "lattice_M", "lattice_L"}."""
    ctx, n = _parse_header(data)
    first = _parse_lattice(ctx, data.get("lattice_M"), n, "lattice_M")
    second = _parse_lattice(ctx, data.get("lattice_L"), n, "lattice_L")
    return ctx, first, second


def decomposition_to_json(dec: CycleDecomposition) -> dict:
    return {
        "generic_component": {"columns": matrix_to_json(dec.generic_component.columns)},
        "generic_multiplicity": dec.generic_multiplicity,
        "special_component": {"vectors_mod_p": [list(r) for r in dec.special_component]},
        "special_multiplicity": dec.special_multiplicity,
    }

