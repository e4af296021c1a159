"""One analysis pass per configuration: the span fold, the mod-p echelons
and the properness classification are counted across whole operations."""

import hashlib
import json

from sympy import Matrix, Rational

from btpgl import cycles, lattices, linalg, serialize
from btpgl.cli import main
from btpgl.padic import PAdicContext


def count_pass_calls(monkeypatch):
    """Count calls of intersect_spans, saturate_coords, echelon_mod_p,
    nullspace, PAdicContext.residue and the classification from now on.
    Every classification ends in one PropernessReport."""
    names = ("intersect_spans", "saturate_coords", "echelon_mod_p", "nullspace", "residue", "classify")
    counts = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    spans = counting("intersect_spans", lattices.intersect_spans)
    monkeypatch.setattr(lattices, "intersect_spans", spans)
    monkeypatch.setattr(cycles, "intersect_spans", spans)
    saturate = counting("saturate_coords", lattices.saturate_coords)
    monkeypatch.setattr(lattices, "saturate_coords", saturate)
    monkeypatch.setattr(cycles, "saturate_coords", saturate)
    monkeypatch.setattr(linalg, "echelon_mod_p", counting("echelon_mod_p", linalg.echelon_mod_p))
    monkeypatch.setattr(linalg, "nullspace", counting("nullspace", linalg.nullspace))
    monkeypatch.setattr(PAdicContext, "residue", counting("residue", PAdicContext.residue))
    monkeypatch.setattr(cycles, "PropernessReport", counting("classify", cycles.PropernessReport))
    return counts


def test_verify_is_one_pass(monkeypatch):
    sample = cycles.random_instance(seed=5, n=5, p=3, d=5, max_val=3, mode="hyperplanes")
    # a fresh configuration: the sample's own was analyzed while it was drawn
    cfg = cycles.CycleConfiguration(sample.config.ambient, sample.config.submodules)
    counts = count_pass_calls(monkeypatch)
    report = cycles.verify_intersection_identity(cfg)
    assert report.agree
    # one span intersection for L0 and one per partial intersection L_j;
    # one mod-p echelon per F_p-intersection of the fold (4 here), and none
    # for the realized forms, which are the cycles' forms
    assert counts["classify"] == 1
    assert counts["intersect_spans"] <= 6
    assert counts["echelon_mod_p"] <= 4
    # the family check of a campaign reads the same analysis
    cycles.vertex_family(cfg)
    assert counts["classify"] == 1
    assert counts["intersect_spans"] <= 6


def test_verify_computes_each_cycles_forms_once(monkeypatch):
    sample = cycles.random_instance(seed=5, n=5, p=3, d=5, max_val=3, mode="submodules")
    # fresh cycles: the sample's own computed their forms while it was drawn
    data = serialize.instance_to_json(3, sample.config.ambient, sample.config.submodules)
    cfg = serialize.parse_instance(data)[3]
    counts = count_pass_calls(monkeypatch)
    assert cycles.verify_intersection_identity(cfg).agree
    # one nullspace per cycle for its forms, one for L0 and one per L_j;
    # the realized forms are the cycles' forms and run none
    assert counts["nullspace"] <= 2 * len(cfg.submodules) + 1 == 11


def test_verify_saturates_only_the_intersections(monkeypatch):
    sample = cycles.random_instance(seed=5, n=5, p=3, d=5, max_val=3, mode="submodules")
    data = serialize.instance_to_json(3, sample.config.ambient, sample.config.submodules)
    cfg = serialize.parse_instance(data)[3]
    counts = count_pass_calls(monkeypatch)
    assert cycles.verify_intersection_identity(cfg).agree
    # one saturation for L0 and one per L_j: each cycle's forms are already an
    # R-basis; the F_p fold reads the echelon that parsing kept when it
    # checked each cycle is split, so no coordinate is reduced again
    assert counts["saturate_coords"] <= len(cfg.submodules) + 1 == 6
    assert counts["residue"] == 0


def test_hyperplane_cycles_come_from_their_forms(monkeypatch):
    sample = cycles.random_instance(seed=5, n=5, p=3, d=5, max_val=3, mode="hyperplanes")
    data = serialize.instance_to_json(3, sample.config.ambient, sample.forms)
    counts = count_pass_calls(monkeypatch)
    cfg = serialize.parse_instance(data)[3]
    # each kernel is a closed form that keeps its form
    assert counts["nullspace"] == counts["saturate_coords"] == 0
    assert cycles.verify_intersection_identity(cfg).agree
    # one nullspace for L0 and one per L_j
    assert counts["nullspace"] == 6
    counts["nullspace"] = 0
    assert len(cycles.apartment_lines(sample.forms)) == 5
    assert counts["nullspace"] <= 6


def test_cli_intersect_higherdim_is_one_pass(tmp_path, monkeypatch, capsys):
    sample = cycles.random_instance(seed=7, n=5, p=3, d=3, max_val=3, mode="higherdim")
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(serialize.instance_to_json(3, sample.config.ambient, sample.config.submodules)))
    counts = count_pass_calls(monkeypatch)
    assert main(["intersect", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["properness"] == "proper_higher_dim"
    assert counts["classify"] == 1
    # parsing checks each cycle is split (one echelon each)
    assert counts["intersect_spans"] <= 4
    assert counts["echelon_mod_p"] <= 10


def _span_rref(vectors):
    """Reduced row echelon form of the K-span of the vectors, as strings.
    A split submodule is its K-span intersected with the lattice, and the
    integral forms vanishing on a cycle are their K-span intersected with
    the dual lattice, so this names the module whatever its basis."""
    if not vectors:
        return []
    rref = Matrix([[Rational(x.numerator, x.denominator) for x in v] for v in vectors]).rref()[0]
    return [[str(x) for x in rref.row(i)] for i in range(rref.rows) if any(rref.row(i))]


def _instance_outputs(seed, n, p, mode):
    """Every exact output of one seeded instance, as strings; modules and
    sets of forms as the reduced echelon form of their K-span."""
    d = n if mode != "higherdim" else n - 1
    sample = cycles.random_instance(seed, n, p, d, max_val=3, mode=mode)
    cfg = sample.config
    analysis = cycles.analyze(cfg)
    out = [
        sample.rejections,
        _span_rref(analysis.generic.columns),
        [list(r) for r in analysis.special],
        [_span_rref(lj.columns) for lj in analysis.partials],
    ]
    if mode == "higherdim":
        family = cycles.higherdim_vertex_family(cfg)
        out.append(cycles.decompose_intersection(cfg).special_multiplicity)
    else:
        family = cycles.vertex_family(cfg)
        forms = cycles.realized_forms(cfg)
        start = 0
        per_cycle = []
        for s in cfg.submodules:
            per_cycle.append(_span_rref([f.coefficients for f in forms[start : start + n - s.rank]]))
            start += n - s.rank
        out.append(per_cycle)
        out.append(cycles.intersect_hyperplanes(forms))
    out.append(cycles.nearest_family_member(cfg.ambient, family))
    return out


# outputs_digest() at commit ab96ce2, whose intersect_spans folded the spans
# in pairs and whose realized_forms completed each cycle to a basis
RECORDED_DIGEST = "737c70bdb7f8895e12849f0af982c7c70d0dafaa8cd96c69ffa1ff9141228af7"


def outputs_digest():
    """sha256 of the outputs of 99 seeded instances: n = 2..5, p = 2, 3, 5,
    every mode that fits n, seeds 1..3."""
    grid = [
        (seed, n, p, mode)
        for n in (2, 3, 4, 5)
        for p in (2, 3, 5)
        for mode in ("hyperplanes", "submodules", "higherdim")
        if mode != "higherdim" or n > 2
        for seed in (1, 2, 3)
    ]
    text = json.dumps([_instance_outputs(*cell) for cell in grid])
    return hashlib.sha256(text.encode()).hexdigest()


def test_exact_outputs_match_the_recorded_digest():
    # L0, the L_j and the realized forms as modules, the special rows, the
    # intersection number and the nearest member do not depend on how the
    # intersections are eliminated, so they must not change
    assert outputs_digest() == RECORDED_DIGEST
