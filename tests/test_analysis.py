"""One analysis pass per configuration: the span fold, the mod-p echelons
and the properness classification are counted across whole operations."""

import hashlib
import json

import pytest
from sympy import Matrix, Rational

from btpgl import cycles, lattices, linalg, serialize
from btpgl.cli import main
from btpgl.errors import RankMismatch
from btpgl.lattices import DualForm, LatticeBasis, SplitSubmodule, is_split, same_submodule, saturate_coords
from btpgl.padic import PAdicContext

from helpers import count_eliminations, fraction_span_fold


def count_pass_calls(monkeypatch):
    """Count calls of intersect_spans, saturate_coords, complete_to_complement,
    echelon_mod_p, nullspace, inv, PAdicContext.residue and the
    classification from now on.  Every classification ends in one
    PropernessReport."""
    names = (
        "intersect_spans",
        "saturate_coords",
        "complete_to_complement",
        "echelon_mod_p",
        "nullspace",
        "inv",
        "residue",
        "classify",
    )
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
    complete = counting("complete_to_complement", lattices.complete_to_complement)
    monkeypatch.setattr(lattices, "complete_to_complement", complete)
    monkeypatch.setattr(linalg, "echelon_mod_p", counting("echelon_mod_p", linalg.echelon_mod_p))
    monkeypatch.setattr(linalg, "nullspace", counting("nullspace", linalg.nullspace))
    monkeypatch.setattr(linalg, "inv", counting("inv", linalg.inv))
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
    # at c = n the determinant of the stacked forms proves L0 = 0 and their
    # inverse gives the L_j, so no span intersection or nullspace runs; the
    # special fibre is one mod-p echelon of the stacked annihilators and one
    # of their kernel
    assert counts["classify"] == 1
    assert counts["intersect_spans"] == counts["nullspace"] == 0
    assert counts["echelon_mod_p"] == 2
    # the family check of a campaign reads the same analysis
    cycles.vertex_family(cfg)
    assert counts["classify"] == 1
    assert counts["intersect_spans"] == counts["nullspace"] == 0


def test_partials_are_one_inverse(monkeypatch):
    for mode, d in (("hyperplanes", 5), ("submodules", 3), ("higherdim", 3)):
        sample = cycles.random_instance(seed=5, n=5, p=3, d=d, max_val=3, mode=mode)
        cfg = cycles.CycleConfiguration(sample.config.ambient, sample.config.submodules)
        counts = count_pass_calls(monkeypatch)
        eliminations = count_eliminations(monkeypatch)
        analysis = cycles.analyze(cfg)
        if mode != "higherdim":
            # at c = n the classification is det A: one elimination, no inverse
            assert eliminations["eliminations"] == 1 and counts["inv"] == 0
        counts = count_pass_calls(monkeypatch)
        assert len(analysis.partials) == d
        # one inverse of the completed form matrix (at c = n, of A itself)
        # and one saturation per cycle; no span intersection, nullspace or
        # complement completion
        assert counts["inv"] == 1
        assert counts["saturate_coords"] == d
        assert counts["intersect_spans"] == counts["nullspace"] == counts["complete_to_complement"] == 0
        if mode == "higherdim":
            counts["inv"] = counts["saturate_coords"] = 0
            cycles.higherdim_vertex_family(cfg)
            assert counts["inv"] == counts["saturate_coords"] == counts["complete_to_complement"] == 0


def test_verify_computes_each_cycles_forms_once(monkeypatch):
    sample = cycles.random_instance(seed=5, n=5, p=3, d=5, max_val=3, mode="submodules")
    # fresh cycles: the sample's own computed their forms while it was drawn
    data = serialize.instance_to_json(3, sample.config.ambient, sample.config.submodules)
    cfg = serialize.parse_instance(data)[3]
    counts = count_pass_calls(monkeypatch)
    assert cycles.verify_intersection_identity(cfg).agree
    # one nullspace per cycle for its forms; L0 = 0 comes from their
    # determinant and the L_j from their inverse
    assert counts["nullspace"] == len(cfg.submodules) == 5


def test_verify_saturates_only_the_intersections(monkeypatch):
    sample = cycles.random_instance(seed=5, n=5, p=3, d=5, max_val=3, mode="submodules")
    data = serialize.instance_to_json(3, sample.config.ambient, sample.config.submodules)
    cfg = serialize.parse_instance(data)[3]
    counts = count_pass_calls(monkeypatch)
    assert cycles.verify_intersection_identity(cfg).agree
    # one saturation per L_j, none for L0 = 0: each cycle's forms are already
    # an R-basis; the special fibre reads the echelon that parsing kept when
    # it checked each cycle is split, so no coordinate is reduced again
    assert counts["saturate_coords"] == len(cfg.submodules) == 5
    assert counts["residue"] == 0


def test_hyperplane_cycles_come_from_their_forms(monkeypatch):
    sample = cycles.random_instance(seed=5, n=5, p=3, d=5, max_val=3, mode="hyperplanes")
    data = serialize.instance_to_json(3, sample.config.ambient, sample.forms)
    counts = count_pass_calls(monkeypatch)
    cfg = serialize.parse_instance(data)[3]
    # each kernel is a closed form that keeps its form
    assert counts["nullspace"] == counts["saturate_coords"] == 0
    assert cycles.verify_intersection_identity(cfg).agree
    # L0 = 0 comes from the forms' determinant and the L_j from their inverse
    assert counts["intersect_spans"] == counts["nullspace"] == 0
    fresh = cycles.CycleConfiguration(cfg.ambient, [cycles.hyperplane_kernel(f) for f in sample.forms])
    assert len(cycles.analyze(fresh).partials) == 5
    assert counts["intersect_spans"] == counts["nullspace"] == 0


def test_each_basis_is_eliminated_once(tmp_path, monkeypatch):
    counts = count_eliminations(monkeypatch)

    def taken():
        n, counts["eliminations"] = counts["eliminations"], 0
        return n

    sample = cycles.random_instance(seed=5, n=5, p=3, d=5, max_val=3, mode="hyperplanes")
    cfg = cycles.CycleConfiguration(sample.config.ambient, sample.config.submodules)
    taken()
    # the forms' determinant (which proves L0 = 0 and is lhs), their inverse
    # (the L_j) and the family's inverse (its independence check and its
    # transition)
    assert cycles.verify_intersection_identity(cfg).agree and taken() == 3
    report = cycles.apartment_distance_report(sample.forms)
    assert report.dist_to_apartment <= report.intersection_number and taken() == 3
    # the command reads the number from the classification: M's determinant
    # and the forms'
    path = tmp_path / "hyperplanes.json"
    path.write_text(json.dumps(serialize.instance_to_json(3, sample.config.ambient, sample.forms)))
    assert main(["intersect", str(path)]) == 0 and taken() == 2
    for mode, use in (("submodules", 6), ("higherdim", 6)):
        sample = cycles.random_instance(seed=5, n=5, p=3, d=3, max_val=3, mode=mode)
        data = serialize.instance_to_json(3, sample.config.ambient, sample.config.submodules)
        taken()
        cfg = serialize.parse_instance(data)[3]
        # M's determinant; each cycle's columns are independent by the echelon
        # mod p that also proves it split
        assert taken() == 1
        # one nullspace per cycle for its forms, the inverse of the forms,
        # the family's inverse, and for c = n the forms' determinant, which
        # classifies; for c < n L0's nullspace instead of the determinant
        if mode == "submodules":
            assert cycles.verify_intersection_identity(cfg).agree
        else:
            cycles.decompose_intersection(cfg)
        assert taken() == use
    # the family window reads the transition and its inverse that the family
    # distance reads, so its keys take no elimination
    sample = cycles.random_instance(seed=3, n=3, p=2, d=3, max_val=3, mode="hyperplanes")
    fam = cycles.vertex_family(sample.config)
    taken()
    assert len(cycles.family_window_keys(sample.config.ambient, fam)) == 61 and taken() == 0


def test_cli_intersect_higherdim_is_one_pass(tmp_path, monkeypatch, capsys):
    sample = cycles.random_instance(seed=7, n=5, p=3, d=3, max_val=3, mode="higherdim")
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(serialize.instance_to_json(3, sample.config.ambient, sample.config.submodules)))
    counts = count_pass_calls(monkeypatch)
    assert main(["intersect", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["properness"] == "proper_higher_dim"
    assert counts["classify"] == 1
    # parsing checks each cycle is split (one echelon each), the F_p fold
    # intersects twice and L0's pivots take one; one nullspace per cycle for
    # its forms and one for L0; the complements of L0 are the analysis's own
    assert counts["intersect_spans"] == 1
    assert counts["echelon_mod_p"] <= 6
    assert counts["nullspace"] <= 4
    assert counts["complete_to_complement"] == 0


def test_partials_match_the_fraction_fold():
    # each L_j is the saturated intersection of the other cycles' spans, and
    # L0's columns with its complement's are a basis of it; the draws take
    # every d each mode admits: n, 2..n and 2..n-1
    cells = [
        (n, p, mode, d)
        for n in (2, 3, 4, 5)
        for p in (2, 3, 5)
        for mode, ds in (("hyperplanes", [n]), ("submodules", range(2, n + 1)), ("higherdim", range(2, n)))
        for d in ds
    ]
    for n, p, mode, d in cells:
        for seed in (1, 2):
            cfg = cycles.random_instance(seed, n, p, d, max_val=3, mode=mode).config
            ambient, subs = cfg.ambient, cfg.submodules
            analysis = cycles.analyze(cfg)
            l0 = analysis.generic
            for j, (lj, sj) in enumerate(zip(analysis.partials, analysis.complements)):
                others = subs[:j] + subs[j + 1 :]
                assert same_submodule(lj, saturate_coords(ambient, fraction_span_fold(ambient, others)))
                combined = SplitSubmodule(ambient, l0.columns + sj.columns)
                assert is_split(combined) and same_submodule(combined, lj), (n, p, mode, d, seed, j)


def test_dependent_forms_have_no_partials():
    # three hyperplanes through one line: generic_dim 1 where 0 is expected,
    # and no L_j is the sum of L0 and a complement
    ambient = LatticeBasis.standard(PAdicContext(3), 3)
    forms = ((1, 0, 0), (0, 1, 0), (1, 1, 0))
    cfg = cycles.CycleConfiguration(ambient, [cycles.hyperplane_kernel(DualForm(ambient, f)) for f in forms])
    analysis = cycles.analyze(cfg)
    assert (analysis.properness.kind, analysis.properness.generic_dim) == (cycles.Properness.IMPROPER, 1)
    with pytest.raises(RankMismatch):
        analysis.partials


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
