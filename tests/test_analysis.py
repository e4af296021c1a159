"""One analysis pass per configuration: the span fold, the mod-p echelons
and the properness classification are counted across whole operations."""

import json

from btpgl import cycles, lattices, linalg, serialize
from btpgl.cli import main


def count_pass_calls(monkeypatch):
    """Count calls of intersect_spans, echelon_mod_p and the classification
    from now on.  Every classification ends in one PropernessReport."""
    counts = {"intersect_spans": 0, "echelon_mod_p": 0, "classify": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    spans = counting("intersect_spans", lattices.intersect_spans)
    monkeypatch.setattr(lattices, "intersect_spans", spans)
    monkeypatch.setattr(cycles, "intersect_spans", spans)
    monkeypatch.setattr(linalg, "echelon_mod_p", counting("echelon_mod_p", linalg.echelon_mod_p))
    monkeypatch.setattr(cycles, "PropernessReport", counting("classify", cycles.PropernessReport))
    return counts


def test_verify_is_one_pass(monkeypatch):
    sample = cycles.random_instance(seed=5, n=5, p=3, d=5, max_val=3, mode="hyperplanes")
    # a fresh configuration: the sample's own was analyzed while it was drawn
    cfg = cycles.CycleConfiguration(sample.config.ambient, sample.config.submodules)
    counts = count_pass_calls(monkeypatch)
    report = cycles.verify_intersection_identity(cfg)
    assert report.agree
    # one fold for L0 and one per partial intersection L_j; one mod-p
    # echelon per cycle and two per pairwise F_p-intersection
    assert counts["classify"] == 1
    assert counts["intersect_spans"] <= 6
    assert counts["echelon_mod_p"] <= 13
    # the family check of a campaign reads the same analysis
    cycles.vertex_family(cfg)
    assert counts["classify"] == 1
    assert counts["intersect_spans"] <= 6


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
