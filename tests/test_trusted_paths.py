"""The private constructors skip checks that their callers prove: the modules
they build must pass the public constructors' checks, and the trusted paths
must make none of the calls those checks cost."""

import random

import pytest

from btpgl import building, cycles, linalg, serialize
from btpgl.lattices import (
    LatticeBasis,
    SplitSubmodule,
    complete_to_complement,
    saturate_coords,
)
from btpgl.padic import PAdicContext

from helpers import random_lattice


def _random_vectors(rng, ctx, n, count, max_val=3):
    return [[cycles._random_scalar(rng, ctx.p, max_val) for _ in range(n)] for _ in range(count)]


def _trusted_draws(rng, ambient):
    """One module from each caller of SplitSubmodule._trusted."""
    ctx, n = ambient.ctx, ambient.dim
    yield cycles.hyperplane_kernel(cycles._random_form(rng, ambient, 3))
    yield saturate_coords(ambient, _random_vectors(rng, ctx, n, rng.randrange(0, n + 1)))
    outer = cycles._random_split(rng, ambient, rng.randrange(1, n), 3)
    yield outer
    # the saturation of combinations of outer's columns lies in outer, which
    # is saturated, and is saturated in it: split inside outer
    combos = [
        [sum(c * col[i] for c, col in zip(coeffs, outer.columns)) for i in range(n)]
        for coeffs in _random_vectors(rng, ctx, outer.rank, rng.randrange(0, outer.rank + 1))
    ]
    yield complete_to_complement(outer, saturate_coords(ambient, combos))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_trusted_modules_pass_the_public_checks(p):
    ctx = PAdicContext(p)
    checked = 0
    for n in range(2, 7):
        rng = random.Random(f"trusted:{p}:{n}")
        for draw in range(12):
            ambient = LatticeBasis.standard(ctx, n) if draw % 2 else random_lattice(rng, ctx, n, 2)
            for module in _trusted_draws(rng, ambient):
                forms = module.forms()
                rebuilt = SplitSubmodule(ambient, module.columns, forms=forms)
                assert rebuilt == module and rebuilt.forms() == forms
                checked += 1
    assert checked == 5 * 12 * 4


def _count(monkeypatch, module, names):
    calls = []
    for name in names:

        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_parsing_a_hyperplane_file_takes_no_rank_or_product(monkeypatch):
    # the form of each hyperplane is checked once, as a DualForm; its kernel
    # is split by construction and needs no K-rank and no product
    sample = cycles.random_instance(5, 5, 3, 5, 4, "hyperplanes")
    data = serialize.instance_to_json(3, sample.config.ambient, sample.forms)
    calls = _count(monkeypatch, linalg, ("rank", "matmul"))
    _, _, forms, cfg = serialize.parse_instance(data)
    assert calls == []
    assert [f.coefficients for f in forms] == [f.coefficients for f in sample.forms]
    assert cfg.submodules == sample.config.submodules


def test_standard_and_bfs_ball_take_no_determinant(monkeypatch):
    calls = _count(monkeypatch, linalg, ("det",))
    ctx = PAdicContext(2)
    center = LatticeBasis.standard(ctx, 3)
    nodes, edges = building.bfs_ball(center, center, 2)
    assert calls == []
    assert (len(nodes), len(edges)) == (113, 343)
    monkeypatch.undo()
    for key, lattice in nodes:
        assert LatticeBasis(ctx, lattice.columns) == lattice
        assert building.class_key(center, lattice) == key
    assert LatticeBasis.standard(ctx, 4) == LatticeBasis(ctx, linalg.identity(4))

