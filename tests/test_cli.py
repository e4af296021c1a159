import dataclasses
import json
import time

import pytest

from btpgl import cli, cycles
from btpgl.cli import main
from btpgl.padic import PRIME_BOUND


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def coordinate_instance(p, n):
    return {
        "p": p,
        "n": n,
        "lattice_M": [[("1" if i == j else "0") for j in range(n)] for i in range(n)],
        "cycles": [
            {"kind": "hyperplane", "coefficients": [("1" if i == j else "0") for i in range(n)]}
            for j in range(n)
        ],
    }


def manin_instance(p, m):
    return {
        "p": p,
        "n": 2,
        "lattice_M": [["1", "0"], ["0", "1"]],
        "cycles": [
            {"kind": "hyperplane", "coefficients": ["1", "0"]},
            {"kind": "hyperplane", "coefficients": ["1", str(p**m)]},
        ],
    }


def test_intersect_coordinate_hyperplanes(tmp_path, capsys):
    path = write(tmp_path / "inst.json", coordinate_instance(2, 3))
    assert main(["intersect", path]) == 0
    assert json.loads(capsys.readouterr().out) == {"number": 0}


def test_intersect_two_form_instance(tmp_path, capsys):
    path = write(tmp_path / "inst.json", manin_instance(3, 3))
    assert main(["intersect", path]) == 0
    assert json.loads(capsys.readouterr().out) == {"number": 3}


def test_intersect_higherdim_decomposition(tmp_path, capsys):
    payload = {
        "p": 3,
        "n": 3,
        "lattice_M": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "cycles": [
            {"kind": "submodule", "columns": [["1", "0", "0"], ["0", "1", "0"]]},
            {"kind": "submodule", "columns": [["1", "0", "0"], ["0", "1", "9"]]},
        ],
    }
    path = write(tmp_path / "inst.json", payload)
    assert main(["intersect", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["special_multiplicity"] == 2
    assert out["generic_multiplicity"] == 1
    assert out["properness"] == "proper_higher_dim"
    assert out["r0"] == 1


def test_intersect_improper_exits_2(tmp_path, capsys):
    payload = manin_instance(2, 1)
    payload["cycles"][1] = payload["cycles"][0]
    path = write(tmp_path / "inst.json", payload)
    assert main(["intersect", path]) == 2
    assert "ImproperGenericIntersection" in capsys.readouterr().err


@pytest.mark.parametrize(
    "columns, message",
    [
        # a line inside a plane: the spans meet over K, the forms are singular
        ([[["1", "0", "0"], ["0", "1", "0"]], [["1", "3", "0"]]], "ImproperGenericIntersection: "),
        # three hyperplanes with one reduction: det 9, but rank 1 mod 3
        (
            [
                [["0", "1", "0"], ["0", "0", "1"]],
                [["3", "1", "0"], ["0", "0", "1"]],
                [["3", "0", "1"], ["0", "1", "0"]],
            ],
            "Improper: ",
        ),
    ],
)
def test_intersect_improper_submodules_exit_2(tmp_path, capsys, columns, message):
    payload = {
        "p": 3,
        "n": 3,
        "lattice_M": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "cycles": [{"kind": "submodule", "columns": cols} for cols in columns],
    }
    assert main(["intersect", write(tmp_path / "inst.json", payload)]) == 2
    assert capsys.readouterr().err.startswith(message)


def test_intersect_parse_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["intersect", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "invalid input" in err
    payload = manin_instance(2, 1)
    payload["cycles"][0]["coefficients"] = ["1", "x"]
    path = write(tmp_path / "inst.json", payload)
    assert main(["intersect", path]) == 1
    assert "cycles[0].coefficients" in capsys.readouterr().err


def pair_instance(p, diag):
    n = len(diag)
    return {
        "p": p,
        "n": n,
        "lattice_M": [[("1" if i == j else "0") for j in range(n)] for i in range(n)],
        "lattice_L": [[(str(diag[i]) if i == j else "0") for j in range(n)] for i in range(n)],
    }


def test_dist_modes(tmp_path, capsys):
    path = write(tmp_path / "pair.json", pair_instance(2, [1, 1]))
    assert main(["dist", path]) == 0
    assert capsys.readouterr().out.strip() == "0"

    path = write(tmp_path / "pair.json", pair_instance(3, [1, 3]))
    assert main(["dist", path]) == 0
    assert capsys.readouterr().out.strip() == "1"

    path = write(tmp_path / "pair.json", pair_instance(2, [1, 16]))
    assert main(["dist", path, "--oracle", "both"]) == 0
    assert capsys.readouterr().out.split() == ["4", "4"]

    assert main(["dist", path, "--oracle", "bfs"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch):
    # parsing leaves the parser unchanged, so every call to main reuses the
    # one the first call built; exit codes do not depend on it
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        path = write(tmp_path / "pair.json", pair_instance(2, [1, 16]))
        assert main(["dist", path, "--oracle", "both"]) == 0
        assert capsys.readouterr().out.split() == ["4", "4"]
        assert main(["dist", str(tmp_path / "missing.json")]) == 1
        assert main(["dist", path]) == 0
        assert capsys.readouterr().out.split() == ["4"]
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_verify_small_campaign(capsys):
    rc = main(
        ["verify", "--seed", "11", "--trials", "5", "--n", "2", "--p", "3",
         "--mode", "hyperplanes", "--oracle", "both"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["trials"] == 5
    assert out["agreements"] == 5
    assert out["bfs_checked"] >= 1
    assert "wall_time" in out and "rejections" in out and "max_lhs" in out


def test_verify_skips_bfs_checks_beyond_the_cap(capsys, monkeypatch):
    # trial 1 at (3,5) searches to radius 4 from 217 target classes, which
    # may compute 252,062 keys: under a cap of 10^5 that check is skipped and
    # counted, and the campaign still exits 0
    monkeypatch.setenv("BTPGL_ENUM_CAP", "100000")
    rc = main(
        ["verify", "--n", "3", "--p", "5", "--oracle", "both", "--seed", "72", "--trials", "3"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["agreements"] == 3
    assert (out["bfs_checked"], out["bfs_skipped"]) == (2, 1)


def test_verify_checks_the_search_bound_before_building_targets(capsys, monkeypatch):
    # seed 9 at (5,3) has a window of 61,051 target classes, too many to
    # search from: the check is skipped before any target key is built
    def no_keys(*args):
        raise AssertionError("a window key was built for a skipped check")

    monkeypatch.setattr(cycles, "block_scaled_keys", no_keys)
    argv = ["verify", "--n", "5", "--p", "3", "--seed", "9", "--trials", "1", "--oracle", "both"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["agreements"] == 1
    assert (out["bfs_checked"], out["bfs_skipped"]) == (0, 1)


@pytest.mark.parametrize(
    "argv",
    [
        # n = 4, and rhs 6 at n = 3: the search fits the default cap
        ["--n", "4", "--p", "2", "--seed", "1", "--trials", "3"],
        ["--n", "3", "--p", "2", "--max-val", "6", "--seed", "19", "--trials", "1"],
    ],
)
def test_verify_checks_bfs_whenever_the_search_fits_the_cap(capsys, argv):
    assert main(["verify", "--oracle", "both"] + argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["agreements"] == out["trials"]
    assert (out["bfs_checked"], out["bfs_skipped"]) == (out["trials"], 0)


def test_verify_without_trials_exits_1(capsys):
    assert main(["verify", "--trials", "0"]) == 1
    assert "trials must be at least 1" in capsys.readouterr().err


def test_dist_both_oracles_at_distance_5_within_the_cap(tmp_path, capsys):
    # a ball of radius 5 at (3,3) may hold 10,579,427 classes, but the search
    # from both ends computes at most 18,306 keys, so the BFS runs
    path = write(tmp_path / "pair.json", pair_instance(3, [1, 3, 3**5]))
    assert main(["dist", path, "--oracle", "both"]) == 0
    assert capsys.readouterr().out == "5\n5\n"


def test_verify_higherdim_campaign(capsys):
    rc = main(
        ["verify", "--seed", "3", "--trials", "4", "--n", "3", "--p", "2",
         "--d", "2", "--mode", "higherdim"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["agreements"] == 4


def test_verify_higherdim_retries_on_other_complements(capsys, monkeypatch):
    # the retry keeps the cycles and shifts every default complement of L0
    # by a combination of L0's columns: other complements, same multiplicity
    shifted = []
    decompose = cycles.decompose_intersection

    def recording(cfg, complements=None):
        if complements is not None:
            default = cycles.higherdim_vertex_family(cfg).generators[:-1]
            shifted.append(all(a.columns != b.columns for a, b in zip(default, complements)))
        return decompose(cfg, complements)

    monkeypatch.setattr(cycles, "decompose_intersection", recording)
    argv = ["verify", "--seed", "3", "--trials", "4", "--n", "4", "--p", "3", "--d", "2",
            "--mode", "higherdim"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"trials", "agreements", "rejections", "max_lhs", "failed_seeds", "wall_time"}
    assert out["agreements"] == 4
    assert shifted == [True] * 4


def test_verify_higherdim_disagreement_is_dumped(tmp_path, capsys, monkeypatch):
    decompose = cycles.decompose_intersection

    def off_on_retry(cfg, complements=None):
        dec = decompose(cfg, complements)
        bump = 1 if complements is not None else 0
        return dataclasses.replace(dec, special_multiplicity=dec.special_multiplicity + bump)

    monkeypatch.setattr(cycles, "decompose_intersection", off_on_retry)
    argv = ["verify", "--seed", "5", "--trials", "2", "--n", "3", "--p", "2", "--d", "2",
            "--mode", "higherdim", "--out", str(tmp_path)]
    assert main(argv) == 3
    out = json.loads(capsys.readouterr().out)
    assert (out["agreements"], out["failed_seeds"]) == (0, [5, 6])
    assert (tmp_path / "disagreement_trial_0.json").exists()


@pytest.mark.parametrize("oracle", ["bfs", "both"])
def test_verify_higherdim_checks_the_family_distance_by_bfs(capsys, oracle):
    # the BFS checks the closed-form distance to the complement family
    argv = ["verify", "--n", "4", "--p", "2", "--d", "2", "--mode", "higherdim", "--oracle", oracle,
            "--seed", "1", "--trials", "10"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["agreements"], out["failed_seeds"]) == (10, [])
    assert (out["bfs_checked"], out["bfs_skipped"]) == (10, 0)


def test_export_dot_counts_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "ball1"
    assert main(["export-dot", "--n", "2", "--p", "2", "--radius", "1", "--out", str(out1)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["nodes"], summary["edges"]) == (4, 3)
    dot1 = (tmp_path / "ball1.dot").read_text()
    sidecar = json.loads((tmp_path / "ball1.json").read_text())
    assert len(sidecar) == 4

    out2 = tmp_path / "ball2"
    assert main(["export-dot", "--n", "2", "--p", "2", "--radius", "1", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert (tmp_path / "ball2.dot").read_text() == dot1

    out0 = tmp_path / "ball0"
    assert main(["export-dot", "--n", "2", "--p", "2", "--radius", "0", "--out", str(out0)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["nodes"], summary["edges"]) == (1, 0)

    out3 = tmp_path / "ball3"
    assert main(["export-dot", "--n", "2", "--p", "3", "--radius", "2", "--out", str(out3)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["nodes"] == 17


def test_export_dot_radius_0_builds_no_neighbours(tmp_path, capsys):
    # F_2^12 has about 4.9e11 proper subspaces, far above the cap, but a
    # ball of radius 0 is its centre alone
    start = time.perf_counter()
    assert main(["export-dot", "--n", "12", "--p", "2", "--radius", "0", "--out", str(tmp_path / "x")]) == 0
    assert time.perf_counter() - start < 5.0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["nodes"], summary["edges"]) == (1, 0)


def test_export_dot_with_instance_highlights_geodesic(tmp_path, capsys):
    inst = write(tmp_path / "inst.json", manin_instance(2, 1))
    out = tmp_path / "ball"
    rc = main(
        ["export-dot", "--n", "2", "--p", "2", "--radius", "1", "--out", str(out), "--instance", inst]
    )
    assert rc == 0
    capsys.readouterr()
    dot = (tmp_path / "ball.dot").read_text()
    assert "fillcolor" in dot


def test_export_dot_cap_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BTPGL_ENUM_CAP", "2")
    rc = main(["export-dot", "--n", "2", "--p", "2", "--radius", "1", "--out", str(tmp_path / "x")])
    assert rc == 4
    assert "EnumerationTooLarge" in capsys.readouterr().err


def test_intersect_huge_prime_is_fast(tmp_path, capsys):
    path = write(tmp_path / "inst.json", manin_instance(10**18 + 3, 2))
    start = time.perf_counter()
    assert main(["intersect", path]) == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out) == {"number": 2}


def test_intersect_prime_beyond_certified_bound_exits_1(tmp_path, capsys):
    path = write(tmp_path / "inst.json", manin_instance(2, 1) | {"p": PRIME_BOUND + 2})
    assert main(["intersect", path]) == 1
    assert "invalid input: p:" in capsys.readouterr().err


def test_dist_exponent_notation_exits_1_fast(tmp_path, capsys):
    payload = pair_instance(2, [1, 1])
    payload["lattice_L"][0][0] = "1e200000"
    path = write(tmp_path / "pair.json", payload)
    start = time.perf_counter()
    assert main(["dist", path]) == 1
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err.startswith("invalid input: lattice_L[0][0]:") and err.count("\n") == 1


def test_intersect_deeply_nested_json_exits_1(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    assert main(["intersect", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: {path}:") and err.count("\n") == 1


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_intersect_directory_exits_1(tmp_path, capsys):
    assert main(["intersect", str(tmp_path)]) == 1
    assert str(tmp_path) in _one_line_error(capsys)


def test_export_dot_missing_out_directory_exits_1(tmp_path, capsys):
    out = tmp_path / "missing" / "x"
    assert main(["export-dot", "--n", "2", "--p", "2", "--out", str(out)]) == 1
    assert "missing" in _one_line_error(capsys)


def test_verify_dump_into_missing_directory_exits_1(tmp_path, capsys, monkeypatch):
    def disagree(cfg):
        return cycles.IdentityReport(lhs=1, rhs=0, agree=False, properness=None)

    monkeypatch.setattr(cycles, "verify_intersection_identity", disagree)
    rc = main(["verify", "--trials", "1", "--n", "2", "--out", str(tmp_path / "missing")])
    assert rc == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["agreements"] == 0
    assert json.loads(captured.out)["failed_seeds"] == [1]
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "missing" in captured.err


def test_verify_lists_every_failing_seed(tmp_path, capsys, monkeypatch):
    def disagree(cfg):
        return cycles.IdentityReport(lhs=1, rhs=0, agree=False, properness=None)

    monkeypatch.setattr(cycles, "verify_intersection_identity", disagree)
    rc = main(["verify", "--seed", "7", "--trials", "2", "--n", "2", "--out", str(tmp_path)])
    assert rc == 3
    summary = json.loads(capsys.readouterr().out)
    assert (summary["agreements"], summary["failed_seeds"]) == (0, [7, 8])
    # the first disagreement is dumped
    assert (tmp_path / "disagreement_trial_0.json").exists()


@pytest.mark.parametrize("raw", ["lots", "-1", "1.5", ""])
def test_bad_enumeration_cap_names_the_variable(tmp_path, capsys, monkeypatch, raw):
    monkeypatch.setenv("BTPGL_ENUM_CAP", raw)
    rc = main(["export-dot", "--n", "2", "--p", "2", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "BTPGL_ENUM_CAP" in capsys.readouterr().err


def hyperplane_instance(p, rows):
    n = len(rows[0])
    return {
        "p": p,
        "n": n,
        "lattice_M": [[("1" if i == j else "0") for j in range(n)] for i in range(n)],
        "cycles": [{"kind": "hyperplane", "coefficients": [str(x) for x in row]} for row in rows],
    }


def wide_instance():
    # PROPER_0DIM with number 12 at n = 5: the distance B0 to the family's
    # all-zero member is 12, so its window holds 25^5 - 24^5 = 1,803,001
    # keys, above the default cap
    rows = [[int(i == j) for i in range(5)] for j in range(4)] + [[0, 0, 0, 1, 4096]]
    return hyperplane_instance(2, rows)


def test_export_dot_refuses_an_oversized_family_window(tmp_path, capsys, monkeypatch):
    inst = write(tmp_path / "wide.json", wide_instance())
    assert main(["intersect", inst]) == 0
    assert json.loads(capsys.readouterr().out) == {"number": 12}

    def no_keys(*args):
        raise AssertionError("a window key was built past the cap")

    monkeypatch.setattr(cycles, "block_scaled_keys", no_keys)
    start = time.perf_counter()
    rc = main(["export-dot", "--radius", "0", "--instance", inst, "--out", str(tmp_path / "wide")])
    assert time.perf_counter() - start < 5.0
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("EnumerationTooLarge:") and "1803001" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cap, code", [("9", 0), ("8", 4)])
def test_export_dot_family_window_cap_edge(tmp_path, capsys, monkeypatch, cap, code):
    # the family window of manin_instance(2, 2) holds 5^2 - 4^2 = 9 keys
    monkeypatch.setenv("BTPGL_ENUM_CAP", cap)
    inst = write(tmp_path / "inst.json", manin_instance(2, 2))
    assert main(["export-dot", "--radius", "0", "--instance", inst, "--out", str(tmp_path / "x")]) == code
    assert ("EnumerationTooLarge" in capsys.readouterr().err) == (code == 4)


def axes_instance(p, n):
    # the coordinate axes: rank-one cycles whose codimensions sum to n(n-1)
    return {
        "p": p,
        "n": n,
        "lattice_M": [[("1" if i == j else "0") for j in range(n)] for i in range(n)],
        "cycles": [
            {"kind": "submodule", "columns": [[("1" if i == j else "0") for i in range(n)]]}
            for j in range(n)
        ],
    }


@pytest.mark.parametrize(
    "payload", [hyperplane_instance(3, [(1, 0), (0, 1), (1, 1)]), axes_instance(3, 3)]
)
def test_intersect_empty_overdetermined_prints_zero(tmp_path, capsys, payload):
    path = write(tmp_path / "inst.json", payload)
    assert main(["intersect", path]) == 0
    assert json.loads(capsys.readouterr().out) == {"number": 0}


def test_intersect_improper_overdetermined_exits_2(tmp_path, capsys):
    path = write(tmp_path / "inst.json", hyperplane_instance(3, [(1, 0), (1, 3), (1, 9)]))
    assert main(["intersect", path]) == 2
    assert "Improper" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "1", "-2"])
def test_export_dot_small_n_exits_1(tmp_path, capsys, n):
    assert main(["export-dot", "--n", n, "--out", str(tmp_path / "x")]) == 1
    assert "--n" in _one_line_error(capsys)


def test_export_dot_negative_radius_exits_1(tmp_path, capsys):
    assert main(["export-dot", "--radius", "-1", "--out", str(tmp_path / "x")]) == 1
    assert "radius" in _one_line_error(capsys)
    assert not (tmp_path / "x.dot").exists()


def test_dist_bfs_beyond_enumeration_cap_exits_4(tmp_path, capsys):
    # distance 9 at (3,3): a search from both ends to radius 9 may compute
    # 11,442,706 class keys, far more than 10^6
    path = write(tmp_path / "pair.json", pair_instance(3, [1, 1, 3**9]))
    start = time.perf_counter()
    assert main(["dist", path, "--oracle", "both"]) == 4
    assert time.perf_counter() - start < 5.0
    assert "EnumerationTooLarge" in capsys.readouterr().err


@pytest.mark.parametrize("oracle", ["bfs", "both"])
def test_dist_refused_search_keys_nothing(tmp_path, capsys, monkeypatch, oracle):
    # the search gate runs before the target's class key is computed
    calls = []
    monkeypatch.setattr(cli.building, "class_key", lambda *args: calls.append(args))
    path = write(tmp_path / "pair.json", pair_instance(3, [1, 1, 3**9]))
    assert main(["dist", path, "--oracle", oracle]) == 4
    assert calls == []
    assert "EnumerationTooLarge" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["verify", "--n", "abc"], ["bogus"], [], ["dist"], ["export-dot", "--n", "2"], ["verify", "--oracle", "x"]]
)
def test_usage_errors_exit_1(capsys, argv):
    # argparse exits 2 on a usage error, which here means an improper
    # intersection; every subcommand's parser exits 1 instead
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == cli.EXIT_PARSE == 1
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["export-dot", "-h"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out
