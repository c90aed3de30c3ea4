"""Command-line interface: outputs, exit codes, golden files."""
import json
from pathlib import Path

from transverse_index import gen_cpn, load_setup, save_setup, setup_to_json
from transverse_index.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sphere_path(tmp_path):
    path = tmp_path / "sphere.json"
    path.write_text((GOLDEN / "sphere.json").read_text())
    return path


def test_index_sphere(capsys, tmp_path):
    code, out, _ = run(capsys, "index", sphere_path(tmp_path), "--b", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 1
    assert {entry["name"]: entry["term"] for entry in doc["per_point"]} == {
        "NP": 0,
        "SP": 1,
    }
    code, out, _ = run(capsys, "index", sphere_path(tmp_path), "--b", "0")
    assert code == 0 and json.loads(out)["value"] == 0


def test_index_empty_setup(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(
        '{"m": 0, "tau": [], "operator_kind": "generic", "points": []}'
    )
    code, out, _ = run(capsys, "index", path, "--b", "")
    assert code == 0 and json.loads(out)["value"] == 0

    rank_one = tmp_path / "empty1.json"
    rank_one.write_text(
        '{"m": 1, "tau": ["1"], "operator_kind": "generic", "points": []}'
    )
    code, out, _ = run(capsys, "index", rank_one, "--b", "0")
    assert code == 0 and json.loads(out)["value"] == 0


def test_index_signature_sum_cp12(capsys, tmp_path):
    path = tmp_path / "cp12.json"
    code, _, _ = run(
        capsys, "generate", "cpn", "--n", "12", "--kind", "signature", "--out", path
    )
    assert code == 0
    code, out, _ = run(
        capsys,
        "index",
        path,
        "--b",
        "0,1,0,0,76,0,0,0,0,0,-51,-24,-2",
        "--mode",
        "signature-sum",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 0
    assert [e["term"] for e in doc["per_point"]] == [
        0, 0, 0, 0, 16, -32, 32, -32, 32, -32, 16, 0, 0,
    ]


def test_exit_codes(capsys, tmp_path):
    code, _, err = run(capsys, "index", tmp_path / "missing.json", "--b", "1")
    assert code == 3 and "missing.json" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, _ = run(capsys, "index", bad, "--b", "1")
    assert code == 3

    invalid = tmp_path / "invalid.json"
    invalid.write_text(
        json.dumps(
            {
                "m": 1,
                "tau": ["1"],
                "operator_kind": "generic",
                "points": [
                    {
                        "name": "x",
                        "base_orientation": 1,
                        "group_sign": 1,
                        "tangent_weights": [[0]],
                        "lines": [],
                    }
                ],
            }
        )
    )
    code, _, err = run(capsys, "index", invalid, "--b", "1")
    assert code == 2 and "validation failed" in err

    code, _, err = run(capsys, "index", sphere_path(tmp_path), "--b", "1,2")
    assert code == 2 and "rank" in err

    code, _, _ = run(capsys, "index", sphere_path(tmp_path), "--b", "x")
    assert code == 3


def test_spectrum_command(capsys, tmp_path):
    code, out, _ = run(
        capsys, "spectrum", sphere_path(tmp_path), "--b", "-3", "--cutoff", "20"
    )
    assert code == 0
    # north pole contributes 0, 8, 16; the reversed south pole starts at 16
    assert json.loads(out) == {"0": 1, "8": 2, "16": 4}

    code, out, _ = run(
        capsys, "spectrum", sphere_path(tmp_path), "--b", "1", "--cutoff", "8"
    )
    assert code == 0 and json.loads(out) == {"0": 1, "8": 4}

    code, out, _ = run(
        capsys, "spectrum", sphere_path(tmp_path), "--b", "2", "--cutoff", "0"
    )
    assert code == 0 and json.loads(out) == {}

    code, out, _ = run(
        capsys,
        "spectrum", sphere_path(tmp_path), "--b", "1", "--cutoff", "8",
        "--mode", "numeric",
    )
    assert code == 0 and json.loads(out) == {"0": 1, "8": 4}

    code, _, _ = run(
        capsys, "spectrum", sphere_path(tmp_path), "--b", "1", "--cutoff", "-2"
    )
    assert code == 2
    code, _, _ = run(
        capsys, "spectrum", sphere_path(tmp_path), "--b", "1", "--cutoff", "x"
    )
    assert code == 3


def test_verify_command(capsys, tmp_path):
    cp2 = tmp_path / "cp2.json"
    save_setup(gen_cpn(2, kind="signature"), cp2)
    code, out, _ = run(capsys, "verify", cp2, "--bmax", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["check"] == "killing-identity" and doc["nonzero"] == []

    de_rham = tmp_path / "cp2d.json"
    save_setup(gen_cpn(2, kind="deRham"), de_rham)
    code, out, _ = run(capsys, "verify", de_rham, "--bmax", "5")
    assert code == 0 and json.loads(out)["check"] == "deRham-vanishing"

    code, out, _ = run(capsys, "verify", de_rham, "--b-list", "1,0,-1;2,-1,-1")
    assert code == 0 and json.loads(out)["checked"] == 2

    # flip one grading: the vanishing breaks and the exit code reports it
    doc = json.loads(de_rham.read_text())
    doc["points"][0]["lines"][1]["grading"] = 1
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", broken, "--bmax", "4")
    assert code == 1
    report = json.loads(out)
    assert report["nonzero"]

    code, _, err = run(capsys, "verify", sphere_path(tmp_path), "--bmax", "2")
    assert code == 2 and "verify needs" in err

    code, _, _ = run(capsys, "verify", de_rham)
    assert code == 3


def test_verify_refuses_to_check_nothing(capsys, tmp_path):
    # a sweep over no nonzero character would pass vacuously: exit 2 instead
    de_rham = tmp_path / "cp2d.json"
    save_setup(gen_cpn(2, kind="deRham"), de_rham)
    signature = tmp_path / "cp2s.json"
    save_setup(gen_cpn(2, kind="signature"), signature)
    for path in (de_rham, signature):
        for bound in ("-3", "0"):
            code, out, err = run(capsys, "verify", path, "--bmax", bound)
            assert code == 2 and out == ""
            assert f"box bound {bound}" in err and "nothing would be checked" in err
        code, out, err = run(capsys, "verify", path, "--b-list", "0,0,0")
        assert code == 2 and out == ""
        assert "character list" in err and "nothing would be checked" in err


def test_generate_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "generate", "sphere")
    assert code == 0
    assert out == (GOLDEN / "sphere.json").read_text()

    path = tmp_path / "cp2.json"
    code, _, _ = run(capsys, "generate", "cpn", "--n", "2", "--out", path)
    assert code == 0
    setup = load_setup(path)
    assert setup == gen_cpn(2)
    assert setup_to_json(setup) == path.read_text()

    code, _, _ = run(
        capsys, "generate", "cpn", "--n", "2", "--tau", "1,3,9", "--out", path
    )
    assert code == 0 and load_setup(path) == gen_cpn(2, tau=[1, 3, 9])

    code, _, _ = run(capsys, "generate", "cpn", "--out", path)
    assert code == 3
    code, _, _ = run(capsys, "generate", "cpn", "--n", "2", "--tau", "9,3,1")
    assert code == 2
    code, _, _ = run(capsys, "generate", "cpn", "--n", "0")
    assert code == 2


def test_branch_su2_command(capsys, tmp_path):
    path = tmp_path / "su2.json"
    code, _, _ = run(capsys, "generate", "su2modt", "--out", path)
    assert code == 0
    code, out, _ = run(capsys, "branch-su2", path, "--n", "0")
    assert code == 0 and json.loads(out) == {"value": "2"}
    code, out, _ = run(capsys, "branch-su2", path, "--n", "7")
    assert code == 0 and json.loads(out) == {"value": "0"}

    code, out, _ = run(
        capsys, "branch-su2", FIXTURES / "delta_at_five.json", "--n", "5"
    )
    assert code == 0 and json.loads(out) == {"value": "1/2"}

    code, _, err = run(capsys, "branch-su2", path, "--n", "-2")
    assert code == 2 and "--n" in err


def test_spectrum_keys_sorted_by_value(capsys, tmp_path):
    code, out, _ = run(
        capsys, "spectrum", sphere_path(tmp_path), "--b", "-3", "--cutoff", "24"
    )
    assert code == 0
    keys = list(json.loads(out).keys())
    from fractions import Fraction

    assert keys == sorted(keys, key=Fraction)
