import json

import pytest

from qcontexts.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def diag3_file(tmp_path):
    f = tmp_path / "diag3.json"
    f.write_text(json.dumps({
        "dim": 3, "field": "int",
        "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "bases": [[0, 1, 2]],
    }))
    return str(f)


def test_build_poset_from_fixture(capsys):
    code, out = run(capsys, "build-poset", "--rays", "dim2_two_bases")
    assert code == 0
    report = json.loads(out)
    assert report["n_contexts"] == 3 and report["n_maximal"] == 2
    assert report["config"]["rays"] == "dim2_two_bases"


def test_build_poset_empty_rays(tmp_path, capsys):
    f = tmp_path / "empty.json"
    f.write_text(json.dumps({"dim": 3, "field": "int", "rays": []}))
    code, out = run(capsys, "build-poset", "--rays", str(f))
    assert code == 0
    assert json.loads(out)["n_contexts"] == 1  # the trivial context only


def test_malformed_basis_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({
        "dim": 2, "field": "int", "rays": [[1, 0], [1, 1]], "bases": [[0, 1]],
    }))
    code, out = run(capsys, "build-poset", "--rays", str(f))
    assert code == 2
    assert "basis" in json.loads(out)["error"]


def test_valuate_pure_state_all_axioms(tmp_path, capsys):
    code, out = run(capsys, "valuate", "--rays", diag3_file(tmp_path),
                    "--state", "basis-0", "--r", "1")
    assert code == 0
    report = json.loads(out)
    assert report["ok"]
    assert all(v["ok"] for v in report["axioms"].values() if isinstance(v, dict))


def test_valuate_exclusivity_failure(tmp_path, capsys):
    code, out = run(capsys, "valuate", "--rays", diag3_file(tmp_path),
                    "--state", "diag:0.4,0.4,0.2", "--r", "0.3")
    assert code == 1
    report = json.loads(out)
    assert not report["axioms"]["exclusivity"]["ok"]
    assert report["axioms"]["exclusivity"]["counterexample"]


def test_valuate_r_out_of_range(tmp_path, capsys):
    code, out = run(capsys, "valuate", "--rays", diag3_file(tmp_path),
                    "--state", "basis-0", "--r", "1.5")
    assert code == 2


def test_intervals_pure_state(tmp_path, capsys):
    code, out = run(capsys, "intervals", "--rays", diag3_file(tmp_path),
                    "--state", "basis-0", "--r", "1")
    assert code == 0
    report = json.loads(out)
    assert report["ideal_valuation_matches"] is True
    assert report["global_element_check"]["ok"]


def test_intervals_unnormalized_vector_state(tmp_path, capsys):
    code, out = run(capsys, "intervals", "--rays", diag3_file(tmp_path),
                    "--state", "vec:1,1,0")
    assert code == 0
    assert json.loads(out)["ideal_valuation_matches"] is True


def test_intervals_threshold_reports_violation(tmp_path, capsys):
    code, out = run(capsys, "intervals", "--rays", diag3_file(tmp_path),
                    "--coarsenings", "--state", "diag:0.5,0.3,0.2", "--r", "0.6")
    assert code == 1
    report = json.loads(out)
    assert not report["global_element_check"]["ok"]
    assert report["global_element_check"]["violating_morphism"]
    # containment of the threshold family still holds
    assert report["coarse_subobject_check"]["ok"]


def test_intervals_maximally_mixed_full_spectrum(tmp_path, capsys):
    code, out = run(capsys, "intervals", "--rays", diag3_file(tmp_path),
                    "--state", "maximally-mixed")
    assert code == 0
    report = json.loads(out)
    for cid, idxs in report["true_subobject"].items():
        assert len(idxs) >= 1  # full spectrum at every stage
    assert all(len(v) in (1, 3) for v in report["true_subobject"].values())


def test_ks_check_fixtures(capsys):
    code, out = run(capsys, "ks-check", "--rays", "dim2_two_bases")
    assert code == 0
    report = json.loads(out)
    assert report["section"] is not None and report["section_validates"]
    assert report["nodes_explored"] == 2

    code, out = run(capsys, "ks-check", "--rays", "ks18")
    assert code == 0
    report = json.loads(out)
    assert report["section"] is None
    assert report["nodes_explored"] == 804
    assert report["elapsed_ms"] is None
    assert "threads" not in report["config"] and "seed" not in report["config"]


def test_verify_axioms(tmp_path, capsys):
    code, out = run(capsys, "verify-axioms", "--rays", diag3_file(tmp_path),
                    "--state", "maximally-mixed")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and all(c["ok"] for c in report["checks"].values())


def test_report_pretty_print(tmp_path, capsys):
    f = tmp_path / "r.json"
    f.write_text('{"b": 1, "a": 2}')
    code, out = run(capsys, "report", str(f))
    assert code == 0
    assert out.index('"a"') < out.index('"b"')


def test_missing_input_exits_2(capsys):
    code, out = run(capsys, "valuate", "--state", "basis-0")
    assert code == 2


def test_outputs_are_deterministic(tmp_path, capsys):
    outputs = []
    for _ in range(2):
        code, out = run(capsys, "valuate", "--rays", diag3_file(tmp_path),
                        "--state", "diag:1/2,3/10,1/5", "--r", "3/5")
        outputs.append((code, out))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("rayset", [
    [1, 2],
    {"dim": 2, "rays": [[1, None], [0, 1]]},
    {"dim": 2, "rays": [[1, True], [0, 1]]},
    {"dim": 2, "rays": [[1, 0], [0, 1]], "bases": [[0, 5]]},
    {"dim": 2, "rays": [[1, 0], [0, 1]], "bases": [[0, -1]]},
    {"dim": True, "rays": [[1]]},
    {"dim": 2, "rays": [[1, 0], [0, 1, 0]]},
], ids=["top-level-list", "null-entry", "bool-entry", "basis-index-5",
        "basis-index-minus-1", "bool-dim", "short-ray"])
def test_malformed_rayset_exits_2_with_one_error(tmp_path, capsys, rayset):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(rayset))
    code, out = run(capsys, "build-poset", "--rays", str(f))
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1 and list(json.loads(lines[0])) == ["error"]
