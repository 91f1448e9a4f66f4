import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import float_workload

from qcontexts import ks
from qcontexts.cli import main
from qcontexts.contexts import DIM_BOUND
from qcontexts.scalars import get_eps


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


def test_empty_poset_and_empty_rays_give_the_trivial_poset(tmp_path, capsys):
    posets = []
    for flag, obj in [("--rays", {"dim": 3, "field": "int", "rays": []}),
                      ("--poset", {"dim": 3, "contexts": []})]:
        f = tmp_path / "empty.json"
        f.write_text(json.dumps(obj))
        code, out = run(capsys, "build-poset", flag, str(f))
        assert code == 0
        report = json.loads(out)
        assert report["n_contexts"] == 1
        posets.append(report["poset"])
    assert posets[0] == posets[1]


def test_malformed_basis_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({
        "dim": 2, "field": "int", "rays": [[1, 0], [1, 1]], "bases": [[0, 1]],
    }))
    code, out = run(capsys, "build-poset", "--rays", str(f))
    assert code == 2
    assert "basis" in json.loads(out)["error"]


@pytest.mark.parametrize("field, code", [("int", 2), (None, 2), ("quadratic_sqrt2", 0)])
def test_sqrt2_pair_entries_need_the_quadratic_field(tmp_path, capsys, field, code):
    # (1, sqrt 2) and (sqrt 2, -1): an orthogonal basis over Q(sqrt 2)
    obj = {"dim": 2, "rays": [[1, [0, 1]], [[0, 1], -1]]}
    if field is not None:
        obj["field"] = field
    f = tmp_path / "rays.json"
    f.write_text(json.dumps(obj))
    got, out = run(capsys, "build-poset", "--rays", str(f))
    assert got == code
    if code == 2:
        lines = out.splitlines()
        assert len(lines) == 1 and list(json.loads(lines[0])) == ["error"]
        assert "ray 0" in lines[0] and "quadratic_sqrt2" in lines[0]
    else:
        assert json.loads(out)["n_contexts"] == 2


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


@pytest.mark.parametrize("command, state, reason", [
    ("valuate", "diag:100000001/100000000,-1/100000000", "positive semidefinite"),
    ("verify-axioms", "diag:1/2,50000001/100000000", "trace is not 1"),
    ("valuate", "vec:1/0,1,0,0", "zero denominator"),
    ("intervals", "diag:1/0,0,0,0", "zero denominator"),
])
def test_invalid_exact_state_exits_2(capsys, command, state, reason):
    # off by 1e-8: inside a float tolerance, but not a density matrix
    code, out = run(capsys, command, "--rays", "dim2_two_bases", "--state", state)
    assert code == 2
    assert out.count("\n") == 1 and reason in json.loads(out)["error"]


def test_zero_denominator_threshold_exits_2(capsys):
    code, out = run(capsys, "valuate", "--rays", "dim2_two_bases", "--r", "1/0")
    assert code == 2
    assert out.count("\n") == 1 and "zero denominator" in json.loads(out)["error"]


@pytest.mark.parametrize("command", ["valuate", "intervals", "verify-axioms"])
def test_bad_threshold_is_refused_before_the_build(capsys, monkeypatch, command):
    # --r needs no poset, so it is parsed before any is built
    def no_build(*args, **kwargs):
        raise AssertionError("the poset was built")

    monkeypatch.setattr(ks, "poset_from_rayset", no_build)
    code, out = run(capsys, command, "--rays", "peres33", "--pairs", "--r", "2")
    assert code == 2
    assert out.count("\n") == 1 and "threshold r" in json.loads(out)["error"]


def test_state_too_large_for_floats_exits_2(tmp_path, capsys):
    code, out = run(capsys, "build-poset", "--rays", "dim2_two_bases")
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps(json.loads(out)["poset"]))
    code, out = run(capsys, "valuate", "--poset", str(poset), "--state", "vec:1e400,1")
    assert code == 2
    assert out.count("\n") == 1 and "too large" in json.loads(out)["error"]


@pytest.mark.parametrize("scaled, unit", [
    ("vec:1e-5,0,0,0,0", "vec:1,0,0,0,0"),
    ("vec:1e200,1e200,0,0,0", "vec:1,1,0,0,0"),
])
def test_tiny_and_huge_float_rays_give_the_unit_ray_reports(tmp_path, capsys, scaled, unit):
    # <v, v> underflows below eps for the first ray and overflows for the
    # second; the ray is scaled by its largest entry first
    path, _ = float_workload(501, str(tmp_path))
    for command in ("valuate", "intervals"):
        reports = []
        for state in (scaled, unit):
            code, out = run(capsys, command, "--poset", path, "--state", state)
            report = json.loads(out)
            assert code in (0, 1) and "error" not in report
            assert report["config"].pop("state") == state
            reports.append((code, report))
        assert reports[0] == reports[1]


@pytest.mark.parametrize("eps", ["-1", "nan", "0", "inf"])
def test_invalid_eps_exits_2(capsys, eps):
    before = get_eps()
    code, out = run(capsys, "ks-check", "--rays", "dim2_two_bases", "--eps", eps)
    assert code == 2
    assert out.count("\n") == 1 and "tolerance" in json.loads(out)["error"]
    assert get_eps() == before


def test_eps_is_restored_when_main_returns(tmp_path, capsys):
    code, out = run(capsys, "build-poset", "--rays", "dim2_two_bases")
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps(json.loads(out)["poset"]))
    before = get_eps()
    code, out = run(capsys, "valuate", "--poset", str(poset), "--eps", "1e-3")
    assert code == 0 and json.loads(out)["config"]["eps"] == 1e-3
    assert get_eps() == before


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


@pytest.mark.parametrize("argv, unchecked", [
    (["verify-axioms", "--no-exclusivity", "--no-unit"],
     [("checks", "valuation_axioms", "exclusivity"),
      ("checks", "valuation_axioms", "unit_proposition")]),
    (["valuate", "--no-exclusivity", "--no-unit"],
     [("axioms", "exclusivity"), ("axioms", "unit_proposition")]),
    (["intervals", "--state", "basis-0", "--no-exclusivity"],
     [("semantic_subobject_check", "exclusivity")]),
], ids=["verify-axioms", "valuate", "intervals"])
def test_axiom_flags_reach_the_checks(capsys, argv, unchecked):
    code, out = run(capsys, *argv, "--rays", "dim2_two_bases")
    assert code == 0
    report = json.loads(out)
    for path in unchecked:
        law = report
        for key in path:
            law = law[key]
        assert law == {"ok": True, "counterexample": None, "checked": False}


@pytest.mark.parametrize("argv", [
    ["intervals", "--rays", "dim2_two_bases", "--no-unit"],
    ["valuate", "--poset", "poset.json", "--rays", "dim2_two_bases"],
    ["verify-axioms", "--poset", "poset.json", "--pairs"],
    ["intervals", "--poset", "poset.json", "--coarsenings"],
    ["build-poset", "--poset", "poset.json", "--no-close"],
    ["valuate", "--rays", "dim2_two_bases", "--eps", "1e-3"],
    ["intervals", "--rays", "dim2_two_bases", "--coarsenings", "--no-close"],
], ids=["intervals-no-unit", "poset-rays", "poset-pairs", "poset-coarsenings",
        "poset-no-close", "rays-eps", "coarsenings-no-close"])
def test_flag_that_does_not_apply_exits_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "build-poset", "--rays", "dim2_two_bases")
    (tmp_path / "poset.json").write_text(json.dumps(json.loads(out)["poset"]))
    code, out = run(capsys, *argv)
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1 and "not apply" in json.loads(lines[0])["error"]


@pytest.mark.parametrize("pairs", [[], ["--pairs"]])
def test_coarsenings_of_eight_atoms_are_refused(tmp_path, capsys, pairs):
    # Bell(8) = 4,140 coarsenings: refused before any is built
    f = tmp_path / "basis8.json"
    f.write_text(json.dumps({"dim": 8, "rays": [[int(i == k) for i in range(8)] for k in range(8)],
                             "bases": [list(range(8))]}))
    code, out = run(capsys, "build-poset", "--rays", str(f), "--coarsenings", *pairs)
    assert code == 2
    assert "coarsenings are enumerated up to 7" in json.loads(out)["error"]


def test_report_pretty_print(tmp_path, capsys):
    f = tmp_path / "r.json"
    f.write_text('{"b": 1, "a": 2}')
    code, out = run(capsys, "report", str(f))
    assert code == 0
    assert out.index('"a"') < out.index('"b"')


def test_close_flag_is_gone_no_close_stays(capsys):
    code, out = run(capsys, "build-poset", "--rays", "dim2_two_bases", "--close")
    assert code == 2
    code, out = run(capsys, "build-poset", "--rays", "dim2_two_bases", "--no-close")
    assert code == 0 and json.loads(out)["config"]["close"] is False


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
    {"dim": 2, "rays": [[1, "1/0"], [0, 1]]},
    {"dim": 2, "rays": [[1, {}], [0, 1]]},
    {"dim": 2, "rays": [[1, 1e400], [0, 1]]},  # written as Infinity, loaded as inf
    {"dim": 1000000, "rays": []},
], ids=["top-level-list", "null-entry", "bool-entry", "basis-index-5",
        "basis-index-minus-1", "bool-dim", "short-ray", "zero-denominator-entry",
        "object-entry", "overflow-entry", "huge-dim"])
def test_malformed_rayset_exits_2_with_one_error(tmp_path, capsys, rayset):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(rayset))
    code, out = run(capsys, "build-poset", "--rays", str(f))
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1 and list(json.loads(lines[0])) == ["error"]


# JSON values a ray file may hold where a number is expected
ENTRY_VALUES = st.one_of(
    st.integers(-2, 2),
    st.sampled_from(["1/2", "-3/4", "1/0", "abc", "", "inf", "nan", "1e400"]),
    st.sampled_from([0.5, 2.0, 1e300, float("inf"), float("nan")]),
    st.none(), st.booleans(), st.just({}),
    st.lists(st.one_of(st.integers(-2, 2), st.sampled_from(["1/2", "1/0", None])), max_size=3),
)


@st.composite
def ray_files(draw):
    """Mostly well-shaped small ray sets with some malformed parts."""
    dim = draw(st.integers(1, 3)) if draw(st.integers(0, 9)) else draw(
        st.sampled_from([0, -1, "3", None, True, 2.5]))
    width = dim if isinstance(dim, int) and not isinstance(dim, bool) and 1 <= dim <= 3 else 2

    @st.composite
    def ray(draw):
        if not draw(st.integers(0, 9)):
            return draw(st.one_of(st.lists(ENTRY_VALUES, max_size=4), ENTRY_VALUES))
        return [draw(st.integers(-2, 2)) if draw(st.integers(0, 5)) else draw(ENTRY_VALUES)
                for _ in range(width)]

    obj = {"dim": dim, "rays": draw(st.lists(ray(), max_size=5))}
    if draw(st.booleans()):
        obj["bases"] = draw(st.lists(st.one_of(
            st.lists(st.integers(-1, 5), min_size=width, max_size=width), ENTRY_VALUES),
            max_size=3))
    if not draw(st.integers(0, 4)):
        obj["field"] = draw(st.sampled_from(["int", "quadratic_sqrt2", "complex", 3]))
    top = draw(st.sampled_from(["object"] * 8 + ["list", "number"]))
    return {"object": obj, "list": [obj], "number": 3}[top]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ray_files(), st.sampled_from(["ks-check", "build-poset"]))
def test_any_ray_file_gives_exit_0_1_or_2(obj, command):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "rays.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command, "--rays", path])
    assert code in (0, 1, 2)
    if code == 2:
        lines = out.getvalue().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert isinstance(error, dict) and list(error) == ["error"]
    else:
        json.loads(out.getvalue())


@pytest.mark.parametrize("poset", [
    [],
    {"dim": 2, "contexts": 5},
    {"dim": 2, "contexts": [{"atoms": 3}]},
    {"dim": None, "contexts": []},
    {"dim": 2, "contexts": [{"atoms": [{"dim": 2, "re": [[1, {}], [0, 1]],
                                        "im": [[0, 0], [0, 0]]}]}]},
    # a string and a boolean that read as 1 and 0 would make a valid context
    {"dim": 2, "contexts": [{"atoms": [
        {"dim": 2, "re": [["1", 0], [0, False]], "im": [[0, 0], [0, 0]]},
        {"dim": 2, "re": [[0, 0], [0, 1]], "im": [[0, 0], [0, 0]]}]}]},
    {"dim": 2, "contexts": [{"atoms": [
        {"dim": 2, "re": [[True, 0], [0, 0]], "im": [[0, 0], [0, 0]]},
        {"dim": 2, "re": [[0, 0], [0, 1]], "im": [[0, 0], [0, 0]]}]}]},
    {"dim": 2, "contexts": [{"atoms": [
        {"dim": 2, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, None]]},
        {"dim": 2, "re": [[0, 0], [0, 1]], "im": [[0, 0], [0, 0]]}]}]},
    {"dim": 1, "contexts": [{"atoms": [{"dim": 1, "re": [[10 ** 400]], "im": [[0]]}]}]},
    # an empty poset builds the dim x dim identity, so dim is bounded first
    {"dim": DIM_BOUND + 1, "contexts": []},
    {"dim": 0, "contexts": []},
], ids=["top-level-list", "contexts-number", "atoms-number", "null-dim", "object-entry",
        "string-and-bool-entries", "bool-entry", "null-entry", "overflow-entry",
        "dim-above-bound", "zero-dim"])
def test_malformed_poset_exits_2_with_one_error(tmp_path, capsys, poset):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(poset))
    code, out = run(capsys, "build-poset", "--poset", str(f))
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1 and list(json.loads(lines[0])) == ["error"]


@pytest.mark.parametrize("argv", [
    ["build-poset", "--poset", "FILE"],
    ["ks-check", "--rays", "FILE"],
    ["valuate", "--rays", "ks18", "--state", "FILE"],
    ["report", "FILE"],
], ids=["poset", "rays", "state", "report"])
def test_deeply_nested_json_exits_2_with_one_error(tmp_path, capsys, argv):
    f = tmp_path / "deep.json"
    f.write_text("[" * 100_000)
    code, out = run(capsys, *[str(f) if a == "FILE" else a for a in argv])
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1 and list(json.loads(lines[0])) == ["error"]


def test_malformed_state_file_exits_2(tmp_path, capsys):
    f = tmp_path / "state.json"
    f.write_text("[]")
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps({"dim": 2, "contexts": []}))
    code, out = run(capsys, "valuate", "--poset", str(poset), "--state", str(f))
    assert code == 2
    assert out.count("\n") == 1 and "operator JSON" in json.loads(out)["error"]


@pytest.mark.parametrize("command", ["valuate", "intervals", "verify-axioms"])
def test_state_file_with_rays_names_the_float_backend(tmp_path, capsys, command):
    """A density-matrix file is a float state and a ray poset is exact: the
    error says so, not that two backends met, and the file works with
    --poset."""
    f = tmp_path / "rho.json"
    f.write_text(json.dumps({"dim": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}))
    code, out = run(capsys, command, "--rays", "dim2_two_bases", "--state", str(f))
    assert code == 2
    error = json.loads(out)["error"]
    assert error.startswith("ValidationError: a density-matrix file is a float state")
    assert "--poset" in error
    code, out = run(capsys, "build-poset", "--rays", "dim2_two_bases")
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps(json.loads(out)["poset"]))
    code, out = run(capsys, command, "--poset", str(poset), "--state", str(f))
    assert code == 0 and json.loads(out)["ok"]


JSON_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 5), st.just(2.0),
                      st.sampled_from(["2", "x", ""]), st.just({}), st.just([]),
                      st.lists(st.integers(0, 1), max_size=3))


@st.composite
def operator_json(draw, width):
    """Mostly a diagonal 0/1 projector of the given width; sometimes junk."""
    if not draw(st.integers(0, 7)):
        return draw(JSON_JUNK)
    diag = draw(st.lists(st.integers(0, 1), min_size=width, max_size=width))
    obj = {"dim": width,
           "re": [[diag[i] if i == j else 0 for j in range(width)] for i in range(width)],
           "im": [[0] * width for _ in range(width)]}
    if not draw(st.integers(0, 5)):
        obj[draw(st.sampled_from(["dim", "re", "im"]))] = draw(st.one_of(
            JSON_JUNK, st.just([[1, None], [0, 1]]), st.just([[1, [0]], [0, 1]])))
    return obj


@st.composite
def poset_files(draw):
    """Mostly well-shaped small poset files (partitions of the standard basis)
    with some malformed parts."""
    dim = draw(st.integers(1, 3)) if draw(st.integers(0, 9)) else draw(JSON_JUNK)
    width = dim if isinstance(dim, int) and not isinstance(dim, bool) and 1 <= dim <= 3 else 2

    @st.composite
    def context(draw):
        if not draw(st.integers(0, 9)):
            return draw(st.one_of(JSON_JUNK, st.fixed_dictionaries({"atoms": JSON_JUNK})))
        return {"atoms": draw(st.lists(operator_json(width), min_size=1, max_size=3))}

    obj = {"dim": dim, "contexts": draw(st.lists(context(), max_size=4))}
    top = draw(st.sampled_from(["object"] * 8 + ["list", "number"]))
    return {"object": obj, "list": [obj], "number": 3}[top], draw(operator_json(width))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(poset_files(), st.sampled_from(["build-poset", "valuate", "valuate-state-file"]))
def test_any_poset_file_gives_exit_0_1_or_2(files, command):
    poset, state = files
    with tempfile.TemporaryDirectory() as d:
        paths = []
        for name, obj in (("poset.json", poset), ("state.json", state)):
            paths.append(os.path.join(d, name))
            with open(paths[-1], "w") as fh:
                json.dump(obj, fh)
        argv = [command.split("-state")[0], "--poset", paths[0]]
        if command == "valuate-state-file":
            argv += ["--state", paths[1]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        lines = out.getvalue().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert isinstance(error, dict) and list(error) == ["error"]
    else:
        json.loads(out.getvalue())
