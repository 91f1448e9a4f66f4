"""Tests of the benchmark's oracle and report checkers.

The checkers must accept the reports of working code and reject reports
with a flipped verdict or a flipped ``ok`` field. Reports come from the CLI
run in-process on small inputs; run with the package importable, e.g.

    PYTHONPATH=src python3 -m pytest perfbench/test_bench_checks.py
"""

import copy
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from run import Tally  # noqa: E402

cli = pytest.importorskip("qcontexts.cli")


def rays(name):
    return oracle.ExactRays.from_file(os.path.join(workloads.FIXTURES, name + ".json"))


def run_cli(argv, tmp_path):
    out = tmp_path / "report.json"
    rc = cli.main(argv + ["--output", str(out)])
    return rc, json.loads(out.read_text())


# -- oracle ------------------------------------------------------------------


def test_ks18_parity_proof():
    r = rays("ks18")
    assert r.bases_orthogonal()
    assert len(r.bases) == 9 and set(r.ray_basis_counts()) == {2}
    assert r.parity_obstruction()
    assert not r.colourable(pairs=False)


def test_colouring_verdicts():
    assert rays("peres33").colourable(pairs=False)
    assert not rays("peres33").colourable(pairs=True)
    assert rays("dim2_two_bases").colourable(pairs=False)


def test_exact_poset_sizes():
    peres = oracle.exact_rays_poset(rays("peres33"), pairs=True, coarsenings=False)
    assert (peres.n, len(peres.proper_pairs()), peres.chain_count(),
            peres.naturality_squares()) == (74, 169, 96, 1220)
    assert oracle.exact_rays_poset(rays("ks18"), pairs=False, coarsenings=True).n == 109


def test_float_poset_structure_does_not_depend_on_seed():
    for seed in (1, 2):
        bases, psi = workloads.float_inputs(seed)
        parts = list(oracle.set_partitions(list(range(workloads.FLOAT_DIM))))
        poset = oracle.float_poset(bases, [(f, p) for f in range(len(bases)) for p in parts])
        assert (poset.n, len(poset.proper_pairs())) == (163, 1089)


# -- checkers on ks-check reports -----------------------------------------------


@pytest.fixture(scope="module")
def dim2(tmp_path_factory):
    op = workloads._ks_check("dim2_two_bases", pairs=False)
    rc, report = run_cli(op.argv, tmp_path_factory.mktemp("dim2"))
    return op, rc, report


def test_ks_check_report_passes(dim2):
    op, rc, report = dim2
    assert checks.check(op.kind, rc, report, op.expect) == []


def test_ks_check_flipped_verdict_fails(dim2):
    op, rc, report = dim2
    bad = dict(report, section=None, section_validates=None)
    assert checks.check(op.kind, rc, bad, op.expect)
    assert checks.check(op.kind, rc, report, dict(op.expect, colourable=False))


def test_ks_check_flipped_validation_fails(dim2):
    op, rc, report = dim2
    assert checks.check(op.kind, rc, dict(report, section_validates=False), op.expect)


# -- checkers on presheaf reports ----------------------------------------------


@pytest.fixture(scope="module")
def float_reports(tmp_path_factory):
    """A d = 3 poset: two bases sharing a column, with all coarsenings."""
    tmp = tmp_path_factory.mktemp("float")
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    b = q.copy()
    c, s = np.cos(0.7), np.sin(0.7)
    b[:, 0], b[:, 1] = c * q[:, 0] + s * q[:, 1], -s * q[:, 0] + c * q[:, 1]
    psi = np.cos(0.4) * q[:, 0] + np.sin(0.4) * q[:, 2]
    out = []
    for op in workloads.float_operations([q, b], psi, str(tmp)):
        rc, report = run_cli(op.argv, tmp)
        out.append((op, rc, report))
    return out


def test_float_reports_pass(float_reports):
    for op, rc, report in float_reports:
        assert op.expect["n_contexts"] == 8
        assert checks.check(op.kind, rc, report, op.expect) == [], op.name


@pytest.mark.parametrize("path", [
    ("ok",),
    ("checks", "naturality", "ok"),
    ("checks", "coarse_functoriality", "ok"),
    ("checks", "state_global_element", "ok"),
    ("axioms", "monotonicity", "ok"),
    ("spectral_subobject_check", "ok"),
    ("semantic_subobject_check", "exclusivity", "ok"),
    ("global_element_check", "ok"),
])
def test_flipped_ok_field_fails(float_reports, path):
    hits = 0
    for op, rc, report in float_reports:
        bad = copy.deepcopy(report)
        node = bad
        for key in path[:-1]:
            node = node.get(key)
            if node is None:
                break
        if node is None:
            continue
        node[path[-1]] = not node[path[-1]]
        assert checks.check(op.kind, rc, bad, op.expect), (op.name, path)
        hits += 1
    assert hits


def test_flipped_verdicts_fail(float_reports):
    by_kind = {op.kind: (op, rc, report) for op, rc, report in float_reports}
    op, rc, report = by_kind["intervals"]
    assert checks.check(op.kind, rc, dict(report, ideal_valuation_matches=False), op.expect)
    morphisms = copy.deepcopy(report["coarse_subobject_check"])
    morphisms["morphisms"][0]["equality"] = False
    assert checks.check(op.kind, rc, dict(report, coarse_subobject_check=morphisms), op.expect)
    op, rc, report = by_kind["valuate"]
    table = copy.deepcopy(report["table"])
    stage = next(s for s in table.values() if len(s) > 2)
    stage["1"], stage["2"] = stage["2"], stage["1"] + ["extra"]
    assert checks.check(op.kind, rc, dict(report, table=table), op.expect)
    table.pop(next(iter(table)))
    assert checks.check(op.kind, rc, dict(report, table=table), op.expect)
    op, rc, report = by_kind["verify-axioms"]
    assert checks.check(op.kind, 1, report, op.expect)


# -- failure accounting ----------------------------------------------------------


def test_known_fault_counts_as_failed_not_wrong(tmp_path, monkeypatch):
    op = workloads.Operation("op", [], "verify-axioms", {}, known_fault=frozenset(
        {"exit code 1, expected 0", "ok is false", "checks.state_global_element.ok is false"}))
    path = tmp_path / "r.json"
    path.write_text("{}")
    tally = Tally()
    for problems in (sorted(op.known_fault),
                     sorted(op.known_fault) + ["ok disagrees with the checks"], []):
        monkeypatch.setattr(checks, "check", lambda *a, p=problems: p)
        tally.record(op, 1, str(path))
    assert (tally.attempted, tally.failed) == (3, 2)
    assert [name for name, _ in tally.unexpected] == ["op"]
