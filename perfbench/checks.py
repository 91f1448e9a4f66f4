"""Checks of CLI reports against independently computed answers.

Each checker takes the exit code, the parsed report and the operation's
expected answer, and returns the list of problems found; an empty list
means the report is right. At r = 1 every law the report checks must hold,
so every ``ok`` field must be true; the counts the report carries must equal
the ones computed from the oracle's own poset.
"""

from __future__ import annotations

from collections import Counter


def _ok(problems, obj, path):
    if not isinstance(obj, dict) or obj.get("ok") is not True:
        problems.append(f"{path}.ok is false" if path else "ok is false")


def _equal(problems, path, got, want):
    if got != want:
        problems.append(f"{path} is {got!r}, expected {want!r}")


def _exit(problems, rc, want=0):
    if rc != want:
        problems.append(f"exit code {rc}, expected {want}")


def check_ks(rc, report, expect):
    """ks-check: the verdict agrees with the colouring search, a section
    found validates, and the poset sizes agree."""
    p = []
    _exit(p, rc)
    section = report.get("section")
    if expect["colourable"]:
        if not isinstance(section, dict):
            p.append("section is null, but the ray set is colourable")
        else:
            _equal(p, "section_validates", report.get("section_validates"), True)
            _equal(p, "len(section)", len(section), expect["n_contexts"])
    else:
        if section is not None:
            p.append("a section is reported, but the ray set is not colourable")
        _equal(p, "section_validates", report.get("section_validates"), None)
    _equal(p, "n_contexts", report.get("n_contexts"), expect["n_contexts"])
    _equal(p, "n_maximal", report.get("n_maximal"), expect["n_maximal"])
    nodes = report.get("nodes_explored")
    if not isinstance(nodes, int) or nodes < 1:
        p.append(f"nodes_explored is {nodes!r}")
    return p


def _all_morphisms(p, path, check, keys, expect):
    morphisms = check.get("morphisms") if isinstance(check, dict) else None
    if not isinstance(morphisms, list):
        p.append(f"{path}.morphisms is missing")
        return
    _equal(p, f"len({path}.morphisms)", len(morphisms), expect["proper_pairs"])
    for key in keys:
        bad = sum(1 for m in morphisms if m.get(key) is not True)
        if bad:
            p.append(f"{path}: {key} fails on {bad} morphisms")


VALUATION_AXIOMS = ("functional_composition", "null_proposition", "monotonicity",
                    "exclusivity", "unit_proposition")
SEMANTIC_PARTS = ("functional_composition", "null_proposition", "monotonicity", "exclusivity")


def _valuation_axioms(p, path, axioms):
    for k in VALUATION_AXIOMS:
        _ok(p, axioms.get(k) if isinstance(axioms, dict) else None, f"{path}.{k}")
    for k in ("exclusivity", "unit_proposition"):
        if isinstance(axioms, dict) and isinstance(axioms.get(k), dict):
            _equal(p, f"{path}.{k}.checked", axioms[k].get("checked"), True)
    _ok(p, axioms, path)


def check_verify_axioms(rc, report, expect):
    """verify-axioms: every law holds, and each check covered exactly the
    stages, morphisms, chains and squares of the oracle's poset."""
    p = []
    _exit(p, rc)
    checks = report.get("checks") or {}
    fun = checks.get("coarse_functoriality") or {}
    _ok(p, fun, "checks.coarse_functoriality")
    _equal(p, "checks.coarse_functoriality.chains_checked", fun.get("chains_checked"),
           expect["chains"])
    iso = checks.get("clopen_isomorphism") or {}
    _ok(p, iso, "checks.clopen_isomorphism")
    _equal(p, "checks.clopen_isomorphism.stages_checked", iso.get("stages_checked"),
           expect["n_contexts"])
    _equal(p, "checks.clopen_isomorphism.morphisms_checked", iso.get("morphisms_checked"),
           expect["proper_pairs"])
    _valuation_axioms(p, "checks.valuation_axioms", checks.get("valuation_axioms"))
    nat = checks.get("naturality") or {}
    _ok(p, nat, "checks.naturality")
    _equal(p, "checks.naturality.squares_checked", nat.get("squares_checked"), expect["squares"])
    _ok(p, checks.get("state_global_element"), "checks.state_global_element")
    sub = checks.get("coarse_subobject") or {}
    _ok(p, sub, "checks.coarse_subobject")
    _equal(p, "checks.coarse_subobject.equality", sub.get("equality"), True)
    _all_morphisms(p, "checks.coarse_subobject", sub, ("containment", "equality"), expect)
    if report.get("ok") is not all(isinstance(c, dict) and c.get("ok") is True
                                   for c in checks.values()):
        p.append("ok disagrees with the checks")
    _ok(p, report, "")
    return p


def check_intervals(rc, report, expect):
    """intervals at r = 1: the true subobject is the Born support at every
    stage, the global element picks exactly it, and every check holds."""
    p = []
    _exit(p, rc)
    true_sub = report.get("true_subobject") or {}
    _equal(p, "number of stages", len(true_sub), expect["n_contexts"])
    _equal(p, "support sizes", sorted(len(s) for s in true_sub.values()),
           expect["support_sizes"])
    gamma = report.get("global_element")
    if not isinstance(gamma, dict) or gamma.keys() != true_sub.keys():
        p.append("global_element does not cover the stages")
    else:
        wrong = sum(1 for cid, s in true_sub.items() if gamma[cid] != sum(1 << i for i in s))
        if wrong:
            p.append(f"global_element differs from the support at {wrong} stages")
    spectral = report.get("spectral_subobject_check") or {}
    _ok(p, spectral, "spectral_subobject_check")
    _all_morphisms(p, "spectral_subobject_check", spectral, ("weak", "strong"), expect)
    _ok(p, report.get("global_element_check"), "global_element_check")
    coarse = report.get("coarse_subobject_check") or {}
    _ok(p, coarse, "coarse_subobject_check")
    _equal(p, "coarse_subobject_check.equality", coarse.get("equality"), True)
    _all_morphisms(p, "coarse_subobject_check", coarse, ("containment", "equality"), expect)
    semantic = report.get("semantic_subobject_check") or {}
    for k in SEMANTIC_PARTS:
        _ok(p, semantic.get(k), f"semantic_subobject_check.{k}")
    _ok(p, semantic, "semantic_subobject_check")
    _equal(p, "ideal_valuation_matches", report.get("ideal_valuation_matches"),
           True if expect["pure"] else None)
    _ok(p, report, "")
    return p


def table_profile(table: dict):
    """Per stage (atom count, down-set size, sorted sieve sizes), from a
    valuate table alone: with unit, the top element's sieve is the down-set."""
    out = []
    for stage in table.values():
        k = (len(stage) - 1).bit_length()
        out.append((k, len(stage.get(str((1 << k) - 1), [])),
                    tuple(sorted(len(s) for s in stage.values()))))
    return sorted(out)


def check_valuate(rc, report, expect):
    """valuate at r = 1: the axioms hold, the table has one stage per
    distinct context, and its sieves match the oracle's stage by stage up
    to the naming of contexts and the order of atoms."""
    p = []
    _exit(p, rc)
    _valuation_axioms(p, "axioms", report.get("axioms"))
    table = report.get("table") or {}
    _equal(p, "number of stages", len(table), expect["n_contexts"])
    for cid, stage in table.items():
        k = (len(stage) - 1).bit_length()
        if set(stage) != {str(m) for m in range(1 << k)}:
            p.append(f"stage {cid} does not list every lattice element")
            break
        if stage["0"]:
            p.append(f"stage {cid}: the null element has a nonempty sieve")
            break
        if any(m not in table for s in stage.values() for m in s):
            p.append(f"stage {cid}: a sieve names an unknown context")
            break
    profile = table_profile(table)
    want = [tuple(x) for x in expect["sieve_profile"]]
    if profile != want:
        diff = Counter(profile) - Counter(want)
        p.append(f"sieve profile differs from the oracle at {sum(diff.values())} stages")
    _ok(p, report, "")
    return p


CHECKERS = {
    "ks-check": check_ks,
    "verify-axioms": check_verify_axioms,
    "intervals": check_intervals,
    "valuate": check_valuate,
}


def check(kind: str, rc: int, report, expect: dict):
    if not isinstance(report, dict):
        return [f"exit code {rc}, and the output is not a JSON report"]
    if "error" in report:
        return [f"exit code {rc}: {report['error']}"]
    return CHECKERS[kind](rc, report, expect)
