"""Acceptance gate: one test (and one printed verdict line) per criterion.

Tolerances: exact backend comparisons are exact (zero tolerance); float
backend uses the global 1e-9 eps unless a check documents otherwise.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_rng, random_density, random_poset, random_pure

from qcontexts.cli import main as cli_main
from qcontexts.coarse import (
    LatticeElement,
    coarse_functoriality_check,
    coarse_grain,
    coarse_grain_bruteforce,
    element_projector,
    lattice,
    projector_restrictions,
)
from qcontexts.contexts import (
    Context,
    all_coarsenings,
    build_poset,
    check_state_global_element,
    restrict_state,
)
from qcontexts.intervals import (
    check_coarse_subobject,
    check_spectral_subobject,
    global_element_from_valuation,
    ideal_valuation,
    interval_from_global_element,
    largest_annihilating_mask,
    probability_family,
    true_subobject,
)
from qcontexts.ks import (
    brute_force_sections,
    find_global_section,
    load_rayset,
    poset_from_rayset,
    validate_section,
)
from qcontexts.linalg import DensityMatrix, Projector, born_probability
from qcontexts.valuations import (
    check_valuation,
    natural_transformation_check,
    presheaf_tables,
    stage_weights,
    valuation_table,
)


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def diag_poset_exact(d: int):
    eye = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    v = Context([Projector.from_ray(eye[i], "exact") for i in range(d)])
    return v, build_poset(all_coarsenings(v))


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_ks_obstruction():
    t0 = time.perf_counter()
    poset18 = poset_from_rayset(load_rayset("ks18"))
    section, report = find_global_section(poset18)
    bf = brute_force_sections(poset18)
    elapsed = time.perf_counter() - t0

    dim2 = poset_from_rayset(load_rayset("dim2_two_bases"))
    s2, _ = find_global_section(dim2)

    ok = (
        section is None
        and report["n_maximal"] == 9
        and bf == []
        and elapsed < 10.0
        and s2 is not None
        and validate_section(s2, dim2)
    )
    verdict(1, ok, f"18-ray set uncolourable (search + 4^9 brute force agree, "
                   f"{elapsed:.1f}s); dim-2 set colourable")
    assert section is None
    assert bf == []
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    assert s2 is not None and validate_section(s2, dim2)


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_2_coarse_graining_oracle():
    instances = 0
    seed = 0
    mismatches = 0
    functorial_failures = 0
    while instances < 500:
        rng = make_rng(2000 + seed)
        seed += 1
        d = 2 + seed % 4  # dims 2..5
        poset = random_poset(rng, d)
        if not coarse_functoriality_check(poset)["ok"]:
            functorial_failures += 1
        for sub, sup in poset.proper_pairs():
            for elem in lattice(poset.contexts[sup]):
                if coarse_grain(poset, elem, sub) != coarse_grain_bruteforce(
                        poset, elem, sub):
                    mismatches += 1
                instances += 1

    # zero tolerance on the exact backend as well
    _, exact_poset = diag_poset_exact(3)
    for sub, sup in exact_poset.proper_pairs():
        for elem in lattice(exact_poset.contexts[sup]):
            if coarse_grain(exact_poset, elem, sub) != coarse_grain_bruteforce(
                    exact_poset, elem, sub):
                mismatches += 1
            instances += 1
    if not coarse_functoriality_check(exact_poset)["ok"]:
        functorial_failures += 1

    ok = mismatches == 0 and functorial_failures == 0
    verdict(2, ok, f"{instances} (poset, element) instances: closed form == "
                   f"brute-force infimum; functoriality on every chain")
    assert instances >= 500
    assert mismatches == 0 and functorial_failures == 0


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_3_valuation_axioms():
    failures = []
    count = 0
    while count < 100:
        rng = make_rng(3000 + count)
        d = 2 + count % 3  # dims 2..4
        poset = random_poset(rng, d)
        assert len(poset) <= 10
        rho = random_density(rng, d)
        table = valuation_table(presheaf_tables(rho, poset, 1))
        rep = check_valuation(table)
        nat = natural_transformation_check(table, projector_restrictions(poset))
        if not (rep["ok"] and nat["ok"]):
            failures.append((count, rep, nat))
        if count < 20:  # threshold variants on a subsample
            for r in (0.6, 0.8):
                trep = check_valuation(valuation_table(presheaf_tables(rho, poset, r)))
                if not trep["ok"]:
                    failures.append((count, r, trep))
        count += 1

    # the documented exclusivity failure with its witness pair
    v, poset = diag_poset_exact(3)
    rho = DensityMatrix.from_diag(
        [Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)], "exact")
    rep = check_valuation(valuation_table(presheaf_tables(rho, poset, Fraction(3, 10))))
    witness_ok = False
    if not rep["exclusivity"]["ok"]:
        cx = rep["exclusivity"]["counterexample"]
        stage = poset.contexts[cx["stage"]]
        wp = (rho.matrix @ element_projector(
            LatticeElement(cx["stage"], cx["p"]), stage).matrix).real_trace()
        wq = (rho.matrix @ element_projector(
            LatticeElement(cx["stage"], cx["q"]), stage).matrix).real_trace()
        heavy = Fraction(2, 5)
        witness_ok = (cx["p"] & cx["q"] == 0
                      and {wp, wq} <= {heavy, heavy + Fraction(1, 5), Fraction(3, 5)}
                      and wp >= Fraction(3, 10) and wq >= Fraction(3, 10))

    ok = not failures and witness_ok
    verdict(3, ok, "100 random states pass all five axioms (two independent "
                   "checkers); r in {0.6, 0.8} pass; r=0.3 exclusivity fails "
                   "with a disjoint high-weight witness pair")
    assert not failures, failures[:2]
    assert witness_ok, rep["exclusivity"]


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_4a_true_subobject_weak_law():
    bad = 0
    for i in range(100):
        rng = make_rng(4000 + i)
        d = 2 + i % 3
        poset = random_poset(rng, d)
        rho = random_density(rng, d)
        assignment = true_subobject(presheaf_tables(rho, poset, 1))
        if not check_spectral_subobject(assignment, poset)["ok"]:
            bad += 1
    verdict(4, bad == 0, "(a) true-subobject weak law on 100 random states")
    assert bad == 0


def test_criterion_4b_global_element_strong_law():
    bad = 0
    for i in range(100):
        rng = make_rng(4100 + i)
        d = 2 + i % 3
        poset = random_poset(rng, d)
        rho = random_density(rng, d)
        table = valuation_table(presheaf_tables(rho, poset, 1))
        gamma, rep = global_element_from_valuation(table, poset)
        if gamma is None:
            bad += 1
            continue
        strong = check_spectral_subobject(
            interval_from_global_element(gamma, poset), poset)
        if not all(m["strong"] for m in strong["morphisms"]):
            bad += 1
    verdict(4, bad == 0, "(b) r=1 global element exists; induced interval "
                         "satisfies the strong equality law")
    assert bad == 0


def test_criterion_4c_threshold_global_element_failure():
    v, poset = diag_poset_exact(3)
    rho = DensityMatrix.from_diag(
        [Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)], "exact")
    table = valuation_table(presheaf_tables(rho, poset, Fraction(3, 5)))
    gamma, rep = global_element_from_valuation(table, poset)

    e0 = Projector.from_ray([1, 0, 0], "exact")
    p12 = Projector.from_span([[0, 1, 0], [0, 0, 1]], "exact")
    v2 = Context([e0, p12])
    ok = False
    if gamma is None and not rep["ok"]:
        sub = rep["violating_morphism"][0]
        stage = poset.contexts[sub]
        # the failing stage is the {P0, P1+P2} context: its infimum is the
        # identity while the maximal infimum P0 coarse-grains to P0
        below_inf = element_projector(
            LatticeElement(sub, rep["infimum_below"]), stage)
        coarse_above = element_projector(
            LatticeElement(sub, rep["coarse_grained_above"]), stage)
        ok = (sub == v2.id
              and below_inf.rank == 3
              and coarse_above == e0)
    verdict(4, ok, "(c) r=0.6 global element fails at the {P0, P1+P2} stage "
                   "with identity vs coarse-grained P0")
    assert ok, rep


def test_criterion_4d_threshold_family_containment_and_equality():
    containment_bad = 0
    equality_failures_below_one = 0
    tested_below_one = 0
    for i in range(60):
        rng = make_rng(4200 + i)
        d = 2 + i % 3
        poset = random_poset(rng, d)
        rho = random_density(rng, d)
        for r in (1.0, 0.8, 0.6, 0.35):
            tables = presheaf_tables(rho, poset, r)
            rep = check_coarse_subobject(probability_family(tables), tables)
            if not rep["ok"]:
                containment_bad += 1
            if r < 1.0:
                tested_below_one += 1
                if not rep["equality"]:
                    equality_failures_below_one += 1
            else:
                if not rep["equality"]:
                    containment_bad += 1

    # NOTE: the image of the threshold family under coarse-graining equals the
    # lower family for EVERY r in (0, 1]. Containment: coarse-graining never
    # lowers Born weight. Equality: the restriction map onto the lower stage's
    # atoms is surjective, so each lower-stage mask q has a preimage mask of the
    # same weight in the upper family that coarse-grains to q.
    ok = containment_bad == 0 and equality_failures_below_one == 0
    verdict(4, ok, f"(d) containment and equality hold at every tested r: "
                   f"{tested_below_one} r<1 instances, equality broken on "
                   f"{equality_failures_below_one}")
    assert containment_bad == 0
    assert equality_failures_below_one == 0, (
        f"equality broken on {equality_failures_below_one} of "
        f"{tested_below_one} r<1 instances"
    )


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_5_ideal_support_equivalence():
    mism = 0
    minimality_bad = 0
    states = 0
    while states < 200:
        rng = make_rng(5000 + states)
        d = 2 + states % 4  # dims 2..5
        poset = random_poset(rng, d)
        psi = random_pure(rng, d)
        rho = DensityMatrix.pure(psi, "float")
        if ideal_valuation(psi, poset).sets != true_subobject(presheaf_tables(rho, poset, 1)).sets:
            mism += 1
        if states % 10 == 0:  # brute-force minimality on a subsample
            for cid in poset.ids():
                v = poset.contexts[cid]
                comp = ((1 << v.n_atoms) - 1) ^ largest_annihilating_mask(psi, v)
                ones = [e.mask for e in lattice(v)
                        if born_probability(
                            rho, element_projector(e, v)) >= 1 - 1e-9]
                if comp not in ones or any(comp & m != comp for m in ones):
                    minimality_bad += 1
        states += 1
    ok = mism == 0 and minimality_bad == 0
    verdict(5, ok, "200 random pure states: ideal valuation == true subobject "
                   "stage-by-stage; annihilator complement minimal by brute force")
    assert mism == 0 and minimality_bad == 0


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_6_presheaf_laws():
    composition_bad = 0
    ge_bad = 0
    for seed in range(12):
        poset = random_poset(make_rng(6000 + seed), 2 + seed % 3)
        for c3, c2 in poset.proper_pairs():
            for c2b, c1 in poset.proper_pairs():
                if c2b != c2:
                    continue
                r12 = poset.restriction[(c2, c1)]
                r23 = poset.restriction[(c3, c2)]
                r13 = poset.restriction[(c3, c1)]
                if any(r23[r12[i]] != r13[i] for i in range(len(r12))):
                    composition_bad += 1
        rho = random_density(make_rng(6100 + seed), poset.dim)
        if not check_state_global_element(stage_weights(rho, poset), poset):
            ge_bad += 1

    mutations_caught = 0
    for k in range(20):
        rng = make_rng(6200 + k)
        d = 2 + k % 3
        poset = random_poset(rng, d)
        rho = random_density(rng, d)
        family = {cid: list(restrict_state(rho, poset.contexts[cid]).weights)
                  for cid in poset.ids()}
        pairs = poset.proper_pairs()
        victim, _ = pairs[k % len(pairs)]
        slot = k % poset.contexts[victim].n_atoms
        family[victim][slot] += 0.05  # single-weight perturbation
        if not check_state_global_element(family, poset):
            mutations_caught += 1

    ok = composition_bad == 0 and ge_bad == 0 and mutations_caught == 20
    verdict(6, ok, f"restriction maps compose on all triples; state families "
                   f"are global elements; {mutations_caught}/20 mutations caught")
    assert composition_bad == 0 and ge_bad == 0
    assert mutations_caught == 20


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_7_cli_determinism(tmp_path, capsys):
    diag = tmp_path / "diag3.json"
    diag.write_text(json.dumps({
        "dim": 3, "field": "int",
        "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "bases": [[0, 1, 2]],
    }))
    rep = tmp_path / "rep.json"
    rep.write_text('{"z": 1, "a": [3, 2]}')
    commands = [
        ["build-poset", "--rays", "dim2_two_bases"],
        ["valuate", "--rays", str(diag), "--state", "diag:0.4,0.4,0.2",
         "--r", "0.3"],
        ["intervals", "--rays", str(diag), "--coarsenings",
         "--state", "diag:0.5,0.3,0.2", "--r", "0.6"],
        ["ks-check", "--rays", "ks18"],
        ["ks-check", "--rays", "dim2_two_bases"],
        ["verify-axioms", "--rays", str(diag), "--state", "basis-0"],
        ["report", str(rep)],
    ]
    unstable = []
    for argv in commands:
        runs = []
        for _ in range(2):
            code = cli_main(list(argv))
            runs.append((code, capsys.readouterr().out))
        if runs[0] != runs[1]:
            unstable.append(argv[0])
    ok = not unstable
    verdict(7, ok, f"{len(commands)} CLI commands byte-identical across "
                   f"repeated single-threaded runs")
    assert not unstable, unstable
