from fractions import Fraction

import numpy as np
import pytest

from conftest import make_rng, random_density, random_poset, random_pure

from qcontexts.coarse import LatticeElement, element_projector, lattice
from qcontexts.contexts import Context, all_coarsenings, build_poset, restrict_state
from qcontexts.intervals import (
    IntervalAssignment,
    ProjectorFamily,
    check_coarse_subobject,
    check_semantic_subobject,
    check_spectral_subobject,
    global_element_from_valuation,
    ideal_valuation,
    interval_from_global_element,
    largest_annihilating_mask,
    probability_family,
    support,
    true_subobject,
    _true_set_infimum,
)
from qcontexts.linalg import DensityMatrix, Projector, born_probability
from qcontexts.valuations import ValuationTable, presheaf_tables, valuation_table


def diag_poset(d: int, backend: str = "exact"):
    eye = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    v = Context([Projector.from_ray(eye[i], backend) for i in range(d)])
    return v, build_poset(all_coarsenings(v))


def true_masks(table: ValuationTable, cid: str) -> set:
    """The stage's true-set: the masks valued at its principal sieve."""
    return {m for m, s in enumerate(table.maps[cid]) if s == table.down[cid]}


def atom_index(v: Context, proj: Projector) -> int:
    for i, a in enumerate(v.atoms):
        if a == proj:
            return i
    raise AssertionError("atom not found")


# -- support -----------------------------------------------------------------


def test_support_examples():
    v, _ = diag_poset(3)
    e0 = Projector.from_ray([1, 0, 0], "exact")
    rho = DensityMatrix.pure([1, 0, 0], "exact")
    q = support(restrict_state(rho, v).weights, v)
    assert element_projector(q, v) == e0

    half = DensityMatrix.from_diag([Fraction(1, 2), Fraction(1, 2), 0], "exact")
    q2 = element_projector(support(restrict_state(half, v).weights, v), v)
    assert q2 == Projector.from_span([[1, 0, 0], [0, 1, 0]], "exact")

    mixed = DensityMatrix.maximally_mixed(3, "exact")
    assert support(restrict_state(mixed, v).weights, v).mask == 0b111


def test_support_is_minimum_of_probability_one_set():
    for seed in range(10):
        rng = make_rng(seed + 700)
        d = int(rng.integers(2, 5))
        poset = random_poset(rng, d)
        rho = random_density(rng, d)
        for cid in poset.ids():
            v = poset.contexts[cid]
            q = support(restrict_state(rho, v).weights, v)
            ones = [
                e.mask for e in lattice(v)
                if born_probability(rho, element_projector(e, v)) >= 1 - 1e-9
            ]
            assert q.mask in ones
            assert all(q.mask & m == q.mask for m in ones)  # minimum


# -- subobjects of the spectral presheaf --------------------------------------


def test_true_subobject_weak_condition_random():
    for seed in range(15):
        rng = make_rng(seed + 800)
        d = int(rng.integers(2, 5))
        poset = random_poset(rng, d)
        rho = random_density(rng, d)
        assignment = true_subobject(presheaf_tables(rho, poset, 1))
        assert all(assignment.sets[cid] for cid in poset.ids())  # never empty
        report = check_spectral_subobject(assignment, poset)
        assert report["ok"], report


def test_interval_can_be_empty_for_thresholds():
    v, poset = diag_poset(3)
    rho = DensityMatrix.from_diag([Fraction(1, 2), Fraction(1, 2), 0], "exact")
    table = valuation_table(presheaf_tables(rho, poset, Fraction(1, 2)))
    # two disjoint true elements at the maximal stage force an empty infimum
    assert len(true_masks(table, v.id)) > 1
    assert _true_set_infimum(table, v.id) == 0


def test_empty_true_set_has_the_zero_infimum():
    v, poset = diag_poset(3)
    table = valuation_table(presheaf_tables(DensityMatrix.maximally_mixed(3, "exact"), poset, 1))
    # only the top element of the maximal stage has weight 1 there; with its
    # sieve emptied, no element is valued at the principal sieve
    maps = {cid: list(stage) for cid, stage in table.maps.items()}
    maps[v.id][-1] = 0
    broken = ValuationTable(table.tables, maps)
    assert true_masks(broken, v.id) == set()
    assert _true_set_infimum(broken, v.id) == 0


def test_spectral_subobject_reports_a_set_that_misses_the_image():
    v, poset = diag_poset(3)
    assignment = true_subobject(presheaf_tables(DensityMatrix.pure([1, 0, 0], "exact"), poset, 1))
    e0 = atom_index(v, Projector.from_ray([1, 0, 0], "exact"))
    assert assignment.sets[v.id] == 1 << e0
    sub = next(s for s, t in poset.proper_pairs() if t == v.id
               and poset.contexts[s].n_atoms == 2)
    report = check_spectral_subobject(IntervalAssignment({**assignment.sets, sub: 0}), poset)
    assert not report["ok"]
    broken = [m for m in report["morphisms"] if not m["weak"]]
    assert broken == [{"morphism": [sub, v.id], "weak": False, "strong": False,
                       "image": [poset.restriction[(sub, v.id)][e0]], "target": []}]


def test_true_set_contains_top_never_bottom():
    rng = make_rng(902)
    poset = random_poset(rng, 3)
    rho = random_density(rng, 3)
    table = valuation_table(presheaf_tables(rho, poset, 1))
    for cid in poset.ids():
        ts = true_masks(table, cid)
        n = poset.contexts[cid].n_atoms
        assert (1 << n) - 1 in ts
        assert 0 not in ts


# -- global elements of the coarse-graining presheaf ---------------------------


def test_global_element_succeeds_at_r1():
    for seed in range(10):
        rng = make_rng(seed + 1000)
        d = int(rng.integers(2, 5))
        poset = random_poset(rng, d)
        rho = random_density(rng, d)
        table = valuation_table(presheaf_tables(rho, poset, 1))
        gamma, report = global_element_from_valuation(table, poset)
        assert report["ok"], report
        induced = interval_from_global_element(gamma, poset)
        strong = check_spectral_subobject(induced, poset)
        assert strong["ok"]
        assert all(m["strong"] for m in strong["morphisms"])


def test_global_element_fails_for_thresholds():
    v, poset = diag_poset(3)
    rho = DensityMatrix.from_diag(
        [Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)], "exact")
    table = valuation_table(presheaf_tables(rho, poset, Fraction(3, 5)))
    gamma, report = global_element_from_valuation(table, poset)
    assert gamma is None and not report["ok"]
    sub, sup = report["violating_morphism"]
    # the reported failure: the lower infimum is strictly above the
    # coarse-grained upper infimum
    low = poset.contexts[sub]
    assert report["infimum_below"] != report["coarse_grained_above"]
    # the specific two-atom stage {P0, P1+P2}: no proper element reaches 0.6,
    # so its infimum is the identity while P0 coarse-grains to P0
    e0 = Projector.from_ray([1, 0, 0], "exact")
    p12 = Projector.from_span([[0, 1, 0], [0, 0, 1]], "exact")
    v2 = Context([e0, p12])
    table_inf = {cid: None for cid in poset.ids()}
    ts2 = true_masks(table, v2.id)
    inf2 = (1 << 2) - 1
    for m in ts2:
        inf2 &= m
    assert inf2 == 0b11  # identity: only the top element has weight >= 0.6


# -- probability-threshold families -------------------------------------------


def test_probability_family_trace_arithmetic():
    v, poset = diag_poset(3)
    rho = DensityMatrix.from_diag(
        [Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)], "exact")
    fam = probability_family(presheaf_tables(rho, poset, Fraction(3, 5)))
    e0 = atom_index(v, Projector.from_ray([1, 0, 0], "exact"))
    e1 = atom_index(v, Projector.from_ray([0, 1, 0], "exact"))
    e2 = atom_index(v, Projector.from_ray([0, 0, 1], "exact"))
    expected = {
        (1 << e0) | (1 << e1),  # 0.8
        (1 << e0) | (1 << e2),  # 0.7
        0b111,                  # 1.0
    }
    assert fam.masks[v.id] == frozenset(expected)


def test_coarse_subobject_containment_always_equality_at_r1():
    for seed in range(12):
        rng = make_rng(seed + 1100)
        d = int(rng.integers(2, 5))
        poset = random_poset(rng, d)
        rho = random_density(rng, d)
        tables1 = presheaf_tables(rho, poset, 1)
        rep1 = check_coarse_subobject(probability_family(tables1), tables1)
        assert rep1["ok"] and rep1["equality"]
        tables = presheaf_tables(rho, poset, float(rng.uniform(0.2, 0.95)))
        rep = check_coarse_subobject(probability_family(tables), tables)
        assert rep["ok"], rep


def test_coarse_subobject_mutation_detected():
    v, poset = diag_poset(3)
    rho = DensityMatrix.pure([1, 0, 0], "exact")
    tables = presheaf_tables(rho, poset, 1)
    fam = probability_family(tables)
    # drop one element from a non-maximal stage: containment must break
    sub = next(s for s, t in poset.proper_pairs() if t == v.id
               and poset.contexts[s].n_atoms == 2)
    masks = dict(fam.masks)
    target = set(masks[sub])
    image = {0}
    for m in fam.masks[v.id]:
        from qcontexts.coarse import coarse_grain

        image.add(coarse_grain(poset, LatticeElement(v.id, m), sub).mask)
    victim = next(iter(target & image - {0}))
    masks[sub] = frozenset(target - {victim})
    rep = check_coarse_subobject(ProjectorFamily(masks), tables)
    assert not rep["ok"]


def test_coarse_subobject_missing_preimage_breaks_equality():
    v, poset = diag_poset(3)
    rho = DensityMatrix.from_diag(
        [Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)], "exact")
    tables = presheaf_tables(rho, poset, Fraction(3, 5))
    fam = probability_family(tables)
    assert check_coarse_subobject(fam, tables)["equality"]
    # P0+P1 (weight 0.8) is the only preimage at the maximal stage of the
    # P0+P1 atom of the {P0+P1, P2} stage; without it that atom has no preimage
    e0 = atom_index(v, Projector.from_ray([1, 0, 0], "exact"))
    e1 = atom_index(v, Projector.from_ray([0, 1, 0], "exact"))
    p01 = Projector.from_span([[1, 0, 0], [0, 1, 0]], "exact")
    sub = Context([p01, Projector.from_ray([0, 0, 1], "exact")]).id
    masks = dict(fam.masks)
    masks[v.id] = fam.masks[v.id] - {(1 << e0) | (1 << e1)}
    rep = check_coarse_subobject(ProjectorFamily(masks), tables)
    assert rep["ok"] and not rep["equality"]
    broken = [m["morphism"] for m in rep["morphisms"] if not m["equality"]]
    assert broken == [[sub, v.id]]


def test_semantic_subobject_all_pass_at_r1():
    rng = make_rng(1201)
    poset = random_poset(rng, 3)
    rho = random_density(rng, 3)
    tables = presheaf_tables(rho, poset, 1)
    fam = probability_family(tables)
    rep = check_semantic_subobject(fam, check_coarse_subobject(fam, tables), poset)
    assert rep["ok"], rep


def test_semantic_subobject_exclusivity_fails_below_half():
    v, poset = diag_poset(3)
    rho = DensityMatrix.from_diag(
        [Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)], "exact")
    tables = presheaf_tables(rho, poset, Fraction(3, 10))
    fam = probability_family(tables)
    coarse = check_coarse_subobject(fam, tables)
    rep = check_semantic_subobject(fam, coarse, poset)
    assert rep["functional_composition"]["ok"]
    assert rep["null_proposition"]["ok"]
    assert rep["monotonicity"]["ok"]
    assert not rep["exclusivity"]["ok"]
    cx = rep["exclusivity"]["counterexample"]
    assert cx["p"] & cx["q"] == 0
    # relaxing exclusivity accepts the family
    assert check_semantic_subobject(fam, coarse, poset, require_exclusivity=False)["ok"]


def test_semantic_subobject_rejects_null_member():
    v, poset = diag_poset(2)
    rho = DensityMatrix.maximally_mixed(2, "exact")
    tables = presheaf_tables(rho, poset, Fraction(1, 2))
    masks = dict(probability_family(tables).masks)
    masks[v.id] = masks[v.id] | {0}
    fam = ProjectorFamily(masks)
    rep = check_semantic_subobject(fam, check_coarse_subobject(fam, tables), poset)
    assert not rep["null_proposition"]["ok"]


# -- ideal-induced valuations --------------------------------------------------


def test_ideal_valuation_examples():
    v, poset = diag_poset(3)
    assignment = ideal_valuation([1, 0, 0], poset)
    e0 = atom_index(v, Projector.from_ray([1, 0, 0], "exact"))
    assert assignment.sets[v.id] == 1 << e0
    mask = largest_annihilating_mask([1, 0, 0], v)
    p12 = Projector.from_span([[0, 1, 0], [0, 0, 1]], "exact")
    assert element_projector(LatticeElement(v.id, mask), v) == p12


def test_ideal_valuation_no_annihilated_atoms():
    v, poset = diag_poset(2)
    psi = [Fraction(3, 5), Fraction(4, 5)]
    assignment = ideal_valuation(psi, poset)
    assert assignment.sets[v.id] == 0b11
    assert largest_annihilating_mask(psi, v) == 0


def test_ideal_valuation_matches_true_subobject_random():
    for seed in range(20):
        rng = make_rng(seed + 1300)
        d = int(rng.integers(2, 6))
        poset = random_poset(rng, d)
        psi = random_pure(rng, d)
        rho = DensityMatrix.pure(psi, "float")
        ideal = ideal_valuation(psi, poset)
        ts = true_subobject(presheaf_tables(rho, poset, 1))
        assert ideal.sets == ts.sets


def test_annihilator_complement_minimality():
    # 1 - Q_max is the least projector certain on psi, by brute force
    for seed in range(10):
        rng = make_rng(seed + 1400)
        d = int(rng.integers(2, 5))
        poset = random_poset(rng, d)
        psi = random_pure(rng, d)
        rho = DensityMatrix.pure(psi, "float")
        for cid in poset.ids():
            v = poset.contexts[cid]
            comp = ((1 << v.n_atoms) - 1) ^ largest_annihilating_mask(psi, v)
            ones = [
                e.mask for e in lattice(v)
                if born_probability(rho, element_projector(e, v)) >= 1 - 1e-9
            ]
            assert comp in ones
            assert all(comp & m == comp for m in ones)
